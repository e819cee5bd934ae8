//! Flow reconstruction and domain labeling (§4.1).
//!
//! "For each flow from a device, we determine the SLD by first identifying
//! whether the destination IP address corresponds to a DNS response for a
//! request issued by the device. If so, we use the SLD for the
//! corresponding DNS lookup; otherwise, we search HTTP headers (Host
//! field) and/or TLS handshakes (Server Name Indication field) for the
//! domain. If none of the above approaches yields a domain, we leave the
//! IP's SLD unlabeled."

use iot_geodb::registry::fnv1a;
use iot_net::flow::{Flow, FlowProto, FlowTable};
use iot_protocols::analyzer::{IdentifyMemo, ProtocolId, Transport};
use iot_protocols::{dns, http, tls};
use iot_testbed::experiment::LabeledExperiment;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How a flow's domain label was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainSource {
    /// From a DNS answer observed earlier in the capture.
    Dns,
    /// From the TLS Server Name Indication.
    Sni,
    /// From the HTTP `Host` header.
    HttpHost,
    /// No domain evidence — the destination stays unlabeled.
    Unlabeled,
}

/// One reconstructed, labeled flow.
#[derive(Debug, Clone)]
pub struct LabeledFlow {
    /// The raw flow.
    pub flow: Flow,
    /// Identified application protocol.
    pub protocol: ProtocolId,
    /// Domain (full host name) labeling the remote endpoint, if any.
    /// Interned: every flow labeled with the same name shares one
    /// allocation instead of cloning a `String` per flow.
    pub domain: Option<Arc<str>>,
    /// How the domain was found.
    pub domain_source: DomainSource,
}

impl LabeledFlow {
    /// Remote address of the flow.
    pub fn remote_ip(&self) -> Ipv4Addr {
        self.flow.key.remote_ip
    }
}

/// Cross-experiment labeling state: the protocol-identification memo,
/// the domain-name intern pool, and a bounded memo of SNI/Host lookups.
/// One per shard — hit rates compound across that shard's experiments,
/// and dropping the context never changes results (every cached value is
/// keyed by the full content that produced it).
#[derive(Default)]
pub struct LabelCtx {
    memo: IdentifyMemo,
    /// Domain intern pool: `Arc<str>` per distinct name ever labeled.
    domains: HashSet<Arc<str>>,
    /// Memoized §4.1 SNI/Host fallback, keyed by the exact outbound
    /// payload prefix (bounded like the identify memo). `None` = the
    /// payload yields no label.
    sni_host: HashMap<u64, Vec<(Vec<u8>, Option<(Arc<str>, DomainSource)>)>>,
    /// Payload bytes copied into `sni_host` so far; learning stops at
    /// [`SNI_MEMO_MAX_STORED_BYTES`].
    sni_stored_bytes: usize,
}

/// Size bound for SNI/Host memo keys, matching the identify memo's.
const SNI_MEMO_MAX_BYTES: usize = 1024;

/// Total payload bytes the SNI/Host memo may retain per shard. The
/// per-key bound alone lets a diverse corpus grow the memo without limit
/// (every distinct payload ≤ 1 KB became an entry); past this budget the
/// memo keeps serving hits but stops copying new keys, which bounds the
/// shard's live heap without changing any result — the fallback is a
/// pure function of the payload.
const SNI_MEMO_MAX_STORED_BYTES: usize = 192 * 1024;

impl LabelCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the shared allocation.
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(existing) = self.domains.get(name) {
            return Arc::clone(existing);
        }
        let arc: Arc<str> = Arc::from(name);
        self.domains.insert(Arc::clone(&arc));
        arc
    }

    /// The §4.1 SNI → HTTP-Host fallback, memoized on the outbound
    /// payload prefix (both parses are pure functions of it).
    fn sni_or_host(&mut self, payload_out: &[u8]) -> (Option<Arc<str>>, DomainSource) {
        if payload_out.len() <= SNI_MEMO_MAX_BYTES {
            let h = fnv1a(payload_out);
            if let Some(bucket) = self.sni_host.get(&h) {
                for (key, v) in bucket {
                    if key == payload_out {
                        return match v {
                            Some((d, src)) => (Some(Arc::clone(d)), *src),
                            None => (None, DomainSource::Unlabeled),
                        };
                    }
                }
            }
            let computed = self.compute_sni_or_host(payload_out);
            if self.sni_stored_bytes + payload_out.len() <= SNI_MEMO_MAX_STORED_BYTES {
                self.sni_stored_bytes += payload_out.len();
                let cached = match &computed {
                    (Some(d), src) => Some((Arc::clone(d), *src)),
                    (None, _) => None,
                };
                self.sni_host
                    .entry(h)
                    .or_default()
                    .push((payload_out.to_vec(), cached));
            }
            computed
        } else {
            self.compute_sni_or_host(payload_out)
        }
    }

    fn compute_sni_or_host(&mut self, payload_out: &[u8]) -> (Option<Arc<str>>, DomainSource) {
        if let Some(sni) = tls::sni_from_stream(payload_out) {
            let interned = self.intern(&sni);
            (Some(interned), DomainSource::Sni)
        } else if let Some(host) = http::Request::parse(payload_out)
            .ok()
            .and_then(|r| r.host().map(|h| self.intern(h)))
        {
            (Some(host), DomainSource::HttpHost)
        } else {
            (None, DomainSource::Unlabeled)
        }
    }
}

/// All flows of one experiment, labeled per §4.1.
#[derive(Debug, Clone)]
pub struct ExperimentFlows {
    /// Labeled flows, ordered by first packet time.
    pub flows: Vec<LabeledFlow>,
    /// DNS name↦address evidence observed in the capture (names interned).
    pub dns_map: HashMap<Ipv4Addr, Arc<str>>,
    /// Frames that failed to parse *because they were damaged* —
    /// truncated, length-inconsistent, or checksum-garbled — and were
    /// skipped, the way tcpdump reports mangled packets. Non-IP frames
    /// (ARP) are not counted: they are normal gateway chatter. On a
    /// pristine capture this is zero; under fault injection it feeds the
    /// pipeline's `IngestStats` quarantine accounting.
    pub unparsed_packets: u64,
}

/// Incremental §4.1 flow reconstruction: feed one frame at a time,
/// finish into [`ExperimentFlows`].
///
/// This is the streaming counterpart of the old materialize-then-scan
/// loop, and the per-frame order is *exactly* the old per-packet order —
/// parse, skip `Unsupported` silently, count other parse failures,
/// harvest DNS answers, then update the flow table — so the finished
/// flows are byte-identical regardless of whether frames arrived from a
/// `Vec<Packet>` or a zero-copy [`iot_net::pcap::PcapCursor`]. Frames are
/// borrowed for the duration of one call only; nothing in the builder
/// retains a reference to them (payload prefixes the flow table keeps
/// are copied into its own bounded buffers).
pub struct FlowBuilder {
    table: FlowTable,
    dns_map: HashMap<Ipv4Addr, Arc<str>>,
    unparsed_packets: u64,
}

impl FlowBuilder {
    /// Creates a builder for a capture taken on `subnet`/`prefix_len`.
    pub fn new(subnet: Ipv4Addr, prefix_len: u8) -> Self {
        FlowBuilder {
            table: FlowTable::new(subnet, prefix_len),
            dns_map: HashMap::new(),
            unparsed_packets: 0,
        }
    }

    /// Observes one raw Ethernet frame at `ts_micros`.
    pub fn observe_frame(&mut self, ts_micros: u64, frame: &[u8], ctx: &mut LabelCtx) {
        let parsed = match iot_net::packet::ParsedPacket::parse(frame) {
            Ok(p) => p,
            Err(iot_net::Error::Unsupported { .. }) => {
                // Non-IP frames (ARP and friends) are normal gateway
                // chatter, not damage; skip silently as before.
                return;
            }
            Err(_) => {
                // Corrupt frame (truncated, length-inconsistent, or
                // checksum-garbled): skip it, as tcpdump would, but
                // count it so degraded captures are visible downstream.
                self.unparsed_packets += 1;
                return;
            }
        };
        // Harvest DNS answers before flow accounting so lookups
        // precede the flows they label.
        if let iot_net::packet::TransportHeader::Udp(udp) = &parsed.transport {
            if udp.src_port == dns::PORT {
                if let Ok(msg) = dns::Message::parse(parsed.payload) {
                    for (name, addr) in msg.a_records() {
                        let interned = ctx.intern(&name);
                        self.dns_map.insert(addr, interned);
                    }
                }
            }
        }
        self.table.observe(&parsed, ts_micros);
    }

    /// Closes out every flow and labels it per §4.1.
    pub fn finish(self, ctx: &mut LabelCtx) -> ExperimentFlows {
        let FlowBuilder {
            table,
            dns_map,
            unparsed_packets,
        } = self;
        let flows = table
            .into_flows()
            .into_iter()
            .map(|flow| label_flow(flow, &dns_map, ctx))
            .collect();
        ExperimentFlows {
            flows,
            dns_map,
            unparsed_packets,
        }
    }
}

impl ExperimentFlows {
    /// Reconstructs and labels the flows of an experiment with a fresh
    /// labeling context. Prefer [`ExperimentFlows::from_experiment_with`]
    /// on hot paths, where the context's memos pay off across experiments.
    pub fn from_experiment(exp: &LabeledExperiment) -> Self {
        Self::from_experiment_with(exp, &mut LabelCtx::new())
    }

    /// Reconstructs and labels the flows of an experiment, reusing the
    /// caller's [`LabelCtx`]. Results are identical with any context
    /// state, including an empty one.
    ///
    /// Walks the experiment's serialized capture with a zero-copy strict
    /// cursor — one borrowed [`iot_net::pcap::PacketView`] at a time, no
    /// per-packet `Vec<u8>` materialization.
    pub fn from_experiment_with(exp: &LabeledExperiment, ctx: &mut LabelCtx) -> Self {
        let mut builder = FlowBuilder::new(exp.site.subnet(), 24);
        for view in exp.capture.views() {
            let view = view.expect("experiment captures are writer-clean");
            builder.observe_frame(view.ts_micros, view.data, ctx);
        }
        builder.finish(ctx)
    }

    /// Flows excluding the LAN-side infrastructure chatter (DNS to the
    /// gateway and DHCP), which the paper's destination analysis ignores.
    pub fn internet_flows(&self) -> impl Iterator<Item = &LabeledFlow> {
        self.flows
            .iter()
            .filter(|f| !matches!(f.protocol, ProtocolId::Dns | ProtocolId::Dhcp))
    }

    /// Total payload bytes across all flows.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.flow.total_bytes()).sum()
    }
}

fn label_flow(
    flow: Flow,
    dns_map: &HashMap<Ipv4Addr, Arc<str>>,
    ctx: &mut LabelCtx,
) -> LabeledFlow {
    let transport = match flow.key.proto {
        FlowProto::Tcp => Transport::Tcp,
        FlowProto::Udp => Transport::Udp,
    };
    let protocol = ctx.memo.identify(
        transport,
        flow.key.remote_port,
        &flow.payload_out,
        &flow.payload_in,
    );
    // §4.1 label hierarchy: DNS first, then SNI / Host. The DNS arm is a
    // cheap Arc clone of the interned name; the fallback is memoized on
    // the payload prefix that determines it.
    let (domain, domain_source) = if let Some(name) = dns_map.get(&flow.key.remote_ip) {
        (Some(Arc::clone(name)), DomainSource::Dns)
    } else {
        ctx.sni_or_host(&flow.payload_out)
    };
    LabeledFlow {
        flow,
        protocol,
        domain,
        domain_source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_geodb::registry::GeoDb;
    use iot_testbed::experiment::run_power;
    use iot_testbed::lab::{Lab, LabSite};

    fn power_flows(device: &str) -> ExperimentFlows {
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device(device).unwrap();
        let exp = run_power(&db, dev, false, 0, 0);
        ExperimentFlows::from_experiment(&exp)
    }

    #[test]
    fn dns_labels_tls_flows() {
        let flows = power_flows("Echo Dot");
        let labeled: Vec<_> = flows
            .internet_flows()
            .filter(|f| f.protocol == ProtocolId::Tls)
            .collect();
        assert!(!labeled.is_empty());
        for f in &labeled {
            assert_eq!(f.domain_source, DomainSource::Dns, "{:?}", f.domain);
            assert!(f.domain.is_some());
        }
        assert!(labeled
            .iter()
            .any(|f| f.domain.as_deref() == Some("avs-alexa-na.amazon.com")));
    }

    #[test]
    fn literal_ip_peers_stay_unlabeled() {
        let flows = power_flows("Wansview Cam");
        let unlabeled: Vec<_> = flows
            .internet_flows()
            .filter(|f| f.domain_source == DomainSource::Unlabeled)
            .collect();
        assert!(
            !unlabeled.is_empty(),
            "Wansview's P2P peers have no DNS/SNI/Host evidence"
        );
    }

    #[test]
    fn dns_map_populated() {
        let flows = power_flows("Samsung TV");
        assert!(!flows.dns_map.is_empty());
        assert!(flows
            .dns_map
            .values()
            .any(|v| v.contains("samsungcloudsolution")));
    }

    #[test]
    fn internet_flows_exclude_dns_and_dhcp() {
        let flows = power_flows("TP-Link Plug");
        for f in flows.internet_flows() {
            assert!(!matches!(f.protocol, ProtocolId::Dns | ProtocolId::Dhcp));
        }
        // DNS to the gateway resolver and DHCP are LAN-internal, so they
        // never appear as Internet flows at all — but their *evidence* was
        // harvested into the DNS map.
        assert!(!flows.dns_map.is_empty());
    }

    #[test]
    fn http_flows_identified_with_host() {
        let flows = power_flows("Samsung Fridge");
        let http_flows: Vec<_> = flows
            .flows
            .iter()
            .filter(|f| f.protocol == ProtocolId::Http)
            .collect();
        assert!(!http_flows.is_empty());
        // Domain comes from DNS (which precedes), but must agree with the
        // fridge's checkin host.
        assert!(http_flows
            .iter()
            .any(|f| f.domain.as_deref().is_some_and(|d| d.contains("amazonaws"))));
    }
}
