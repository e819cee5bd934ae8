//! Flow reconstruction and domain labeling (§4.1).
//!
//! "For each flow from a device, we determine the SLD by first identifying
//! whether the destination IP address corresponds to a DNS response for a
//! request issued by the device. If so, we use the SLD for the
//! corresponding DNS lookup; otherwise, we search HTTP headers (Host
//! field) and/or TLS handshakes (Server Name Indication field) for the
//! domain. If none of the above approaches yields a domain, we leave the
//! IP's SLD unlabeled."
//!
//! A worker keeps one [`ExperimentFlows`] and rebuilds it in place for
//! every experiment ([`ExperimentFlows::rebuild`]): the flow table, its
//! flows' payload buffers, the labeled-flow list and the DNS map keep
//! their capacity, every protocol probe reads a borrowed view of the
//! payload, and DNS names decode into one reused buffer. Once the worker
//! has seen its largest experiment, reconstruction allocates only to
//! intern a name it has not seen before.

use iot_net::flow::{Flow, FlowProto, FlowTable};
use iot_net::packet::{ParsedPacket, TransportHeader};
use iot_protocols::analyzer::{identify_flow, ProtocolId, Transport};
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

    /// True unless the flow is DNS or DHCP: LAN-side infrastructure
    /// chatter, which the paper's destination and PII analyses ignore.
    pub fn is_internet(&self) -> bool {
        !matches!(self.protocol, ProtocolId::Dns | ProtocolId::Dhcp)
    }
}

/// Cross-experiment labeling state: the domain-name intern pool, one
/// `Arc<str>` per distinct name ever labeled. One per worker; it only
/// shares allocations, so results are identical with any pool.
///
/// Protocol identification and the SNI/Host fallback run afresh for
/// every flow: each flow opens with fresh random bytes (a ClientHello's
/// random, a nonce), so a cache keyed on payload prefixes never hits.
#[derive(Default)]
pub struct LabelCtx {
    domains: HashSet<Arc<str>>,
}

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

    /// The §4.1 SNI → HTTP-Host fallback on the outbound payload prefix.
    fn sni_or_host(&mut self, payload_out: &[u8]) -> (Option<Arc<str>>, DomainSource) {
        if let Some(sni) = tls::sni_from_stream(payload_out) {
            // Borrowed unless the name is not UTF-8.
            (Some(self.intern(&String::from_utf8_lossy(sni))), DomainSource::Sni)
        } else if let Some(host) = http::RequestView::parse(payload_out)
            .ok()
            .and_then(|r| r.host())
        {
            (Some(self.intern(host)), DomainSource::HttpHost)
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
    /// The flow table, kept for the next rebuild: its arrays, and every
    /// flow with its payload buffers, lent to `flows` meanwhile.
    table: FlowTable,
    /// The DNS name being decoded.
    name: String,
}

impl Default for ExperimentFlows {
    /// No flows, and nothing allocated but the flow table's first slots.
    fn default() -> Self {
        ExperimentFlows {
            flows: Vec::new(),
            dns_map: HashMap::new(),
            unparsed_packets: 0,
            table: FlowTable::new(Ipv4Addr::UNSPECIFIED, 0),
            name: String::new(),
        }
    }
}

impl ExperimentFlows {
    /// Reconstructs and labels the flows of an experiment with a fresh
    /// labeling context. Prefer [`ExperimentFlows::rebuild`] on hot
    /// paths, where one context's intern pool and one set of buffers
    /// serve every experiment.
    pub fn from_experiment(exp: &LabeledExperiment) -> Self {
        Self::from_experiment_with(exp, &mut LabelCtx::new())
    }

    /// Reconstructs and labels the flows of an experiment, reusing the
    /// caller's [`LabelCtx`]: [`ExperimentFlows::rebuild`] on fresh
    /// buffers.
    pub fn from_experiment_with(exp: &LabeledExperiment, ctx: &mut LabelCtx) -> Self {
        let mut flows = Self::default();
        flows.rebuild(exp, ctx);
        flows
    }

    /// Replaces these flows with `exp`'s, reconstructed and labeled in
    /// place. Results are identical with any context state and any
    /// earlier contents, including none.
    ///
    /// Walks the experiment's serialized capture with a zero-copy strict
    /// cursor, one borrowed [`iot_net::pcap::PacketView`] at a time, in
    /// §4.1's per-frame order: parse, skip non-IP frames, count damaged
    /// ones, harvest DNS answers, then update the flow table. Nothing
    /// keeps a reference to a frame; the flow table copies the payload
    /// prefixes it keeps into its own bounded buffers. Then every flow
    /// is closed and labeled. The previous experiment's flows go back to
    /// the table first, so their buffers serve this experiment's.
    pub fn rebuild(&mut self, exp: &LabeledExperiment, ctx: &mut LabelCtx) {
        let ExperimentFlows {
            flows,
            dns_map,
            unparsed_packets,
            table,
            name,
        } = self;
        for lf in flows.drain(..) {
            table.recycle(lf.flow);
        }
        table.reset(exp.site.subnet(), 24);
        dns_map.clear();
        *unparsed_packets = 0;
        for view in exp.capture.views() {
            let view = view.expect("experiment captures are writer-clean");
            let parsed = match ParsedPacket::parse(view.data) {
                Ok(p) => p,
                // Non-IP frames (ARP and friends) are normal gateway
                // chatter, not damage.
                Err(iot_net::Error::Unsupported { .. }) => continue,
                // Corrupt frame (truncated, length-inconsistent, or
                // checksum-garbled): skip it, as tcpdump would, but
                // count it so degraded captures are visible downstream.
                Err(_) => {
                    *unparsed_packets += 1;
                    continue;
                }
            };
            // Harvest DNS answers before flow accounting so lookups
            // precede the flows they label.
            if let TransportHeader::Udp(udp) = &parsed.transport {
                if udp.src_port == dns::PORT {
                    if let Ok(msg) = dns::MessageView::parse(parsed.payload) {
                        for (owner, addr) in msg.a_records() {
                            dns_map.insert(addr, ctx.intern(owner.decode_into(name)));
                        }
                    }
                }
            }
            table.observe(&parsed, view.ts_micros);
        }
        flows.extend(table.take_sorted().map(|flow| label_flow(flow, dns_map, ctx)));
    }

    /// Flows excluding the LAN-side infrastructure chatter (DNS to the
    /// gateway and DHCP), which the paper's destination analysis ignores.
    pub fn internet_flows(&self) -> impl Iterator<Item = &LabeledFlow> {
        self.flows.iter().filter(|f| f.is_internet())
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
    let protocol = identify_flow(
        transport,
        flow.key.remote_port,
        &flow.payload_out,
        &flow.payload_in,
    );
    // §4.1 label hierarchy: DNS first, then SNI / Host.
    let (domain, domain_source) = match dns_map.get(&flow.key.remote_ip) {
        Some(name) => (Some(Arc::clone(name)), DomainSource::Dns),
        None => ctx.sni_or_host(&flow.payload_out),
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
    use iot_testbed::schedule::{Campaign, CampaignConfig};
    use std::mem::size_of;

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

    /// The labeling context holds its intern pool and nothing else:
    /// after a whole work unit, dropping it frees no more than its names
    /// (one `Arc<str>` each: two counters and the bytes) and the set's
    /// table (at most two slots of a fat pointer and a control byte per
    /// unit of capacity, plus a control group and its padding).
    #[test]
    fn a_label_ctx_keeps_only_its_interned_names() {
        let db = GeoDb::new();
        // The quick grid; unit 0 is its first device in the US lab.
        let campaign = Campaign::new(CampaignConfig {
            automated_reps: 2,
            manual_reps: 1,
            power_reps: 1,
            idle_hours: 0.5,
            include_vpn: true,
        });
        let counting = iot_obs::alloc::counting(true);
        let mut ctx = LabelCtx::new();
        let mut flows = 0;
        campaign.lend_unit(&db, 0, |exp| {
            let labeled = ExperimentFlows::from_experiment_with(exp, &mut ctx);
            flows += labeled.flows.len();
        });
        let arc_counts = 2 * size_of::<usize>();
        let names: usize = ctx.domains.iter().map(|d| arc_counts + d.len()).sum();
        let table = 2 * ctx.domains.capacity() * (size_of::<Arc<str>>() + 1) + 32;
        let count = ctx.domains.len();
        let before = iot_obs::alloc::thread_snapshot();
        drop(ctx);
        let freed = iot_obs::alloc::thread_snapshot().since(&before).bytes_freed;
        drop(counting);
        assert!(flows > 100, "need a real unit: {flows} flows");
        assert!(
            freed <= (names + table) as u64,
            "dropping the context freed {freed} B; its {count} names take {names} B \
             and their table at most {table} B"
        );
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
