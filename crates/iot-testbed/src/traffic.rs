//! Protocol-faithful traffic generation.
//!
//! Turns a device model plus an interaction into the frames the gateway
//! would capture: DHCP association, DNS lookups, TCP handshakes, TLS
//! ClientHello/ServerHello with real SNI, HTTP requests with real `Host`
//! headers (and the device's PII leaks where the paper found them), MQTT
//! sessions, QUIC initials, NTP noise, and proprietary binary channels
//! with entropy-calibrated payloads.

use crate::device::{
    ActivitySpec, DeviceSpec, Endpoint, EndpointProtocol, Flight, PayloadKind, PiiEncoding,
    PiiKind, PiiLeak, PiiTrigger,
};
use crate::lab::{DeviceInstance, LabSite};
use crate::util::{base64_encode, hex_encode, stable_seed};
use iot_entropy::generators;
use iot_geodb::geo::Region;
use iot_geodb::registry::GeoDb;
use iot_net::arp::{ArpOp, ArpPacket};
use iot_net::ethernet::{self, EtherType};
use iot_net::flow::Direction;
use iot_net::mac::MacAddr;
use iot_net::packet::PacketBuilder;
use iot_net::pcap::Capture;
use iot_net::tcp::{TcpFlags, TcpHeader};
use iot_net::udp::UdpHeader;
use iot_protocols::{dhcp, dns, http, mqtt, ntp, quic, tls};
use iot_core::rng::StdRng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The stable identifiers a device instance can leak (§6.1's "PII known").
#[derive(Debug, Clone)]
pub struct DeviceIdentity {
    /// Hardware address.
    pub mac: iot_net::mac::MacAddr,
    /// Vendor-assigned device id (UUID-like hex string).
    pub device_id: String,
    /// User-assigned name, e.g. `John Doe's Roku TV`.
    pub device_name: String,
    /// Coarse location string for the deployment site.
    pub location: String,
}

/// Computes the identity of a deployed device.
pub fn identity_of(instance: &DeviceInstance) -> DeviceIdentity {
    let spec = instance.spec();
    let seed = stable_seed(spec.name, instance.site as u64 + 101);
    DeviceIdentity {
        mac: instance.mac,
        device_id: format!("{:016x}{:08x}", seed, (seed >> 13) as u32),
        device_name: format!("John Doe's {}", spec.name),
        location: match instance.site {
            LabSite::Us => "Boston,MA,US".to_string(),
            LabSite::Uk => "London,ENG,GB".to_string(),
        },
    }
}

/// What is driving the current generation (selects applicable PII leaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerContext<'a> {
    /// Power-on handshake.
    Power,
    /// A named activity.
    Activity(&'a str),
    /// Idle background traffic (keepalives): no leaks fire.
    Background,
}

/// The flags of a segment that carries data.
const DATA: TcpFlags = TcpFlags(TcpFlags::PSH.0 | TcpFlags::ACK.0);

/// The TCP connection a flight's segments travel: the endpoint whose
/// [`ConnState`] numbers them, the remote address and the remote port.
#[derive(Clone, Copy)]
struct Link {
    endpoint: usize,
    remote: Ipv4Addr,
    port: u16,
}

/// Per-TCP-connection bookkeeping.
struct ConnState {
    src_port: u16,
    seq_out: u32,
    seq_in: u32,
    established: bool,
    app_started: bool,
}

/// Generates a device's traffic into an in-memory capture.
pub struct TrafficGenerator<'a> {
    db: &'a GeoDb,
    device: &'a DeviceInstance,
    /// Egress region in effect (native or VPN-swapped).
    pub egress: Region,
    identity: DeviceIdentity,
    /// The catalog id ([`DeviceSpec::id`]) the device's messages carry,
    /// and the two strings built on it, computed once.
    catalog_id: String,
    /// `<catalog id>/2.4`, every HTTP request's `User-Agent`.
    user_agent: String,
    /// `<catalog id>/telemetry`, every MQTT PUBLISH's topic.
    topic: String,
    rng: StdRng,
    now: u64,
    cap: Capture,
    /// Reused buffer every message is written into before the frame that
    /// carries it is written to `cap`.
    scratch: Vec<u8>,
    resolved: HashMap<&'static str, Ipv4Addr>,
    conns: HashMap<usize, ConnState>,
    next_port: u16,
    dns_id: u16,
}

/// The gateway's LAN-side address offset within the lab subnet.
const GATEWAY_HOST: u8 = 1;

impl<'a> TrafficGenerator<'a> {
    /// Creates a generator positioned at `start_micros`.
    pub fn new(
        db: &'a GeoDb,
        device: &'a DeviceInstance,
        vpn: bool,
        seed: u64,
        start_micros: u64,
    ) -> Self {
        Self::writing_into(db, device, vpn, seed, start_micros, Capture::new())
    }

    /// [`TrafficGenerator::new`] writing into `cap`, emptied first: a
    /// buffer lent from capture to capture keeps its capacity, so the
    /// capture does not regrow from empty. [`TrafficGenerator::finish`]
    /// hands it back.
    pub(crate) fn writing_into(
        db: &'a GeoDb,
        device: &'a DeviceInstance,
        vpn: bool,
        seed: u64,
        start_micros: u64,
        mut cap: Capture,
    ) -> Self {
        cap.clear();
        let egress = device.site.egress(vpn);
        let catalog_id = device.spec().id();
        TrafficGenerator {
            db,
            device,
            egress,
            identity: identity_of(device),
            user_agent: format!("{catalog_id}/2.4"),
            topic: format!("{catalog_id}/telemetry"),
            catalog_id,
            rng: StdRng::seed_from_u64(seed),
            now: start_micros,
            cap,
            scratch: Vec::new(),
            resolved: HashMap::new(),
            conns: HashMap::new(),
            next_port: 40000,
            dns_id: (seed & 0xffff) as u16,
        }
    }

    /// Consumes the generator, returning the capture ordered by time.
    pub fn finish(self) -> Capture {
        self.cap
    }

    /// Writes one UDP frame from `b` straight into the capture.
    fn send_udp(
        &mut self,
        b: &mut PacketBuilder,
        ts: u64,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        b.write_udp(
            &mut self.cap,
            ts,
            &UdpHeader { src_port, dst_port },
            payload,
        )
        .expect("generated timestamps fit the pcap format");
    }

    /// Takes the reused scratch buffer, emptied, to write a message in.
    /// Put it back in `self.scratch` once the frames carrying it are
    /// written, so its allocation serves the next message.
    fn take_scratch(&mut self) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf
    }

    /// Current simulated time (µs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock by `ms` milliseconds (quiet gap).
    pub fn advance_ms(&mut self, ms: f64) {
        self.now += (ms * 1000.0) as u64;
    }

    fn spec(&self) -> &'static DeviceSpec {
        self.device.spec()
    }

    fn gateway_ip(&self) -> Ipv4Addr {
        let o = self.device.site.subnet().octets();
        Ipv4Addr::new(o[0], o[1], o[2], GATEWAY_HOST)
    }

    fn tick(&mut self, iat_ms: (f64, f64)) -> u64 {
        let gap = self.rng.gen_range(iat_ms.0..=iat_ms.1.max(iat_ms.0 + 1e-9));
        self.now += (gap * 1000.0) as u64;
        self.now
    }

    fn take_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(40000);
        p
    }

    /// True when the endpoint is used under the current egress.
    pub fn endpoint_active(&self, endpoint: &Endpoint) -> bool {
        endpoint.egress_filter.is_none_or(|r| r == self.egress)
    }

    /// Resolves an endpoint to a remote address, emitting DNS traffic for
    /// named hosts on first use.
    fn endpoint_addr(&mut self, idx: usize) -> Ipv4Addr {
        let endpoint = &self.spec().endpoints[idx];
        if endpoint.host.is_empty() {
            // Literal-IP peer: vary host per (device, endpoint) but keep it
            // stable within a run.
            let org = endpoint.ip_org.expect("ip endpoint needs org");
            let salt = stable_seed(self.spec().name, idx as u64 ^ self.rng.gen_range(0..64));
            return self
                .db
                .host_in_org(org, self.egress, salt)
                .expect("ip_org resolvable");
        }
        if let Some(&ip) = self.resolved.get(endpoint.host) {
            return ip;
        }
        let ip = self
            .db
            .resolve(endpoint.host, self.egress)
            .expect("catalog hosts resolve");
        self.emit_dns(endpoint.host, ip);
        self.resolved.insert(endpoint.host, ip);
        ip
    }

    fn emit_dns(&mut self, host: &str, answer: Ipv4Addr) {
        self.dns_id = self.dns_id.wrapping_add(1);
        let gw = self.gateway_ip();
        let sport = self.take_port();
        let t1 = self.tick((1.0, 5.0));
        let mut message = self.take_scratch();
        dns::write_query(&mut message, self.dns_id, host);
        let mut out_b = self.device.builder_out(gw);
        self.send_udp(&mut out_b, t1, sport, dns::PORT, &message);
        let t2 = self.tick((5.0, 40.0));
        message.clear();
        dns::write_answer(&mut message, self.dns_id, host, &[answer], 300);
        let mut in_b = self.device.builder_in(gw);
        self.send_udp(&mut in_b, t2, dns::PORT, sport, &message);
        self.scratch = message;
    }

    /// Emits a DHCP DISCOVER/REQUEST/ACK association (Wi-Fi reconnect).
    pub fn dhcp_handshake(&mut self) {
        let xid: u32 = self.rng.gen();
        let gw = self.gateway_ip();
        let mac = self.device.mac;
        let ip = self.device.ip;
        let mut out_b = self.device.builder_out(gw);
        let mut in_b = self.device.builder_in(gw);
        let mut message = self.take_scratch();
        for (msg, iat) in [
            (dhcp::DhcpMessage::discover(xid, mac), (1.0, 10.0)),
            (dhcp::DhcpMessage::request(xid, mac, ip), (5.0, 30.0)),
            (dhcp::DhcpMessage::ack(xid, mac, ip), (2.0, 15.0)),
        ] {
            let ts = self.tick(iat);
            message.clear();
            msg.encode(&mut message);
            let (b, ports) = match msg.mtype {
                dhcp::MessageType::Ack => (&mut in_b, (dhcp::SERVER_PORT, dhcp::CLIENT_PORT)),
                _ => (&mut out_b, (dhcp::CLIENT_PORT, dhcp::SERVER_PORT)),
            };
            self.send_udp(b, ts, ports.0, ports.1, &message);
        }
        self.scratch = message;
        // Post-lease ARP: a gratuitous announcement, then resolve the
        // gateway before the first IP packet — exactly what real captures
        // show after every (re)association.
        self.emit_arp(&ArpPacket::gratuitous(mac, ip));
        let who_has = ArpPacket::request(mac, ip, gw);
        self.emit_arp(&who_has);
        self.emit_arp(&ArpPacket::reply_to(&who_has, crate::lab::Lab::GATEWAY_MAC));
    }

    /// Writes one ARP frame from its sender's MAC: a request is
    /// broadcast, a reply goes to its target.
    fn emit_arp(&mut self, arp: &ArpPacket) {
        const LEN: usize = ethernet::HEADER_LEN + iot_net::arp::PACKET_LEN;
        let ts = self.tick((1.0, 8.0));
        let dst = match arp.op {
            ArpOp::Request => MacAddr::BROADCAST,
            ArpOp::Reply => arp.target_mac,
        };
        self.cap
            .write_record(ts, LEN as u32, LEN, |out| {
                ethernet::write_header(out, dst, arp.sender_mac, EtherType::Arp);
                out.extend_from_slice(&arp.encode());
            })
            .expect("generated timestamps fit the pcap format");
    }

    /// Emits one NTP request/response — the background noise of §6.1.
    /// Major platform vendors run their own (first-party) time service;
    /// everyone else queries the public pool, which is what keeps some
    /// devices first-party-only (the paper's 72/81 devices have at least
    /// one non-first-party destination — 9 do not).
    pub fn ntp_exchange(&mut self) {
        let host: &'static str = match self.spec().manufacturer_org {
            "Amazon" => "time.amazon.com",
            "Google" => "time.google.com",
            _ => "0.pool.ntp.org",
        };
        let server = self.db.resolve(host, self.egress).expect("ntp host resolves");
        if !self.resolved.contains_key(host) {
            self.emit_dns(host, server);
            self.resolved.insert(host, server);
        }
        let sport = self.take_port();
        let t1 = self.tick((1.0, 8.0));
        let mut out_b = self.device.builder_out(server);
        self.send_udp(
            &mut out_b,
            t1,
            sport,
            ntp::PORT,
            &ntp::NtpPacket::client(t1).encode(),
        );
        let t2 = self.tick((10.0, 80.0));
        let mut in_b = self.device.builder_in(server);
        self.send_udp(
            &mut in_b,
            t2,
            ntp::PORT,
            sport,
            &ntp::NtpPacket::server(t2).encode(),
        );
    }

    /// The full power-on sequence (§3.3 "power experiments"): DHCP, NTP,
    /// DNS + session establishment to the device's boot-time endpoints (the
    /// primary cloud, everything its power flights use, and any channel
    /// carrying a power-triggered leak), then the extra power flights.
    /// Activity-specific endpoints (video relays, voice backends, content
    /// CDNs) are only contacted by the interactions themselves, which is
    /// why the paper's Control rows exceed its Power rows (Table 2).
    pub fn power_on(&mut self) {
        self.dhcp_handshake();
        self.ntp_exchange();
        let spec = self.spec();
        let mut targets = std::collections::BTreeSet::new();
        targets.insert(0usize);
        for f in &spec.power_flights {
            targets.insert(f.endpoint);
        }
        for leak in &spec.pii_leaks {
            if matches!(leak.trigger, PiiTrigger::OnPower) {
                targets.insert(leak.endpoint);
            }
        }
        for idx in targets {
            if !self.endpoint_active(&self.spec().endpoints[idx]) {
                continue;
            }
            let hello = Flight {
                endpoint: idx,
                out_packets: (1, 3),
                out_size: (90, 260),
                in_packets: (1, 3),
                in_size: (80, 240),
                iat_ms: (10.0, 60.0),
                payload: default_payload(self.spec().endpoints[idx].protocol),
            };
            self.flight(&hello, TriggerContext::Power);
        }
        for f in &spec.power_flights {
            self.flight(f, TriggerContext::Power);
        }
    }

    /// Runs one scripted activity.
    pub fn activity(&mut self, activity: &ActivitySpec) {
        let name = activity.name;
        for f in &activity.flights {
            self.flight(f, TriggerContext::Activity(name));
        }
    }

    /// Runs a single keepalive exchange (idle background).
    pub fn keepalive(&mut self) {
        let idx = (0..self.spec().endpoints.len())
            .find(|&i| self.endpoint_active(&self.spec().endpoints[i]))
            .unwrap_or(0);
        let f = Flight {
            endpoint: idx,
            out_packets: (1, 2),
            out_size: (60, 140),
            in_packets: (1, 2),
            in_size: (60, 140),
            iat_ms: (20.0, 100.0),
            payload: default_payload(self.spec().endpoints[idx].protocol),
        };
        self.flight(&f, TriggerContext::Background);
    }

    /// Emits the packets of one flight.
    pub fn flight(&mut self, flight: &Flight, ctx: TriggerContext<'_>) {
        let endpoint = &self.spec().endpoints[flight.endpoint];
        if !self.endpoint_active(endpoint) {
            return;
        }
        let protocol = endpoint.protocol;
        let host = endpoint.host;
        let remote = self.endpoint_addr(flight.endpoint);
        let leak = self.applicable_leak(flight.endpoint, ctx);

        match protocol {
            EndpointProtocol::Tls => self.tls_flight(flight, remote, host),
            EndpointProtocol::Http => self.http_flight(flight, remote, host, leak),
            EndpointProtocol::Quic => self.quic_flight(flight, remote),
            EndpointProtocol::Mqtt => self.mqtt_flight(flight, remote, leak),
            EndpointProtocol::Ntp => self.ntp_exchange(),
            EndpointProtocol::ProprietaryTcp(port) => {
                self.raw_tcp_flight(flight, remote, port, leak)
            }
            EndpointProtocol::ProprietaryUdp(port) => {
                self.raw_udp_flight(flight, remote, port, leak)
            }
        }
    }

    fn applicable_leak(&self, endpoint: usize, ctx: TriggerContext<'_>) -> Option<&'a PiiLeak> {
        self.spec().pii_leaks.iter().find(|l| {
            l.endpoint == endpoint
                && l.site_filter.is_none_or(|s| s == self.device.site)
                && match (l.trigger, ctx) {
                    (PiiTrigger::OnPower, TriggerContext::Power) => true,
                    (PiiTrigger::OnActivity(a), TriggerContext::Activity(b)) => a == b,
                    _ => false,
                }
        })
    }

    /// Renders a leak as the text fragment embedded in a payload.
    fn leak_text(&self, leak: &PiiLeak) -> String {
        let raw = match leak.kind {
            PiiKind::MacAddress => self.identity.mac.to_string(),
            PiiKind::DeviceId => self.identity.device_id.clone(),
            PiiKind::Geolocation => self.identity.location.clone(),
            PiiKind::DeviceName => self.identity.device_name.clone(),
        };
        match leak.encoding {
            PiiEncoding::Plain => raw,
            PiiEncoding::Hex => match leak.kind {
                // MAC hex form drops the separators.
                PiiKind::MacAddress => self.identity.mac.to_bare_string(),
                _ => hex_encode(raw.as_bytes()),
            },
            PiiEncoding::Base64 => base64_encode(raw.as_bytes()),
        }
    }

    /// A `kind` payload of `len` bytes in the scratch buffer (see
    /// [`TrafficGenerator::take_scratch`]), prefixed with `id=<leak>;`
    /// when a proprietary channel carries `leak`.
    fn scratch_payload(
        &mut self,
        leak: Option<&PiiLeak>,
        kind: PayloadKind,
        len: usize,
    ) -> Vec<u8> {
        let mut buf = self.take_scratch();
        if let Some(l) = leak {
            for part in ["id=", &self.leak_text(l), ";"] {
                buf.extend_from_slice(part.as_bytes());
            }
        }
        write_payload(&mut self.rng, kind, len, &mut buf);
        buf
    }

    /// A TLS application-data record of `len` ciphertext bytes, header
    /// and fragment generated straight into the scratch buffer.
    fn app_data_record(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.take_scratch();
        tls::write_record_header(&mut buf, tls::ContentType::ApplicationData, len);
        generators::ciphertext_into(&mut self.rng, len, &mut buf);
        buf
    }

    /// A QUIC Initial datagram with `len` ciphertext bytes after its long
    /// header, generated straight into the scratch buffer.
    fn quic_initial(&mut self, dcid: &[u8], len: usize) -> Vec<u8> {
        let mut buf = self.take_scratch();
        quic::QuicLongHeader::write_initial_header(&mut buf, dcid);
        generators::ciphertext_into(&mut self.rng, len, &mut buf);
        buf
    }

    fn conn_entry(&mut self, endpoint: usize) -> (u16, bool) {
        if let Some(c) = self.conns.get(&endpoint) {
            (c.src_port, c.established)
        } else {
            let port = self.take_port();
            self.conns.insert(
                endpoint,
                ConnState {
                    src_port: port,
                    seq_out: self.rng.gen(),
                    seq_in: self.rng.gen(),
                    established: false,
                    app_started: false,
                },
            );
            (port, false)
        }
    }

    /// Writes one segment of `link`'s connection in direction `dir`,
    /// after a gap drawn from `iat`, and advances that direction's
    /// sequence number past it.
    fn segment(
        &mut self,
        link: Link,
        dir: Direction,
        flags: TcpFlags,
        payload: &[u8],
        iat: (f64, f64),
    ) {
        let ts = self.tick(iat);
        let c = self.conns.get_mut(&link.endpoint).expect("conn exists");
        let (mut builder, src_port, dst_port, seq, ack) = match dir {
            Direction::Outbound => (
                self.device.builder_out(link.remote),
                c.src_port,
                link.port,
                &mut c.seq_out,
                c.seq_in,
            ),
            Direction::Inbound => (
                self.device.builder_in(link.remote),
                link.port,
                c.src_port,
                &mut c.seq_in,
                c.seq_out,
            ),
        };
        let header = TcpHeader {
            src_port,
            dst_port,
            seq: *seq,
            ack,
            flags,
            window: 65535,
        };
        builder
            .write_tcp(&mut self.cap, ts, &header, payload)
            .expect("generated timestamps fit the pcap format");
        let syn_or_fin = flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::FIN);
        *seq = seq
            .wrapping_add(payload.len() as u32)
            .wrapping_add(u32::from(syn_or_fin));
    }

    fn ensure_tcp_established(&mut self, link: Link) {
        let (_, established) = self.conn_entry(link.endpoint);
        if established {
            return;
        }
        self.segment(link, Direction::Outbound, TcpFlags::SYN, &[], (1.0, 8.0));
        let syn_ack = TcpFlags::SYN | TcpFlags::ACK;
        self.segment(link, Direction::Inbound, syn_ack, &[], (10.0, 70.0));
        self.segment(link, Direction::Outbound, TcpFlags::ACK, &[], (0.5, 3.0));
        self.conns
            .get_mut(&link.endpoint)
            .expect("conn")
            .established = true;
    }

    fn tls_flight(&mut self, flight: &Flight, remote: Ipv4Addr, host: &str) {
        let link = Link {
            endpoint: flight.endpoint,
            remote,
            port: tls::PORT,
        };
        self.ensure_tcp_established(link);
        if !self.conns[&flight.endpoint].app_started {
            let mut random = [0u8; 32];
            self.rng.fill(&mut random);
            let mut hello = self.take_scratch();
            tls::write_client_hello(&mut hello, &random, host);
            self.segment(link, Direction::Outbound, DATA, &hello, (2.0, 10.0));
            self.rng.fill(&mut random);
            let cs = tls::DEFAULT_CIPHER_SUITES
                [self.rng.gen_range(0..tls::DEFAULT_CIPHER_SUITES.len())];
            hello.clear();
            tls::write_server_hello(&mut hello, &random, cs);
            self.segment(link, Direction::Inbound, DATA, &hello, (15.0, 90.0));
            self.scratch = hello;
            self.conns.get_mut(&flight.endpoint).expect("conn").app_started = true;
        }
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for _ in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let record = self.app_data_record(size);
            self.segment(link, Direction::Outbound, DATA, &record, flight.iat_ms);
            self.scratch = record;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let record = self.app_data_record(size);
            self.segment(link, Direction::Inbound, DATA, &record, flight.iat_ms);
            self.scratch = record;
        }
    }

    fn http_flight(
        &mut self,
        flight: &Flight,
        remote: Ipv4Addr,
        host: &str,
        leak: Option<&PiiLeak>,
    ) {
        let link = Link {
            endpoint: flight.endpoint,
            remote,
            port: http::PORT,
        };
        self.ensure_tcp_established(link);
        let body_size = self
            .rng
            .gen_range(flight.out_size.0..=flight.out_size.1)
            .max(32) as usize;
        // A leak rides in the query string and at the head of the body.
        let leak = leak.map(|l| {
            let param = match l.kind {
                PiiKind::MacAddress => "mac",
                PiiKind::DeviceId => "device_id",
                PiiKind::Geolocation => "loc",
                PiiKind::DeviceName => "name",
            };
            (param, self.leak_text(l))
        });
        let path = leak
            .as_ref()
            .map(|(param, text)| format!("/v1/checkin?{param}={}", text.replace(' ', "%20")));
        let prefix_len = leak
            .as_ref()
            .map_or(0, |(param, text)| param.len() + text.len() + 2);
        let mut request = self.take_scratch();
        http::write_request_head(
            &mut request,
            "POST",
            host,
            path.as_deref().unwrap_or("/v1/status"),
            &[("User-Agent", &self.user_agent)],
            Some(prefix_len + body_size),
        );
        if let Some((param, text)) = &leak {
            for part in [param, "=", text, "&"] {
                request.extend_from_slice(part.as_bytes());
            }
        }
        write_payload(&mut self.rng, flight.payload, body_size, &mut request);
        // The first segment carries the head and the start of the body;
        // the rest spills into further 1,200-byte segments.
        for chunk in request.chunks(1200) {
            self.segment(link, Direction::Outbound, DATA, chunk, flight.iat_ms);
        }
        self.scratch = request;
        // Extra outbound data packets (e.g. plaintext video frames).
        let extra = self
            .rng
            .gen_range(flight.out_packets.0..=flight.out_packets.1)
            .saturating_sub(1);
        for _ in 0..extra {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let bytes = self.scratch_payload(None, flight.payload, size);
            self.segment(link, Direction::Outbound, DATA, &bytes, flight.iat_ms);
            self.scratch = bytes;
        }
        // Response.
        let resp_size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
        let resp_kind = match flight.payload {
            PayloadKind::Markup => PayloadKind::Markup,
            _ => PayloadKind::Telemetry,
        };
        let mut response = self.take_scratch();
        let content_type = ("Content-Type", "application/octet-stream");
        http::write_response_head(&mut response, 200, "OK", resp_size, &[content_type]);
        write_payload(&mut self.rng, resp_kind, resp_size, &mut response);
        for chunk in response.chunks(1200) {
            self.segment(link, Direction::Inbound, DATA, chunk, flight.iat_ms);
        }
        self.scratch = response;
        let extra_in = self
            .rng
            .gen_range(flight.in_packets.0..=flight.in_packets.1)
            .saturating_sub(1);
        for _ in 0..extra_in {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let bytes = self.scratch_payload(None, resp_kind, size);
            self.segment(link, Direction::Inbound, DATA, &bytes, flight.iat_ms);
            self.scratch = bytes;
        }
    }

    fn quic_flight(&mut self, flight: &Flight, remote: Ipv4Addr) {
        let (sport, _) = self.conn_entry(flight.endpoint);
        let mut dcid = [0u8; 8];
        self.rng.fill(&mut dcid);
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1).max(1);
        for _ in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let datagram = self.quic_initial(&dcid, size);
            let ts = self.tick(flight.iat_ms);
            let mut b = self.device.builder_out(remote);
            self.send_udp(&mut b, ts, sport, quic::PORT, &datagram);
            self.scratch = datagram;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let datagram = self.quic_initial(&dcid, size);
            let ts = self.tick(flight.iat_ms);
            let mut b = self.device.builder_in(remote);
            self.send_udp(&mut b, ts, quic::PORT, sport, &datagram);
            self.scratch = datagram;
        }
    }

    fn mqtt_flight(&mut self, flight: &Flight, remote: Ipv4Addr, leak: Option<&PiiLeak>) {
        let link = Link {
            endpoint: flight.endpoint,
            remote,
            port: mqtt::PORT,
        };
        self.ensure_tcp_established(link);
        let leak = leak.map(|l| self.leak_text(l));
        if !self.conns[&flight.endpoint].app_started {
            let client_id = match &leak {
                Some(text) => format!("{}-{text}", self.catalog_id),
                None => format!("{}-{:08x}", self.catalog_id, self.rng.gen::<u32>()),
            };
            let mut connect = self.take_scratch();
            mqtt::write_connect(&mut connect, &client_id);
            self.segment(link, Direction::Outbound, DATA, &connect, (2.0, 12.0));
            self.scratch = connect;
            self.segment(link, Direction::Inbound, DATA, &mqtt::CONNACK, (10.0, 60.0));
            self.conns.get_mut(&flight.endpoint).expect("conn").app_started = true;
        }
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for i in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            // The first PUBLISH carries a leak as `<text>;` before its payload.
            let prefix = leak.as_deref().filter(|_| i == 0);
            let prefix_len = prefix.map_or(0, |text| text.len() + 1);
            let mut publish = self.take_scratch();
            mqtt::write_publish_head(&mut publish, &self.topic, prefix_len + size);
            if let Some(text) = prefix {
                publish.extend_from_slice(text.as_bytes());
                publish.push(b';');
            }
            write_payload(&mut self.rng, flight.payload, size, &mut publish);
            self.segment(link, Direction::Outbound, DATA, &publish, flight.iat_ms);
            self.scratch = publish;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let pong = mqtt::PINGRESP;
            self.segment(link, Direction::Inbound, DATA, &pong, flight.iat_ms);
        }
    }

    fn raw_tcp_flight(
        &mut self,
        flight: &Flight,
        remote: Ipv4Addr,
        port: u16,
        leak: Option<&PiiLeak>,
    ) {
        let link = Link {
            endpoint: flight.endpoint,
            remote,
            port,
        };
        self.ensure_tcp_established(link);
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for i in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let payload = self.scratch_payload(leak.filter(|_| i == 0), flight.payload, size);
            self.segment(link, Direction::Outbound, DATA, &payload, flight.iat_ms);
            self.scratch = payload;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let payload = self.scratch_payload(None, flight.payload, size);
            self.segment(link, Direction::Inbound, DATA, &payload, flight.iat_ms);
            self.scratch = payload;
        }
    }

    fn raw_udp_flight(
        &mut self,
        flight: &Flight,
        remote: Ipv4Addr,
        port: u16,
        leak: Option<&PiiLeak>,
    ) {
        let (sport, _) = self.conn_entry(flight.endpoint);
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for i in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let payload = self.scratch_payload(leak.filter(|_| i == 0), flight.payload, size);
            let ts = self.tick(flight.iat_ms);
            let mut b = self.device.builder_out(remote);
            self.send_udp(&mut b, ts, sport, port, &payload);
            self.scratch = payload;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let payload = self.scratch_payload(None, flight.payload, size);
            let ts = self.tick(flight.iat_ms);
            let mut b = self.device.builder_in(remote);
            self.send_udp(&mut b, ts, port, sport, &payload);
            self.scratch = payload;
        }
    }
}

/// Default hello payload per endpoint protocol.
fn default_payload(protocol: EndpointProtocol) -> PayloadKind {
    match protocol {
        EndpointProtocol::Tls | EndpointProtocol::Quic => PayloadKind::Ciphertext,
        EndpointProtocol::Http => PayloadKind::Telemetry,
        EndpointProtocol::Mqtt => PayloadKind::Telemetry,
        EndpointProtocol::Ntp => PayloadKind::Telemetry,
        EndpointProtocol::ProprietaryTcp(_) | EndpointProtocol::ProprietaryUdp(_) => {
            PayloadKind::MixedProprietary
        }
    }
}

/// Appends a `kind` payload of `len` bytes to `out`.
fn write_payload(rng: &mut StdRng, kind: PayloadKind, len: usize, out: &mut Vec<u8>) {
    match kind {
        PayloadKind::Ciphertext => generators::ciphertext_into(rng, len, out),
        PayloadKind::EncodedCiphertext => generators::fernet_like_into(rng, len, out),
        PayloadKind::Telemetry => {
            generators::text_like_into(rng, len, generators::TextStyle::Telemetry, out)
        }
        PayloadKind::Markup => {
            generators::text_like_into(rng, len, generators::TextStyle::WebPage, out)
        }
        PayloadKind::Media => generators::media_like_into(rng, len, out),
        PayloadKind::MediaJpeg => {
            out.extend_from_slice(&[0xff, 0xd8, 0xff, 0xe0]);
            generators::media_like_into(rng, len.saturating_sub(4), out);
        }
        PayloadKind::MixedProprietary => {
            // Half structured telemetry, half ciphertext: entropy lands
            // in the undetermined band, like the paper's partly
            // encrypted vendor protocols.
            let half = len / 2;
            generators::text_like_into(rng, half, generators::TextStyle::Telemetry, out);
            generators::ciphertext_into(rng, len - half, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::{Lab, LabSite};
    use iot_net::flow::FlowTable;
    use iot_net::packet::Packet;
    use iot_protocols::analyzer::{identify_flow, ProtocolId, Transport};

    fn setup() -> (GeoDb, Lab) {
        (GeoDb::new(), Lab::deploy(LabSite::Us))
    }

    fn flows_of(packets: &[Packet], site: LabSite) -> Vec<iot_net::flow::Flow> {
        let mut table = FlowTable::new(site.subnet(), 24);
        for p in packets {
            match p.parse_frame().expect("generated packets parse") {
                iot_net::packet::Frame::Ip(parsed) => {
                    table.observe(&parsed, p.ts_micros);
                }
                iot_net::packet::Frame::Arp(_) => {} // LAN-internal
            }
        }
        table.into_flows()
    }

    #[test]
    fn power_on_produces_valid_parseable_packets() {
        let (db, lab) = setup();
        let dev = lab.device("Echo Dot").unwrap();
        let mut g = TrafficGenerator::new(&db, dev, false, 1, 1_000_000);
        g.power_on();
        let packets = g.finish().to_packets();
        assert!(packets.len() > 10);
        for p in &packets {
            p.parse_frame().expect("every generated frame parses");
        }
        // Timestamps are monotone.
        for w in packets.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
    }

    #[test]
    fn tls_endpoint_flow_identified_with_sni() {
        let (db, lab) = setup();
        let dev = lab.device("Echo Dot").unwrap();
        let mut g = TrafficGenerator::new(&db, dev, false, 2, 0);
        g.power_on();
        let packets = g.finish().to_packets();
        let flows = flows_of(&packets, LabSite::Us);
        let tls_flows: Vec<_> = flows
            .iter()
            .filter(|f| {
                identify_flow(
                    Transport::Tcp,
                    f.key.remote_port,
                    &f.payload_out,
                    &f.payload_in,
                ) == ProtocolId::Tls
            })
            .collect();
        assert!(!tls_flows.is_empty(), "expected TLS flows");
        let snis: Vec<_> = tls_flows
            .iter()
            .filter_map(|f| iot_protocols::tls::sni_from_stream(&f.payload_out))
            .collect();
        assert!(
            snis.iter().any(|s| s == b"avs-alexa-na.amazon.com"),
            "SNI should expose the Alexa endpoint, got {snis:?}"
        );
    }

    #[test]
    fn dns_precedes_connection() {
        let (db, lab) = setup();
        let dev = lab.device("Samsung TV").unwrap();
        let mut g = TrafficGenerator::new(&db, dev, false, 3, 0);
        g.power_on();
        let packets = g.finish().to_packets();
        let mut saw_dns_to = std::collections::HashSet::new();
        for p in &packets {
            let iot_net::packet::Frame::Ip(parsed) = p.parse_frame().unwrap() else {
                continue;
            };
            if parsed.transport.dst_port() == Some(53) {
                let msg = iot_protocols::dns::MessageView::parse(parsed.payload).unwrap();
                let (name, _) = msg.questions().next().unwrap();
                saw_dns_to.insert(name.decode_into(&mut String::new()).to_string());
            }
        }
        assert!(saw_dns_to.iter().any(|d| d.contains("samsung")));
    }

    #[test]
    fn pii_leak_observable_in_plaintext() {
        let (db, lab) = setup();
        let dev = lab.device("Samsung Fridge").unwrap();
        let identity = identity_of(dev);
        let mut g = TrafficGenerator::new(&db, dev, false, 4, 0);
        g.power_on();
        let packets = g.finish().to_packets();
        let flows = flows_of(&packets, LabSite::Us);
        let found = flows.iter().any(|f| {
            http::find_subsequence(&f.payload_out, identity.mac.to_string().as_bytes()).is_some()
        });
        assert!(found, "fridge MAC must appear in plaintext HTTP");
    }

    #[test]
    fn uk_only_leak_respects_site_filter() {
        let db = GeoDb::new();
        for (site, expect) in [(LabSite::Us, false), (LabSite::Uk, true)] {
            let lab = Lab::deploy(site);
            let dev = lab.device("Insteon Hub").unwrap();
            let identity = identity_of(dev);
            let mut g = TrafficGenerator::new(&db, dev, false, 5, 0);
            g.power_on();
            let packets = g.finish().to_packets();
            let flows = flows_of(&packets, site);
            let found = flows.iter().any(|f| {
                http::find_subsequence(&f.payload_out, identity.mac.to_string().as_bytes())
                    .is_some()
            });
            assert_eq!(found, expect, "site {site:?}");
        }
    }

    #[test]
    fn egress_filter_changes_destinations() {
        let (db, lab) = setup();
        let dev = lab.device("Fire TV").unwrap();
        let collect_orgs = |vpn: bool| -> Vec<String> {
            let mut g = TrafficGenerator::new(&db, dev, vpn, 6, 0);
            g.power_on();
            let packets = g.finish().to_packets();
            let mut orgs: Vec<String> = flows_of(&packets, LabSite::Us)
                .iter()
                .filter_map(|f| db.whois_ip(f.key.remote_ip).map(|(o, _, _)| o.name.to_string()))
                .collect();
            orgs.sort();
            orgs.dedup();
            orgs
        };
        let native = collect_orgs(false);
        let vpn = collect_orgs(true);
        assert!(
            native.contains(&"Branch Metrics".to_string()),
            "US egress contacts branch.io: {native:?}"
        );
        assert!(
            !vpn.contains(&"Branch Metrics".to_string()),
            "VPN egress must drop branch.io: {vpn:?}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let (db, lab) = setup();
        let dev = lab.device("Yi Cam").unwrap();
        let run = || {
            let mut g = TrafficGenerator::new(&db, dev, false, 7, 500);
            g.power_on();
            let act = dev.spec().activity("move").unwrap().clone();
            g.activity(&act);
            g.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn video_activity_dwarfs_actuation() {
        let (db, lab) = setup();
        let cam = lab.device("Wansview Cam").unwrap();
        let plug = lab.device("TP-Link Plug").unwrap();
        let bytes_of = |dev: &DeviceInstance, act: &str| {
            let mut g = TrafficGenerator::new(&db, dev, false, 8, 0);
            let a = dev.spec().activity(act).unwrap().clone();
            g.activity(&a);
            g.finish().frame_bytes()
        };
        let video = bytes_of(cam, "watch");
        let toggle = bytes_of(plug, "on");
        assert!(
            video > toggle * 10,
            "video {video} should dwarf actuation {toggle}"
        );
    }

    #[test]
    fn ntp_and_dhcp_recognizable() {
        let (db, lab) = setup();
        let dev = lab.device("WeMo Plug").unwrap();
        let mut g = TrafficGenerator::new(&db, dev, false, 9, 0);
        g.dhcp_handshake();
        g.ntp_exchange();
        let packets = g.finish().to_packets();
        let mut saw = std::collections::HashSet::new();
        for p in &packets {
            let iot_net::packet::Frame::Ip(parsed) = p.parse_frame().unwrap() else {
                saw.insert("arp");
                continue;
            };
            if let Some(port) = parsed.transport.dst_port() {
                match port {
                    67 | 68 => {
                        iot_protocols::dhcp::DhcpMessage::parse(parsed.payload).unwrap();
                        saw.insert("dhcp");
                    }
                    123 => {
                        iot_protocols::ntp::NtpPacket::parse(parsed.payload).unwrap();
                        saw.insert("ntp");
                    }
                    _ => {}
                }
            }
        }
        assert!(saw.contains("dhcp") && saw.contains("ntp") && saw.contains("arp"));
    }
}
