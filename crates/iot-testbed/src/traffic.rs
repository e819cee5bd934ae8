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
    rng: StdRng,
    now: u64,
    cap: Capture,
    /// Reused buffer the hot payloads are generated into before their
    /// frame is written to `cap`.
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
        TrafficGenerator {
            db,
            device,
            egress,
            identity: identity_of(device),
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

    /// Takes the reused scratch buffer, emptied, to build a payload in.
    /// Put it back in `self.scratch` once the frame carrying it is
    /// written, so its allocation serves the next payload.
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
        let query = dns::Message::query(self.dns_id, host);
        let response = dns::Message::answer(&query, &[answer], 300);
        let gw = self.gateway_ip();
        let sport = self.take_port();
        let t1 = self.tick((1.0, 5.0));
        let mut out_b = self.device.builder_out(gw);
        self.send_udp(&mut out_b, t1, sport, dns::PORT, &query.encode());
        let t2 = self.tick((5.0, 40.0));
        let mut in_b = self.device.builder_in(gw);
        self.send_udp(&mut in_b, t2, dns::PORT, sport, &response.encode());
    }

    /// Emits a DHCP DISCOVER/REQUEST/ACK association (Wi-Fi reconnect).
    pub fn dhcp_handshake(&mut self) {
        let xid: u32 = self.rng.gen();
        let gw = self.gateway_ip();
        let mac = self.device.mac;
        let ip = self.device.ip;
        let t1 = self.tick((1.0, 10.0));
        let mut out_b = self.device.builder_out(gw);
        self.send_udp(
            &mut out_b,
            t1,
            dhcp::CLIENT_PORT,
            dhcp::SERVER_PORT,
            &dhcp::DhcpMessage::discover(xid, mac).encode(),
        );
        let t2 = self.tick((5.0, 30.0));
        self.send_udp(
            &mut out_b,
            t2,
            dhcp::CLIENT_PORT,
            dhcp::SERVER_PORT,
            &dhcp::DhcpMessage::request(xid, mac, ip).encode(),
        );
        let t3 = self.tick((2.0, 15.0));
        let mut in_b = self.device.builder_in(gw);
        self.send_udp(
            &mut in_b,
            t3,
            dhcp::SERVER_PORT,
            dhcp::CLIENT_PORT,
            &dhcp::DhcpMessage::ack(xid, mac, ip).encode(),
        );
        // Post-lease ARP: a gratuitous announcement, then resolve the
        // gateway before the first IP packet — exactly what real captures
        // show after every (re)association.
        self.emit_arp(
            iot_net::arp::ArpPacket::gratuitous(mac, ip),
            iot_net::mac::MacAddr::BROADCAST,
        );
        let who_has = iot_net::arp::ArpPacket::request(mac, ip, gw);
        self.emit_arp(who_has.clone(), iot_net::mac::MacAddr::BROADCAST);
        let reply = iot_net::arp::ArpPacket::reply_to(&who_has, crate::lab::Lab::GATEWAY_MAC);
        self.emit_arp_from_gateway(reply);
    }

    fn emit_arp(&mut self, arp: iot_net::arp::ArpPacket, dst: iot_net::mac::MacAddr) {
        let ts = self.tick((1.0, 8.0));
        let frame = iot_net::ethernet::EthernetFrame {
            dst,
            src: self.device.mac,
            ethertype: iot_net::ethernet::EtherType::Arp,
            payload: &arp.encode(),
        };
        self.cap
            .push(ts, &frame.encode())
            .expect("generated timestamps fit the pcap format");
    }

    fn emit_arp_from_gateway(&mut self, arp: iot_net::arp::ArpPacket) {
        let ts = self.tick((1.0, 8.0));
        let frame = iot_net::ethernet::EthernetFrame {
            dst: self.device.mac,
            src: crate::lab::Lab::GATEWAY_MAC,
            ethertype: iot_net::ethernet::EtherType::Arp,
            payload: &arp.encode(),
        };
        self.cap
            .push(ts, &frame.encode())
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
        let flights = self.spec().power_flights.clone();
        for f in &flights {
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

    /// A `kind` payload of `len` bytes in a buffer of its own, for the
    /// protocol messages that take ownership of their body.
    fn payload_bytes(&mut self, kind: PayloadKind, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        write_payload(&mut self.rng, kind, len, &mut out);
        out
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
            buf.extend_from_slice(format!("id={};", self.leak_text(l)).as_bytes());
        }
        write_payload(&mut self.rng, kind, len, &mut buf);
        buf
    }

    /// A TLS application-data record of `len` ciphertext bytes, header
    /// and fragment generated straight into the scratch buffer.
    fn application_data(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.take_scratch();
        tls::Record::write_header(
            &mut buf,
            tls::ContentType::ApplicationData,
            tls::VERSION_TLS12,
            len,
        );
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

    fn tcp_out(&mut self, endpoint: usize, remote: Ipv4Addr, port: u16, flags: TcpFlags, payload: &[u8], iat: (f64, f64)) {
        let ts = self.tick(iat);
        let (src_port, seq_out, seq_in) = {
            let c = self.conns.get(&endpoint).expect("conn exists");
            (c.src_port, c.seq_out, c.seq_in)
        };
        let header = TcpHeader {
            src_port,
            dst_port: port,
            seq: seq_out,
            ack: seq_in,
            flags,
            window: 65535,
        };
        self.device
            .builder_out(remote)
            .write_tcp(&mut self.cap, ts, &header, payload)
            .expect("generated timestamps fit the pcap format");
        let c = self.conns.get_mut(&endpoint).expect("conn exists");
        c.seq_out = seq_out.wrapping_add(payload.len() as u32).wrapping_add(u32::from(
            flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::FIN),
        ));
    }

    fn tcp_in(&mut self, endpoint: usize, remote: Ipv4Addr, port: u16, flags: TcpFlags, payload: &[u8], iat: (f64, f64)) {
        let ts = self.tick(iat);
        let (src_port, seq_out, seq_in) = {
            let c = self.conns.get(&endpoint).expect("conn exists");
            (c.src_port, c.seq_out, c.seq_in)
        };
        let header = TcpHeader {
            src_port: port,
            dst_port: src_port,
            seq: seq_in,
            ack: seq_out,
            flags,
            window: 65535,
        };
        self.device
            .builder_in(remote)
            .write_tcp(&mut self.cap, ts, &header, payload)
            .expect("generated timestamps fit the pcap format");
        let c = self.conns.get_mut(&endpoint).expect("conn exists");
        c.seq_in = seq_in.wrapping_add(payload.len() as u32).wrapping_add(u32::from(
            flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::FIN),
        ));
    }

    fn ensure_tcp_established(&mut self, endpoint: usize, remote: Ipv4Addr, port: u16) {
        let (_, established) = self.conn_entry(endpoint);
        if established {
            return;
        }
        self.tcp_out(endpoint, remote, port, TcpFlags::SYN, &[], (1.0, 8.0));
        self.tcp_in(
            endpoint,
            remote,
            port,
            TcpFlags::SYN | TcpFlags::ACK,
            &[],
            (10.0, 70.0),
        );
        self.tcp_out(endpoint, remote, port, TcpFlags::ACK, &[], (0.5, 3.0));
        self.conns.get_mut(&endpoint).expect("conn").established = true;
    }

    fn tls_flight(&mut self, flight: &Flight, remote: Ipv4Addr, host: &str) {
        self.ensure_tcp_established(flight.endpoint, remote, tls::PORT);
        let need_handshake = !self.conns[&flight.endpoint].app_started;
        if need_handshake {
            let mut random = [0u8; 32];
            self.rng.fill(&mut random);
            let hello = tls::ClientHello::new(random, host).to_record().encode();
            self.tcp_out(
                flight.endpoint,
                remote,
                tls::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &hello,
                (2.0, 10.0),
            );
            let mut server_random = [0u8; 32];
            self.rng.fill(&mut server_random);
            let cs = tls::DEFAULT_CIPHER_SUITES
                [self.rng.gen_range(0..tls::DEFAULT_CIPHER_SUITES.len())];
            let reply = tls::server_hello(server_random, cs);
            self.tcp_in(
                flight.endpoint,
                remote,
                tls::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &reply,
                (15.0, 90.0),
            );
            self.conns.get_mut(&flight.endpoint).expect("conn").app_started = true;
        }
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for _ in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let record = self.application_data(size);
            self.tcp_out(
                flight.endpoint,
                remote,
                tls::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &record,
                flight.iat_ms,
            );
            self.scratch = record;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let record = self.application_data(size);
            self.tcp_in(
                flight.endpoint,
                remote,
                tls::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &record,
                flight.iat_ms,
            );
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
        self.ensure_tcp_established(flight.endpoint, remote, http::PORT);
        let body_size = self
            .rng
            .gen_range(flight.out_size.0..=flight.out_size.1)
            .max(32) as usize;
        let mut body = self.payload_bytes(flight.payload, body_size);
        let path = match leak {
            Some(l) => {
                let param = match l.kind {
                    PiiKind::MacAddress => "mac",
                    PiiKind::DeviceId => "device_id",
                    PiiKind::Geolocation => "loc",
                    PiiKind::DeviceName => "name",
                };
                let text = self.leak_text(l);
                let mut prefix = format!("{param}={text}&").into_bytes();
                prefix.append(&mut body);
                body = prefix;
                format!("/v1/checkin?{param}={}", self.leak_text(l).replace(' ', "%20"))
            }
            None => "/v1/status".to_string(),
        };
        let request = http::Request::new("POST", host, &path)
            .header("User-Agent", &format!("{}/2.4", self.spec().id()))
            .body(body)
            .encode();
        // First packet carries headers + start of body; spill the rest.
        let first_len = request.len().min(1200);
        let (first, rest) = request.split_at(first_len);
        self.tcp_out(
            flight.endpoint,
            remote,
            http::PORT,
            TcpFlags::PSH | TcpFlags::ACK,
            first,
            flight.iat_ms,
        );
        for chunk in rest.chunks(1200) {
            self.tcp_out(
                flight.endpoint,
                remote,
                http::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                chunk,
                flight.iat_ms,
            );
        }
        // Extra outbound data packets (e.g. plaintext video frames).
        let extra = self
            .rng
            .gen_range(flight.out_packets.0..=flight.out_packets.1)
            .saturating_sub(1);
        for _ in 0..extra {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let bytes = self.scratch_payload(None, flight.payload, size);
            self.tcp_out(
                flight.endpoint,
                remote,
                http::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &bytes,
                flight.iat_ms,
            );
            self.scratch = bytes;
        }
        // Response.
        let resp_size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
        let resp_kind = match flight.payload {
            PayloadKind::Markup => PayloadKind::Markup,
            _ => PayloadKind::Telemetry,
        };
        let resp_body = self.payload_bytes(resp_kind, resp_size);
        let response = http::Response::new(200, "OK", resp_body)
            .header("Content-Type", "application/octet-stream")
            .encode();
        for chunk in response.chunks(1200) {
            self.tcp_in(
                flight.endpoint,
                remote,
                http::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                chunk,
                flight.iat_ms,
            );
        }
        let extra_in = self
            .rng
            .gen_range(flight.in_packets.0..=flight.in_packets.1)
            .saturating_sub(1);
        for _ in 0..extra_in {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let bytes = self.scratch_payload(None, resp_kind, size);
            self.tcp_in(
                flight.endpoint,
                remote,
                http::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &bytes,
                flight.iat_ms,
            );
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
        self.ensure_tcp_established(flight.endpoint, remote, mqtt::PORT);
        if !self.conns[&flight.endpoint].app_started {
            let client_id = match leak {
                Some(l) => format!("{}-{}", self.spec().id(), self.leak_text(l)),
                None => format!("{}-{:08x}", self.spec().id(), self.rng.gen::<u32>()),
            };
            let connect = mqtt::MqttPacket::Connect { client_id }.encode();
            self.tcp_out(
                flight.endpoint,
                remote,
                mqtt::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &connect,
                (2.0, 12.0),
            );
            let connack = mqtt::MqttPacket::ConnAck.encode();
            self.tcp_in(
                flight.endpoint,
                remote,
                mqtt::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &connack,
                (10.0, 60.0),
            );
            self.conns.get_mut(&flight.endpoint).expect("conn").app_started = true;
        }
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for i in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let mut payload = self.payload_bytes(flight.payload, size);
            if i == 0 {
                if let Some(l) = leak {
                    let mut prefix = self.leak_text(l).into_bytes();
                    prefix.push(b';');
                    prefix.append(&mut payload);
                    payload = prefix;
                }
            }
            let publish = mqtt::MqttPacket::Publish {
                topic: format!("{}/telemetry", self.spec().id()),
                payload,
            }
            .encode();
            self.tcp_out(
                flight.endpoint,
                remote,
                mqtt::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &publish,
                flight.iat_ms,
            );
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let pong = mqtt::MqttPacket::PingResp.encode();
            self.tcp_in(
                flight.endpoint,
                remote,
                mqtt::PORT,
                TcpFlags::PSH | TcpFlags::ACK,
                &pong,
                flight.iat_ms,
            );
        }
    }

    fn raw_tcp_flight(
        &mut self,
        flight: &Flight,
        remote: Ipv4Addr,
        port: u16,
        leak: Option<&PiiLeak>,
    ) {
        self.ensure_tcp_established(flight.endpoint, remote, port);
        let out_n = self.rng.gen_range(flight.out_packets.0..=flight.out_packets.1);
        for i in 0..out_n {
            let size = self.rng.gen_range(flight.out_size.0..=flight.out_size.1) as usize;
            let payload = self.scratch_payload(leak.filter(|_| i == 0), flight.payload, size);
            self.tcp_out(
                flight.endpoint,
                remote,
                port,
                TcpFlags::PSH | TcpFlags::ACK,
                &payload,
                flight.iat_ms,
            );
            self.scratch = payload;
        }
        let in_n = self.rng.gen_range(flight.in_packets.0..=flight.in_packets.1);
        for _ in 0..in_n {
            let size = self.rng.gen_range(flight.in_size.0..=flight.in_size.1) as usize;
            let payload = self.scratch_payload(None, flight.payload, size);
            self.tcp_in(
                flight.endpoint,
                remote,
                port,
                TcpFlags::PSH | TcpFlags::ACK,
                &payload,
                flight.iat_ms,
            );
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
