//! Property tests: every codec must round-trip arbitrary valid messages,
//! and the protocol identifier must never confuse one generated protocol
//! for another. Driven by the in-tree deterministic PRNG with fixed seeds.

use iot_core::rng::StdRng;
use iot_protocols::analyzer::{identify_flow, ProtocolId, Transport};
use iot_protocols::{dhcp, dns, http, mqtt, ntp, quic, tls};
use std::net::Ipv4Addr;

const CASES: usize = 64;

/// A DNS-safe label matching `[a-z][a-z0-9-]{0,14}`.
fn random_label(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..rng.gen_range(0usize..=14) {
        s.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    s
}

fn random_domain(rng: &mut StdRng) -> String {
    let n = rng.gen_range(2usize..5);
    (0..n).map(|_| random_label(rng)).collect::<Vec<_>>().join(".")
}

fn random_bytes(rng: &mut StdRng, len_range: std::ops::Range<usize>) -> Vec<u8> {
    let mut v = vec![0u8; rng.gen_range(len_range)];
    rng.fill(&mut v);
    v
}

fn random_array<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill(&mut a);
    a
}

#[test]
fn dns_query_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for _ in 0..CASES {
        let id: u16 = rng.gen();
        let name = random_domain(&mut rng);
        let bytes = dns::Message::query(id, &name).encode();
        let parsed = dns::MessageView::parse(&bytes).unwrap();
        assert_eq!(parsed.id(), id);
        let questions: Vec<_> = parsed
            .questions()
            .map(|(q, t)| (q.decode_into(&mut String::new()).to_string(), t))
            .collect();
        assert_eq!(questions, [(name, dns::RecordType::A)]);
    }
}

#[test]
fn dns_answer_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for _ in 0..CASES {
        let id: u16 = rng.gen();
        let name = random_domain(&mut rng);
        let addrs: Vec<Ipv4Addr> = (0..rng.gen_range(1usize..8))
            .map(|_| Ipv4Addr::from(rng.gen::<u32>()))
            .collect();
        let ttl: u32 = rng.gen();
        let q = dns::Message::query(id, &name);
        let a = dns::Message::answer(&q, &addrs, ttl);
        let bytes = a.encode();
        let parsed = dns::MessageView::parse(&bytes).unwrap();
        assert_eq!(parsed.a_records().count(), addrs.len());
        for ((_, got), want) in parsed.a_records().zip(addrs.iter()) {
            assert_eq!(got, *want);
        }
    }
}

#[test]
fn dns_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 0..256);
        let _ = dns::MessageView::parse(&data);
    }
}

#[test]
fn tls_client_hello_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC4);
    for _ in 0..CASES {
        let random: [u8; 32] = random_array(&mut rng);
        let sni = random_domain(&mut rng);
        let ch = tls::ClientHello::new(random, &sni);
        let rec = ch.to_record();
        let bytes = rec.encode();
        let (parsed_rec, _) = tls::RecordView::parse(&bytes).unwrap();
        let parsed = tls::ClientHelloView::parse(parsed_rec.payload).unwrap();
        assert_eq!(parsed.sni, Some(sni.as_bytes()));
        assert_eq!(parsed.random, &random);
    }
}

#[test]
fn tls_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xC5);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 0..512);
        let _ = tls::RecordView::parse(&data);
        let _ = tls::ClientHelloView::parse(&data);
        let _ = tls::sni_from_stream(&data);
    }
}

#[test]
fn http_request_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC6);
    for _ in 0..CASES {
        let host = random_domain(&mut rng);
        let path = format!("/{}", random_label(&mut rng));
        let body = random_bytes(&mut rng, 0..256);
        let req = http::Request::new("POST", &host, &path).body(body.clone());
        let bytes = req.encode();
        let parsed = http::RequestView::parse(&bytes).unwrap();
        assert_eq!(parsed.host(), Some(host.as_str()));
        assert_eq!(parsed.body, body);
    }
}

#[test]
fn http_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xC7);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 0..512);
        let _ = http::RequestView::parse(&data);
    }
}

#[test]
fn mqtt_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC8);
    for _ in 0..CASES {
        let topic = random_label(&mut rng);
        let payload = random_bytes(&mut rng, 0..512);
        let bytes = mqtt::MqttPacket::Publish {
            topic: topic.clone(),
            payload: payload.clone(),
        }
        .encode();
        let (parsed, rest) = mqtt::PacketView::parse(&bytes).unwrap();
        assert_eq!(
            parsed,
            mqtt::PacketView::Publish {
                topic: &topic,
                payload: &payload
            }
        );
        assert!(rest.is_empty());
    }
}

#[test]
fn mqtt_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xC9);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 0..256);
        let _ = mqtt::PacketView::parse(&data);
    }
}

#[test]
fn ntp_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xCA);
    for _ in 0..CASES {
        let micros = rng.gen_range(0u64..4_000_000_000_000_000);
        let pkt = ntp::NtpPacket::client(micros);
        let parsed = ntp::NtpPacket::parse(&pkt.encode()).unwrap();
        assert_eq!(parsed, pkt);
    }
}

#[test]
fn dhcp_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xCB);
    for _ in 0..CASES {
        let xid: u32 = rng.gen();
        let mac: [u8; 6] = random_array(&mut rng);
        let d = rng.gen_range(1u8..=254);
        let msg = dhcp::DhcpMessage::request(
            xid,
            iot_net::mac::MacAddr(mac),
            Ipv4Addr::new(192, 168, 10, d),
        );
        let parsed = dhcp::DhcpMessage::parse(&msg.encode()).unwrap();
        assert_eq!(parsed, msg);
    }
}

/// Each generated protocol must be identified as itself, never as a
/// different concrete protocol.
#[test]
fn identifier_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0xCC);
    for _ in 0..CASES {
        let name = random_domain(&mut rng);
        let random: [u8; 32] = random_array(&mut rng);

        let dns_q = dns::Message::query(1, &name).encode();
        assert_eq!(identify_flow(Transport::Udp, 53, &dns_q, &[]), ProtocolId::Dns);

        let tls_stream = tls::ClientHello::new(random, &name).to_record().encode();
        assert_eq!(identify_flow(Transport::Tcp, 443, &tls_stream, &[]), ProtocolId::Tls);

        let http_req = http::Request::new("GET", &name, "/").encode();
        assert_eq!(identify_flow(Transport::Tcp, 80, &http_req, &[]), ProtocolId::Http);

        let quic_d = quic::QuicLongHeader::encode_initial(&random[..8], &random);
        assert_eq!(identify_flow(Transport::Udp, 443, &quic_d, &[]), ProtocolId::Quic);
    }
}

/// The identifier must never panic on arbitrary bytes.
#[test]
fn identifier_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xCD);
    for _ in 0..CASES {
        let out = random_bytes(&mut rng, 0..512);
        let inn = random_bytes(&mut rng, 0..512);
        let port: u16 = rng.gen();
        let _ = identify_flow(Transport::Tcp, port, &out, &inn);
        let _ = identify_flow(Transport::Udp, port, &out, &inn);
    }
}
