//! Seeded-loop fuzz tests for every protocol codec: random bytes and
//! truncated prefixes of valid encodings must never panic a parser —
//! they return an error (or, for the analyzer, `Unknown`). This is the
//! parser-level contract the chaos pipeline relies on: bit-flipped and
//! snaplen-cut payloads reach these codecs verbatim once salvage has
//! re-framed the capture.
//!
//! Each case set is driven by a fixed `StdRng` seed, so a failure
//! message's `(codec, case)` pair reproduces exactly.

use iot_core::rng::StdRng;
use iot_net::mac::MacAddr;
use iot_protocols::analyzer::{identify_flow, Transport};
use iot_protocols::{dhcp, dns, http, mqtt, ntp, quic, tls};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per corpus per codec (the satellite contract is ≥64).
const CASES: usize = 96;

/// Random byte buffer of random length in `[0, 600)`.
fn random_bytes(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..600usize);
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf);
    buf
}

/// Drives one parser over `CASES` random buffers plus every truncated
/// prefix corpus, reporting the codec and case index on panic.
fn fuzz(codec: &str, seed: u64, valid: &[Vec<u8>], parse: impl Fn(&[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let buf = random_bytes(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&buf)));
        assert!(
            outcome.is_ok(),
            "{codec}: random case {case} (seed {seed:#x}, len {}) panicked",
            buf.len()
        );
    }
    // Truncated prefixes of valid messages: every length from empty to
    // one-short-of-complete, the exact shape snaplen truncation makes.
    for (v, valid_buf) in valid.iter().enumerate() {
        for cut in 0..valid_buf.len() {
            let outcome = catch_unwind(AssertUnwindSafe(|| parse(&valid_buf[..cut])));
            assert!(
                outcome.is_ok(),
                "{codec}: valid message {v} truncated to {cut} bytes panicked"
            );
        }
        // Bit-flipped full-length variants, one flip per case.
        let mut flip_rng = StdRng::seed_from_u64(seed ^ 0xF11F);
        for case in 0..CASES {
            let mut buf = valid_buf.clone();
            if buf.is_empty() {
                continue;
            }
            let bit = flip_rng.gen_range(0..buf.len() * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
            let outcome = catch_unwind(AssertUnwindSafe(|| parse(&buf)));
            assert!(
                outcome.is_ok(),
                "{codec}: valid message {v} with bit {bit} flipped panicked (case {case})"
            );
        }
    }
}

#[test]
fn dns_never_panics() {
    let (mut query, mut answer) = (Vec::new(), Vec::new());
    dns::write_query(&mut query, 0x1234, "device.example.com");
    let addr = Ipv4Addr::new(93, 184, 216, 34);
    dns::write_answer(&mut answer, 0x1234, "device.example.com", &[addr], 300);
    let valid = vec![query, answer];
    fuzz("dns", 0xD25, &valid, |buf| {
        if let Ok(msg) = dns::MessageView::parse(buf) {
            let mut name = String::new();
            for (owner, _) in msg.a_records() {
                owner.decode_into(&mut name);
            }
        }
    });
}

#[test]
fn tls_never_panics() {
    let mut hello = Vec::new();
    tls::write_client_hello(&mut hello, &[7u8; 32], "iot.vendor.example");
    let handshake = hello[5..].to_vec();
    let valid = vec![hello];
    fuzz("tls.record", 0x715, &valid, |buf| {
        let _ = tls::RecordView::parse(buf);
    });
    fuzz("tls.sni", 0x717, &valid, |buf| {
        let _ = tls::sni_from_stream(buf);
    });
    // ClientHelloView::parse consumes the record payload, not the record.
    fuzz("tls.client_hello", 0x718, &[handshake], |buf| {
        let _ = tls::ClientHelloView::parse(buf);
    });
}

#[test]
fn http_never_panics() {
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    http::write_request_head(&mut req, "GET", "iot.vendor.example", "/checkin", &[], None);
    http::write_response_head(&mut resp, 200, "OK", 11, &[]);
    resp.extend_from_slice(b"{\"ok\":true}");
    fuzz("http.request", 0x477, &[req], |buf| {
        let _ = http::RequestView::parse(buf).map(|r| r.host());
    });
    // A response parsed as a request must also just fail.
    fuzz("http.cross", 0x479, &[resp], |buf| {
        let _ = http::RequestView::parse(buf);
    });
}

#[test]
fn dhcp_never_panics() {
    let mac = MacAddr::new(0x02, 0x42, 0xac, 0x11, 0x00, 0x02);
    let valid = [
        dhcp::DhcpMessage::discover(0xBEEF, mac),
        dhcp::DhcpMessage::ack(0xBEEF, mac, Ipv4Addr::new(192, 168, 10, 7)),
    ]
    .map(|msg| {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        bytes
    });
    fuzz("dhcp", 0xDCB, &valid, |buf| {
        let _ = dhcp::DhcpMessage::parse(buf);
    });
}

#[test]
fn mqtt_never_panics() {
    let (mut connect, mut publish) = (Vec::new(), Vec::new());
    mqtt::write_connect(&mut connect, "plug-0042");
    mqtt::write_publish_head(&mut publish, "device/state", 2);
    publish.extend_from_slice(b"on");
    let pingreq = vec![0xc0, 0x00];
    let valid = vec![connect, publish, pingreq];
    fuzz("mqtt", 0x3077, &valid, |buf| {
        let _ = mqtt::PacketView::parse(buf);
    });
}

#[test]
fn ntp_never_panics() {
    let valid = vec![
        ntp::NtpPacket::client(1_566_400_000_000_000).encode().to_vec(),
        ntp::NtpPacket::server(1_566_400_000_123_456).encode().to_vec(),
    ];
    fuzz("ntp", 0x2777, &valid, |buf| {
        let _ = ntp::NtpPacket::parse(buf);
    });
}

#[test]
fn quic_never_panics() {
    let mut initial = Vec::new();
    quic::QuicLongHeader::write_initial_header(&mut initial, &[0xAB; 8]);
    initial.extend_from_slice(&[0x5A; 120]);
    let valid = vec![initial];
    fuzz("quic", 0x901C, &valid, |buf| {
        let _ = quic::QuicLongHeader::parse(buf);
    });
}

#[test]
fn analyzer_never_panics_and_degrades_to_unknown() {
    // identify_flow must classify garbage as *something* without
    // panicking — Unknown is the expected answer for noise.
    let mut rng = StdRng::seed_from_u64(0xA7A1);
    for case in 0..CASES {
        let out = random_bytes(&mut rng);
        let inp = random_bytes(&mut rng);
        let port = rng.gen_range(0..u64::from(u16::MAX) + 1) as u16;
        let transport = if rng.gen_bool(0.5) {
            Transport::Tcp
        } else {
            Transport::Udp
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            identify_flow(transport, port, &out, &inp)
        }));
        assert!(outcome.is_ok(), "analyzer: case {case} panicked");
    }
}
