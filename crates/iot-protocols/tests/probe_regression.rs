//! The probes the flow-labeling path runs, pinned on bytes the simulator
//! never emits.
//!
//! Flow labeling (§4.1) asks four things of a payload prefix: which
//! protocol it is ([`identify_flow`], on either transport and in either
//! direction), which (name, address) pairs a DNS response maps
//! ([`harvest`]), and which SNI or HTTP `Host` names it ([`label`]).
//! Campaign traffic only ever reaches the well-formed corner of those
//! parsers, so the test builds 26,500 seeded buffers that do not: random
//! bytes of 0–2 KiB, and the codecs' own encodes (DNS responses with
//! compression pointers and CNAMEs, ClientHellos, HTTP requests, MQTT
//! CONNECT and PUBLISH, QUIC initials, NTP and DHCP), most of them with
//! one to four byte flips or a truncation. Every answer is folded into
//! one FNV-1a digest, pinned from the owned parsers the borrowed probes
//! replaced, so the probes must answer exactly as those did.

use iot_core::rng::StdRng;
use iot_net::mac::MacAddr;
use iot_protocols::analyzer::{identify_flow, ProtocolId, Transport};
use iot_protocols::{dhcp, dns, http, mqtt, ntp, quic, tls};
use std::net::Ipv4Addr;

/// The digest the owned parsers produced over the corpus below.
const PINNED: u64 = 0x78fd_a769_3d1b_b091;

/// Random buffers, then this many encodes of each codec family.
const RANDOM: usize = 9_000;
const PER_FAMILY: usize = 2_500;

/// FNV-1a over everything the probes answer.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }
}

/// The (name, address) pairs a DNS response maps, in answer order; empty
/// unless the whole message parses. Names decode into one buffer, as
/// flow labeling decodes them.
fn harvest(payload: &[u8]) -> Vec<(String, Ipv4Addr)> {
    let mut name = String::new();
    match dns::MessageView::parse(payload) {
        Ok(msg) => msg
            .a_records()
            .map(|(n, a)| (n.decode_into(&mut name).to_string(), a))
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// The §4.1 fallback label of an outbound prefix: SNI, else HTTP `Host`.
fn label(payload_out: &[u8]) -> Option<(u8, String)> {
    if let Some(sni) = tls::sni_from_stream(payload_out) {
        return Some((1, String::from_utf8_lossy(sni).into_owned()));
    }
    let req = http::RequestView::parse(payload_out).ok()?;
    req.host().map(|h| (2, h.to_string()))
}

fn protocol_tag(p: ProtocolId) -> u8 {
    match p {
        ProtocolId::Dns => 1,
        ProtocolId::Http => 2,
        ProtocolId::Tls => 3,
        ProtocolId::Quic => 4,
        ProtocolId::Ntp => 5,
        ProtocolId::Dhcp => 6,
        ProtocolId::Mqtt => 7,
        ProtocolId::Unknown => 8,
    }
}

/// Folds every probe's answer on `buf` (and `prev`, the previous buffer,
/// as the other direction) into `d`.
fn probe(d: &mut Digest, buf: &[u8], prev: &[u8]) {
    d.bytes(&(buf.len() as u32).to_le_bytes());
    for port in [53, 443, 80, 1883, 123, 67, 5683] {
        for (out, inn) in [(buf, &[][..]), (&[][..], buf), (buf, prev)] {
            d.tag(protocol_tag(identify_flow(Transport::Udp, port, out, inn)));
            d.tag(protocol_tag(identify_flow(Transport::Tcp, port, out, inn)));
        }
    }
    let pairs = harvest(buf);
    d.bytes(&(pairs.len() as u32).to_le_bytes());
    for (name, addr) in pairs {
        d.bytes(name.as_bytes());
        d.tag(0xff);
        d.bytes(&addr.octets());
    }
    match label(buf) {
        Some((source, name)) => {
            d.tag(source);
            d.bytes(name.as_bytes());
            d.tag(0xff);
        }
        None => d.tag(0),
    }
}

/// A host name of 1–4 labels, with upper case, digits, hyphens and now
/// and then a byte that is not ASCII.
fn name(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
    let labels = rng.gen_range(1..5usize);
    let mut out = String::new();
    for i in 0..labels {
        if i > 0 {
            out.push('.');
        }
        for _ in 0..rng.gen_range(1..12usize) {
            if rng.gen_bool(0.02) {
                out.push('é');
            } else {
                out.push(char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]));
            }
        }
    }
    out
}

fn bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let mut buf = vec![0u8; rng.gen_range(0..=max)];
    rng.fill(&mut buf);
    buf
}

/// Appends `name` as uncompressed labels.
fn put_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.') {
        out.push(label.len().min(63) as u8);
        out.extend_from_slice(&label.as_bytes()[..label.len().min(63)]);
    }
    out.push(0);
}

fn put_rr_head(out: &mut Vec<u8>, rtype: u16, rdlen: u16) {
    out.extend_from_slice(&rtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&300u32.to_be_bytes());
    out.extend_from_slice(&rdlen.to_be_bytes());
}

/// A response the way resolvers write one: the answer owners point back
/// at the question, a CNAME's target shares the question's suffix
/// through a pointer, and the A records point at that target.
fn compressed_response(rng: &mut StdRng) -> Vec<u8> {
    let qname = name(rng);
    let cnames = rng.gen_range(0..3usize);
    let addrs = rng.gen_range(0..4usize);
    let mut out = Vec::new();
    out.extend_from_slice(&rng.gen::<u16>().to_be_bytes());
    out.extend_from_slice(&0x8180u16.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&((cnames + addrs) as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]);
    put_name(&mut out, &qname);
    out.extend_from_slice(&[0, 1, 0, 1]);
    // The name the next record's owner points at.
    let mut owner = 12u16;
    for _ in 0..cnames {
        out.extend_from_slice(&(0xc000 | owner).to_be_bytes());
        let mut target = Vec::new();
        for _ in 0..rng.gen_range(1..3usize) {
            let label = name(rng);
            let label = label.split('.').next().unwrap_or("x");
            target.push(label.len().min(63) as u8);
            target.extend_from_slice(&label.as_bytes()[..label.len().min(63)]);
        }
        // The suffix: the question name itself, by pointer.
        target.extend_from_slice(&0xc00cu16.to_be_bytes());
        put_rr_head(&mut out, 5, target.len() as u16);
        owner = out.len() as u16;
        out.extend_from_slice(&target);
    }
    for _ in 0..addrs {
        out.extend_from_slice(&(0xc000 | owner).to_be_bytes());
        put_rr_head(&mut out, 1, 4);
        out.extend_from_slice(&rng.gen::<u32>().to_be_bytes());
    }
    out
}

/// One encode of codec family `family`.
fn encode(rng: &mut StdRng, family: usize) -> Vec<u8> {
    match family {
        0 => compressed_response(rng),
        1 => {
            let q = dns::Message::query(rng.gen(), &name(rng));
            if rng.gen_bool(0.3) {
                q.encode()
            } else {
                let addrs: Vec<Ipv4Addr> = (0..rng.gen_range(0..4usize))
                    .map(|_| Ipv4Addr::from(rng.gen::<u32>()))
                    .collect();
                dns::Message::answer(&q, &addrs, rng.gen()).encode()
            }
        }
        2 => {
            let mut random = [0u8; 32];
            rng.fill(&mut random);
            let mut out = tls::ClientHello::new(random, &name(rng)).to_record().encode();
            if rng.gen_bool(0.5) {
                out.extend_from_slice(&tls::application_data(bytes(rng, 300)).encode());
            }
            out
        }
        3 => {
            const METHODS: [&str; 4] = ["GET", "POST", "PUT", "HEAD"];
            let method = METHODS[rng.gen_range(0..METHODS.len())];
            let mut req = http::Request::new(method, &name(rng), &format!("/{}", name(rng)));
            if rng.gen_bool(0.5) {
                req = req.header("User-Agent", &name(rng));
            }
            if rng.gen_bool(0.5) {
                req = req.body(bytes(rng, 200));
            }
            req.encode()
        }
        4 => {
            let pkt = if rng.gen_bool(0.5) {
                mqtt::MqttPacket::Connect {
                    client_id: name(rng),
                }
            } else {
                mqtt::MqttPacket::Publish {
                    topic: name(rng),
                    payload: bytes(rng, 300),
                }
            };
            pkt.encode()
        }
        5 => {
            let dcid = bytes(rng, 20);
            quic::QuicLongHeader::encode_initial(&dcid, &bytes(rng, 1200))
        }
        _ => {
            if rng.gen_bool(0.5) {
                ntp::NtpPacket::client(rng.gen_range(0..4_000_000_000_000_000u64))
                    .encode()
                    .to_vec()
            } else {
                let mut mac = [0u8; 6];
                rng.fill(&mut mac);
                dhcp::DhcpMessage::discover(rng.gen(), MacAddr(mac)).encode()
            }
        }
    }
}

/// Leaves one encode in five as written; flips one to four bytes of
/// three in five; cuts the rest short.
fn mutate(rng: &mut StdRng, buf: &mut Vec<u8>) {
    if buf.is_empty() {
        return;
    }
    match rng.gen_range(0..5u32) {
        0 => {}
        1..=3 => {
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..buf.len());
                buf[at] ^= rng.gen_range(1..=255u8);
            }
        }
        _ => {
            let cut = rng.gen_range(0..buf.len());
            buf.truncate(cut);
        }
    }
}

#[test]
fn probes_match_the_owned_parsers_on_damaged_and_random_bytes() {
    let mut rng = StdRng::seed_from_u64(0x9_0BE5);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut prev = Vec::new();
    let (mut buffers, mut dns_pairs, mut labels) = (0usize, 0usize, 0usize);
    let families = 7;
    for i in 0..RANDOM + PER_FAMILY * families {
        let buf = if i < RANDOM {
            bytes(&mut rng, 2048)
        } else {
            let mut buf = encode(&mut rng, (i - RANDOM) % families);
            mutate(&mut rng, &mut buf);
            buf
        };
        probe(&mut d, &buf, &prev);
        dns_pairs += harvest(&buf).len();
        labels += usize::from(label(&buf).is_some());
        buffers += 1;
        prev = buf;
    }
    assert!(buffers >= 20_000);
    // The corpus must reach the success paths, not only the rejections.
    assert!(dns_pairs > 1_000, "{dns_pairs} harvested pairs");
    assert!(labels > 1_000, "{labels} labels");
    assert_eq!(d.0, PINNED, "probe digest {:#018x}", d.0);
}
