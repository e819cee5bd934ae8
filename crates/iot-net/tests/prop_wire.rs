//! Property tests for wire-format invariants: every frame the builder
//! produces must parse back to exactly what was requested, checksums must
//! detect single-bit corruption, and pcap round-trips must be lossless.
//! Driven by the in-tree deterministic PRNG with fixed seeds.

use iot_core::rng::StdRng;
use iot_net::checksum::checksum;
use iot_net::mac::MacAddr;
use iot_net::packet::{PacketBuilder, TransportHeader};
use iot_net::pcap;
use iot_net::tcp::{TcpFlags, TcpHeader};
use std::net::Ipv4Addr;

const CASES: usize = 64;

fn random_mac(rng: &mut StdRng) -> MacAddr {
    let mut o = [0u8; 6];
    rng.fill(&mut o);
    MacAddr(o)
}

fn random_public_ip(rng: &mut StdRng) -> Ipv4Addr {
    loop {
        let (a, b) = (rng.gen_range(1u8..=223), rng.gen::<u8>());
        if a == 192 && b == 168 {
            continue;
        }
        return Ipv4Addr::new(a, b, rng.gen(), rng.gen_range(1u8..=254));
    }
}

fn random_local_ip(rng: &mut StdRng) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 10, rng.gen_range(2u8..=254))
}

fn random_payload(rng: &mut StdRng, len_range: std::ops::Range<usize>) -> Vec<u8> {
    let mut v = vec![0u8; rng.gen_range(len_range)];
    rng.fill(&mut v);
    v
}

#[test]
fn tcp_build_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let (src_mac, dst_mac) = (random_mac(&mut rng), random_mac(&mut rng));
        let (src_ip, dst_ip) = (random_local_ip(&mut rng), random_public_ip(&mut rng));
        let sport = rng.gen_range(1024u16..=u16::MAX);
        let dport = rng.gen_range(1u16..=u16::MAX);
        let (seq, ack): (u32, u32) = (rng.gen(), rng.gen());
        let payload = random_payload(&mut rng, 0..1500);
        let ts = rng.gen::<u32>() as u64;
        let mut b = PacketBuilder::new(src_mac, dst_mac, src_ip, dst_ip);
        let header = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
        };
        let pkt = b.tcp(ts, &header, &payload);
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.src_mac, src_mac);
        assert_eq!(parsed.dst_mac, dst_mac);
        assert_eq!(parsed.ip.src, src_ip);
        assert_eq!(parsed.ip.dst, dst_ip);
        assert_eq!(parsed.payload, &payload[..]);
        match parsed.transport {
            TransportHeader::Tcp(t) => {
                assert_eq!(t.src_port, sport);
                assert_eq!(t.dst_port, dport);
                assert_eq!(t.seq, seq);
                assert_eq!(t.ack, ack);
            }
            other => panic!("expected TCP, got {other:?}"),
        }
    }
}

#[test]
fn udp_build_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let (src_ip, dst_ip) = (random_local_ip(&mut rng), random_public_ip(&mut rng));
        let sport = rng.gen_range(1024u16..=u16::MAX);
        let dport = rng.gen_range(1u16..=u16::MAX);
        let payload = random_payload(&mut rng, 0..1400);
        let mut b = PacketBuilder::new(
            MacAddr::new(0, 1, 2, 3, 4, 5),
            MacAddr::new(9, 8, 7, 6, 5, 4),
            src_ip,
            dst_ip,
        );
        let pkt = b.udp(0, sport, dport, &payload);
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.payload, &payload[..]);
        assert_eq!(parsed.transport.src_port(), Some(sport));
        assert_eq!(parsed.transport.dst_port(), Some(dport));
    }
}

/// Flipping any single bit of a built TCP frame must make parsing fail
/// (checksum or structural error) or change the parsed content — never
/// silently parse to the same packet.
#[test]
fn single_bit_corruption_never_silent() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let payload = random_payload(&mut rng, 1..256);
        let bit = rng.gen_range(0usize..128);
        let mut b = PacketBuilder::new(
            MacAddr::new(0, 1, 2, 3, 4, 5),
            MacAddr::new(9, 8, 7, 6, 5, 4),
            Ipv4Addr::new(192, 168, 10, 4),
            Ipv4Addr::new(8, 8, 4, 4),
        );
        let header = TcpHeader {
            src_port: 40000,
            dst_port: 443,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK,
            window: 65535,
        };
        let pkt = b.tcp(0, &header, &payload);
        let mut bytes = pkt.data.to_vec();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let original = pkt.parse().unwrap();
        match iot_net::packet::ParsedPacket::parse(&bytes) {
            Err(_) => {}
            Ok(parsed) => assert_ne!(parsed, original),
        }
    }
}

#[test]
fn checksum_verification_property() {
    let mut rng = StdRng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        // Filling the checksum into any even-offset 2-byte hole makes the
        // whole buffer sum to zero.
        let mut data = random_payload(&mut rng, 2..512);
        if data.len() % 2 == 1 {
            data.push(0);
        }
        data[0] = 0;
        data[1] = 0;
        let ck = checksum(&data);
        data[0..2].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }
}

#[test]
fn pcap_roundtrip_lossless() {
    let mut rng = StdRng::seed_from_u64(0xB5);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..20);
        let payloads: Vec<Vec<u8>> =
            (0..n).map(|_| random_payload(&mut rng, 0..800)).collect();
        let base_ts = rng.gen::<u32>() as u64;
        let mut b = PacketBuilder::new(
            MacAddr::new(1, 1, 1, 1, 1, 1),
            MacAddr::new(2, 2, 2, 2, 2, 2),
            Ipv4Addr::new(192, 168, 10, 9),
            Ipv4Addr::new(93, 184, 216, 34),
        );
        let packets: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| b.udp(base_ts + i as u64 * 1000, 40000, 53, p))
            .collect();
        let bytes = pcap::to_bytes(&packets).unwrap();
        let back = pcap::from_bytes(&bytes).unwrap();
        assert_eq!(back, packets);
    }
}

#[test]
fn mac_parse_roundtrips_all_formats() {
    let mut rng = StdRng::seed_from_u64(0xB6);
    for _ in 0..CASES {
        let mac = random_mac(&mut rng);
        assert_eq!(mac.to_string().parse::<MacAddr>().unwrap(), mac);
        assert_eq!(mac.to_hyphen_string().parse::<MacAddr>().unwrap(), mac);
        assert_eq!(mac.to_bare_string().parse::<MacAddr>().unwrap(), mac);
    }
}
