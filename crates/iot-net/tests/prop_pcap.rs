//! Seeded property tests for the one pcap reader and the one writer: on
//! every clean capture `Capture` writes, both cursor modes and their
//! materializing entry points (`from_bytes`, `from_bytes_lenient`) must
//! give back the original packets byte for byte, with pristine salvage
//! stats.

use iot_core::rng::StdRng;
use iot_net::pcap::{from_bytes, from_bytes_lenient, Capture, PcapCursor};
use iot_net::{MacAddr, Packet, PacketBuilder, TcpFlags, TcpHeader};
use std::net::Ipv4Addr;

const CASES: usize = 64;

/// A seeded, varied clean capture: random mix of TCP/UDP frames with
/// monotone timestamps and random payload sizes (including empty).
fn random_packets(rng: &mut StdRng) -> Vec<Packet> {
    let mut b = PacketBuilder::new(
        MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, rng.gen_range(0..255) as u8),
        MacAddr::new(0x00, 0x16, 0x3e, 0, 0, 2),
        Ipv4Addr::new(192, 168, 10, rng.gen_range(2..200) as u8),
        Ipv4Addr::new(52, 84, rng.gen_range(0..255) as u8, 9),
    );
    let n = rng.gen_range(0..20);
    let mut ts = rng.gen_range(0..10_000_000) as u64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        ts += rng.gen_range(1..500_000) as u64;
        let payload: Vec<u8> = (0..rng.gen_range(0..512)).map(|_| rng.gen_range(0..256) as u8).collect();
        if rng.gen_range(0..2) == 0 {
            let header = TcpHeader {
                src_port: 49152 + i as u16,
                dst_port: 443,
                seq: i as u32,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 65535,
            };
            out.push(b.tcp(ts, &header, &payload));
        } else {
            out.push(b.udp(ts, 50000 + i as u16, 53, &payload));
        }
    }
    out
}

fn cursor_packets(cur: PcapCursor<'_>) -> Vec<Packet> {
    cur.map(|v| v.expect("clean capture").to_packet()).collect()
}

#[test]
fn all_read_paths_agree_on_clean_captures() {
    let mut rng = StdRng::seed_from_u64(0xC1EA7);
    for case in 0..CASES {
        let packets = random_packets(&mut rng);
        let cap = Capture::from_packets(&packets).unwrap();
        let bytes = cap.as_bytes();
        assert_eq!(cap.record_count(), packets.len());

        // Strict and lenient entry points == strict and lenient cursors ==
        // the original packets, byte for byte.
        let strict = from_bytes(bytes).unwrap();
        let (lenient, stats) = from_bytes_lenient(bytes).unwrap();
        let cur_strict = cursor_packets(PcapCursor::strict(bytes).unwrap());
        let cur_lenient = cursor_packets(PcapCursor::lenient(bytes).unwrap());
        assert_eq!(strict, packets, "case {case}: from_bytes diverged");
        assert_eq!(lenient, packets, "case {case}: from_bytes_lenient diverged");
        assert_eq!(cur_strict, packets, "case {case}: strict cursor diverged");
        assert_eq!(cur_lenient, packets, "case {case}: lenient cursor diverged");
        assert!(stats.is_pristine(), "case {case}: clean capture not pristine");
        assert_eq!(cap.to_packets(), packets, "case {case}: capture views diverged");
    }
}
