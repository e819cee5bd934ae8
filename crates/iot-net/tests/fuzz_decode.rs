//! Seeded fuzz tests for frame and capture-file decoding: random bytes,
//! truncated prefixes, and bit-flipped variants of valid encodings must
//! never panic `Packet::parse`, `Packet::parse_frame`, or the pcap cursor
//! in either mode. Lenient mode additionally must uphold its salvage
//! accounting (`records_ok` consistency, byte conservation) on arbitrary
//! input.

use iot_core::rng::StdRng;
use iot_net::pcap::{
    from_bytes, from_bytes_lenient, to_bytes, PcapCursor, GLOBAL_HEADER_LEN, RECORD_HEADER_LEN,
};
use iot_net::{MacAddr, Packet, PacketBuilder, TcpFlags};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: usize = 96;

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf);
    buf
}

/// A pair of valid frames (TCP and UDP) from the builder.
fn valid_frames() -> Vec<Packet> {
    let mut b = PacketBuilder::new(
        MacAddr::new(0xa4, 0xcf, 0x12, 0x00, 0x00, 0x01),
        MacAddr::new(0x00, 0x16, 0x3e, 0x00, 0x00, 0x02),
        Ipv4Addr::new(192, 168, 10, 21),
        Ipv4Addr::new(52, 84, 9, 9),
    );
    vec![
        b.tcp(1_000_000, 49152, 443, 7, 0, TcpFlags::SYN, b"hello over tcp"),
        b.udp(2_000_000, 50000, 53, b"dns-ish payload bytes"),
    ]
}

fn assert_no_panic(what: &str, case: usize, f: impl FnOnce()) {
    let outcome = catch_unwind(AssertUnwindSafe(f));
    assert!(outcome.is_ok(), "{what}: case {case} panicked");
}

#[test]
fn frame_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF4A3E);
    for case in 0..CASES {
        let pkt = Packet::new(case as u64, random_bytes(&mut rng, 200));
        assert_no_panic("packet.parse/random", case, || {
            let _ = pkt.parse();
            let _ = pkt.parse_frame();
        });
    }
    for (v, frame) in valid_frames().into_iter().enumerate() {
        // Every truncated prefix — exactly what snaplen capture produces.
        for cut in 0..frame.data.len() {
            let pkt = Packet::new(0, frame.data[..cut].to_vec());
            assert_no_panic("packet.parse/truncated", v * 1000 + cut, || {
                let _ = pkt.parse();
                let _ = pkt.parse_frame();
            });
        }
        // Single-bit corruption across the whole frame.
        let mut flip_rng = StdRng::seed_from_u64(0xF4A3E ^ v as u64);
        for case in 0..CASES {
            let mut data = frame.data.clone();
            let bit = flip_rng.gen_range(0..data.len() * 8);
            data[bit / 8] ^= 1 << (bit % 8);
            let pkt = Packet::new(0, data);
            assert_no_panic("packet.parse/bitflip", case, || {
                let _ = pkt.parse();
                let _ = pkt.parse_frame();
            });
        }
    }
}

#[test]
fn pcap_readers_never_panic() {
    // A valid two-record capture to truncate and corrupt.
    let valid = to_bytes(&valid_frames()).expect("valid frames encode");

    let mut rng = StdRng::seed_from_u64(0x9CA9);
    for case in 0..CASES {
        let buf = random_bytes(&mut rng, 800);
        assert_no_panic("pcap/random", case, || {
            let _ = from_bytes(&buf);
            let _ = from_bytes_lenient(&buf);
            exhaust_cursors(&buf);
        });
    }
    for cut in 0..valid.len() {
        assert_no_panic("pcap/truncated", cut, || {
            let _ = from_bytes(&valid[..cut]);
            let _ = from_bytes_lenient(&valid[..cut]);
            exhaust_cursors(&valid[..cut]);
        });
    }
    let mut flip_rng = StdRng::seed_from_u64(0x9CA9 ^ 0xF11F);
    for case in 0..CASES {
        let mut buf = valid.clone();
        let bit = flip_rng.gen_range(0..buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        assert_no_panic("pcap/bitflip", case, || {
            let _ = from_bytes(&buf);
            let _ = from_bytes_lenient(&buf);
            exhaust_cursors(&buf);
        });
    }
}

fn exhaust_cursors(buf: &[u8]) {
    if let Ok(cur) = PcapCursor::strict(buf) {
        for view in cur {
            let _ = view;
        }
    }
    if let Ok(cur) = PcapCursor::lenient(buf) {
        for view in cur {
            view.expect("lenient cursor surfaces no errors");
        }
    }
}

#[test]
fn lenient_reader_accounting_holds_on_garbage() {
    // On any input the lenient reader accepts, every salvaged packet must
    // be a counted intact record, resyncs imply skipped bytes, skipped
    // bytes imply an accounted cause (a resync or a torn tail), and the
    // ledger must conserve every byte of the record region.
    let mut rng = StdRng::seed_from_u64(0x5A1A6E);
    for case in 0..CASES {
        let buf = random_bytes(&mut rng, 2048);
        if let Ok((packets, stats)) = from_bytes_lenient(&buf) {
            assert_eq!(
                packets.len() as u64,
                stats.records_ok,
                "case {case}: salvaged {} packets but records_ok {}",
                packets.len(),
                stats.records_ok
            );
            if stats.resyncs > 0 {
                assert!(
                    stats.bytes_skipped > 0,
                    "case {case}: resynced without skipping bytes"
                );
            }
            if stats.bytes_skipped > 0 {
                assert!(
                    stats.resyncs > 0 || stats.torn_tail_bytes > 0,
                    "case {case}: skipped bytes with no accounted cause: {stats:?}"
                );
            }
            let consumed: u64 = packets
                .iter()
                .map(|p| (RECORD_HEADER_LEN + p.data.len()) as u64)
                .sum();
            assert_eq!(
                consumed + stats.bytes_skipped + stats.torn_tail_bytes,
                (buf.len() - GLOBAL_HEADER_LEN) as u64,
                "case {case}: salvage ledger does not conserve bytes: {stats:?}"
            );
        }
    }
}
