//! Property tests over the degrade → salvage round trip: for many seeds
//! and fault rates, every packet the injector emits is either recovered
//! by the lenient reader or accounted for as loss — nothing silently
//! disappears and nothing is invented.

use iot_chaos::{stream_key, FaultInjector, FaultPlan};
use iot_core::rng::StdRng;
use iot_net::pcap::from_bytes_lenient;
use iot_net::{MacAddr, Packet, PacketBuilder, TcpFlags, TcpHeader};
use std::net::Ipv4Addr;

const SEEDS: u64 = 64;

/// A small synthetic experiment capture with mixed TCP/UDP traffic.
fn capture(rng: &mut StdRng) -> Vec<Packet> {
    let mut b = PacketBuilder::new(
        MacAddr::new(0xa4, 0xcf, 0x12, 0x00, 0x00, 0x07),
        MacAddr::new(0x00, 0x16, 0x3e, 0x00, 0x00, 0x01),
        Ipv4Addr::new(192, 168, 10, 30),
        Ipv4Addr::new(34, 200, 1, 9),
    );
    let n = rng.gen_range(1..80usize);
    let mut ts = 1_000_000u64;
    (0..n)
        .map(|i| {
            ts += rng.gen_range(100..50_000u64);
            let payload = vec![rng.gen_range(0..256u32) as u8; rng.gen_range(0..300usize)];
            if rng.gen_bool(0.5) {
                let header = TcpHeader {
                    src_port: 49000 + i as u16,
                    dst_port: 443,
                    seq: i as u32,
                    ack: 0,
                    flags: TcpFlags::ACK,
                    window: 65535,
                };
                b.tcp(ts, &header, &payload)
            } else {
                b.udp(ts, 50000 + i as u16, 53, &payload)
            }
        })
        .collect()
}

#[test]
fn degrade_then_salvage_accounts_for_every_packet() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let packets = capture(&mut rng);
        let generated = packets.len() as u64;
        let rate = [0.0, 0.005, 0.02, 0.1][(seed % 4) as usize];
        let inj = FaultInjector::new(FaultPlan::uniform(seed ^ 0xC4A05, rate));
        let key = stream_key("prop-device", seed);

        let (bytes, faults) = inj.degrade(key, packets);
        assert_eq!(faults.packets_in, generated, "seed {seed}: packets_in");
        assert_eq!(
            faults.records_written,
            generated + faults.packets_duplicated - faults.packets_dropped,
            "seed {seed}: records_written must balance drops and dups"
        );

        let (salvaged, stats) = from_bytes_lenient(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: global header unreadable: {e:?}"));
        // Salvage can only lose records the injector damaged, never gain.
        assert!(
            salvaged.len() as u64 <= faults.records_written,
            "seed {seed}: salvaged {} > written {}",
            salvaged.len(),
            faults.records_written
        );
        let lost = faults.records_written - salvaged.len() as u64;
        if lost > 0 {
            assert!(
                faults.headers_corrupted > 0 || faults.tails_torn > 0 || faults.packets_bitflipped > 0,
                "seed {seed}: lost {lost} records with no damaging fault recorded"
            );
        }
        if faults.headers_corrupted == 0 && faults.tails_torn == 0 && faults.packets_bitflipped == 0
        {
            // Without framing damage the reader must recover everything.
            assert_eq!(salvaged.len() as u64, faults.records_written, "seed {seed}");
            assert_eq!(stats.resyncs, 0, "seed {seed}: spurious resync");
        }
    }
}

#[test]
fn clean_plan_is_a_byte_level_identity() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1DE47);
        let packets = capture(&mut rng);
        let inj = FaultInjector::new(FaultPlan::clean(seed));
        let (bytes, faults) = inj.degrade(stream_key("clean-device", seed), packets.clone());
        assert_eq!(faults.packets_dropped, 0);
        assert_eq!(faults.records_written, packets.len() as u64);
        let (salvaged, stats) = from_bytes_lenient(&bytes).expect("clean capture readable");
        assert_eq!(salvaged, packets, "seed {seed}: clean plan altered packets");
        assert!(stats.resyncs == 0 && stats.torn_tail_bytes == 0);
    }
}

#[test]
fn degrade_is_deterministic_per_key_and_independent_across_keys() {
    let mut rng = StdRng::seed_from_u64(0xDE7);
    let packets = capture(&mut rng);
    let inj = FaultInjector::new(FaultPlan::uniform(0xFEED, 0.15));
    let key_a = stream_key("device-a", 1);
    let (bytes_a1, _) = inj.degrade(key_a, packets.clone());
    let (bytes_a2, _) = inj.degrade(key_a, packets.clone());
    assert_eq!(bytes_a1, bytes_a2, "same key must reproduce byte-identically");
    // Any single pair of keys may draw the same (possibly empty) fault
    // schedule; across a spread of keys the outputs must not all agree.
    let distinct: std::collections::BTreeSet<Vec<u8>> = (0..16u64)
        .map(|i| inj.degrade(stream_key("device", i), packets.clone()).0)
        .collect();
    assert!(distinct.len() > 1, "16 keys all drew identical fault schedules");
}
