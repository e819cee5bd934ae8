//! The fault injector: applies a [`FaultPlan`] to one capture stream.

use crate::plan::{FaultPlan, BURST_LEN, REORDER_WINDOW, SKEW_MAX_MICROS, SNAPLEN};
use iot_core::rng::StdRng;
use iot_net::packet::Packet;
use iot_net::pcap::{Capture, GLOBAL_HEADER_LEN, MAX_TS_MICROS, RECORD_HEADER_LEN};
use std::borrow::Cow;

/// One perturbed record awaiting serialization. Payload bytes stay
/// borrowed from the pristine capture unless a fault actually rewrites
/// them (bit-flips force a copy; drops, truncation, skew, duplication,
/// and reordering all operate on the borrow), so a degradation pass
/// allocates proportionally to the faults drawn, not the capture size.
#[derive(Clone)]
struct DegradedRecord<'a> {
    ts_micros: u64,
    orig_len: u32,
    data: Cow<'a, [u8]>,
}

/// Salt separating the panic-decision stream from the capture-fault
/// stream, so enabling panic injection never shifts capture faults.
const PANIC_SALT: u64 = 0x9ac1_c5de_ad0f_a117;

/// What the injector actually did to one stream. Every field is a plain
/// count, so stats from many streams merge by addition in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets offered to the injector.
    pub packets_in: u64,
    /// Packets removed by uniform or bursty drops.
    pub packets_dropped: u64,
    /// Extra copies inserted by duplication.
    pub packets_duplicated: u64,
    /// Records cut to the snaplen (`incl_len < orig_len`).
    pub packets_truncated: u64,
    /// Packets whose payload had bits flipped.
    pub packets_bitflipped: u64,
    /// Packets whose timestamp was skewed (forward or backward).
    pub packets_skewed: u64,
    /// Packets displaced by reordering.
    pub packets_reordered: u64,
    /// Records actually serialized into the degraded capture
    /// (`packets_in - packets_dropped + packets_duplicated`).
    pub records_written: u64,
    /// pcap record headers garbled after serialization.
    pub headers_corrupted: u64,
    /// 1 when the capture's tail was torn off.
    pub tails_torn: u64,
}

impl FaultStats {
    /// Folds another stream's stats into this one (order-independent).
    pub fn merge(&mut self, other: &FaultStats) {
        self.packets_in += other.packets_in;
        self.packets_dropped += other.packets_dropped;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_truncated += other.packets_truncated;
        self.packets_bitflipped += other.packets_bitflipped;
        self.packets_skewed += other.packets_skewed;
        self.packets_reordered += other.packets_reordered;
        self.records_written += other.records_written;
        self.headers_corrupted += other.headers_corrupted;
        self.tails_torn += other.tails_torn;
    }
}

/// Applies a [`FaultPlan`] to capture streams. Cheap to construct and
/// `Copy`-friendly to hand to worker threads; all state is per-call.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn rng_for(&self, stream_key: u64, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.plan.seed.rotate_left(32) ^ stream_key ^ salt)
    }

    /// Deterministic per-stream decision for injected ingest panics —
    /// `true` means the consumer should panic to exercise quarantine.
    pub fn should_panic(&self, stream_key: u64) -> bool {
        if self.plan.panic_rate <= 0.0 {
            return false;
        }
        self.rng_for(stream_key, PANIC_SALT).gen_bool(self.plan.panic_rate)
    }

    /// Degrades one capture stream: applies the packet-level faults,
    /// serializes to classic pcap bytes, then applies the byte-level
    /// faults (garbled record headers, torn tail). Deterministic in
    /// `(plan.seed, stream_key)` alone. Byte-identical to
    /// [`FaultInjector::degrade_capture`] on the same frames.
    pub fn degrade(&self, stream_key: u64, packets: Vec<Packet>) -> (Vec<u8>, FaultStats) {
        let n = packets.len();
        self.degrade_frames(
            stream_key,
            n,
            packets
                .into_iter()
                .map(|p| (p.ts_micros, Cow::Owned(p.data))),
        )
    }

    /// Degrades a serialized [`Capture`] without ever materializing its
    /// packets: frames are borrowed straight out of the capture's byte
    /// buffer through the zero-copy cursor and only copied where a fault
    /// rewrites payload bytes. Draws exactly the faults
    /// [`FaultInjector::degrade`] draws.
    pub fn degrade_capture(&self, stream_key: u64, capture: &Capture) -> (Vec<u8>, FaultStats) {
        self.degrade_frames(
            stream_key,
            capture.record_count(),
            capture.views().map(|v| {
                let v = v.expect("captures offered to the injector are writer-clean");
                (v.ts_micros, Cow::Borrowed(v.data))
            }),
        )
    }

    /// The shared degradation core: packet-level faults over a frame
    /// stream, serialization, then byte-level faults. The RNG draw
    /// sequence depends only on `(seed, stream_key)` and the frame
    /// contents, never on whether frames arrived owned or borrowed.
    fn degrade_frames<'a>(
        &self,
        stream_key: u64,
        n_frames: usize,
        frames: impl Iterator<Item = (u64, Cow<'a, [u8]>)>,
    ) -> (Vec<u8>, FaultStats) {
        let mut rng = self.rng_for(stream_key, 0);
        let mut stats = FaultStats {
            packets_in: n_frames as u64,
            ..FaultStats::default()
        };
        let records = self.perturb(&mut rng, n_frames, frames, &mut stats);
        stats.records_written = records.len() as u64;
        let mut bytes = serialize(&records).into_bytes();
        self.corrupt_bytes(&mut rng, &records, &mut bytes, &mut stats);
        (bytes, stats)
    }

    /// Packet-level faults: drops, truncation, bit-flips, skew,
    /// duplication in one pass, then bounded reordering.
    fn perturb<'a>(
        &self,
        rng: &mut StdRng,
        n_frames: usize,
        frames: impl Iterator<Item = (u64, Cow<'a, [u8]>)>,
        stats: &mut FaultStats,
    ) -> Vec<DegradedRecord<'a>> {
        let plan = &self.plan;
        let mut out: Vec<DegradedRecord<'a>> = Vec::with_capacity(n_frames);
        let mut burst_remaining = 0u32;
        for (ts, frame) in frames {
            if burst_remaining > 0 {
                burst_remaining -= 1;
                stats.packets_dropped += 1;
                continue;
            }
            if plan.burst_rate > 0.0 && rng.gen_bool(plan.burst_rate) {
                burst_remaining = rng.gen_range(BURST_LEN.0..=BURST_LEN.1) - 1;
                stats.packets_dropped += 1;
                continue;
            }
            if plan.drop_rate > 0.0 && rng.gen_bool(plan.drop_rate) {
                stats.packets_dropped += 1;
                continue;
            }
            let orig_len = frame.len() as u32;
            let mut ts_micros = ts;
            let mut data = frame;
            if plan.truncate_rate > 0.0 && data.len() > SNAPLEN && rng.gen_bool(plan.truncate_rate)
            {
                // Truncation narrows the borrow; no copy needed.
                match data {
                    Cow::Borrowed(b) => data = Cow::Borrowed(&b[..SNAPLEN]),
                    Cow::Owned(ref mut v) => v.truncate(SNAPLEN),
                }
                stats.packets_truncated += 1;
            }
            if plan.bitflip_rate > 0.0 && !data.is_empty() && rng.gen_bool(plan.bitflip_rate) {
                let buf = data.to_mut();
                for _ in 0..rng.gen_range(1usize..=4) {
                    let bit = rng.gen_range(0..buf.len() * 8);
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                stats.packets_bitflipped += 1;
            }
            if plan.skew_rate > 0.0 && rng.gen_bool(plan.skew_rate) {
                let delta = rng.gen_range(1..=SKEW_MAX_MICROS);
                // Half the skew events step the clock backwards.
                ts_micros = if rng.gen_bool(0.5) {
                    ts_micros.saturating_sub(delta)
                } else {
                    ts_micros.saturating_add(delta)
                };
                stats.packets_skewed += 1;
            }
            // Clamp instead of wrapping: a skew past the format's u32
            // seconds field pins to the last representable microsecond
            // rather than silently folding the timestamp back to 1970
            // (the writer now rejects such values outright).
            let rec = DegradedRecord {
                ts_micros: ts_micros.min(MAX_TS_MICROS),
                orig_len,
                data,
            };
            if plan.duplicate_rate > 0.0 && rng.gen_bool(plan.duplicate_rate) {
                stats.packets_duplicated += 1;
                out.push(rec.clone());
            }
            out.push(rec);
        }
        if plan.reorder_rate > 0.0 && out.len() > 1 {
            for i in 0..out.len() {
                if rng.gen_bool(plan.reorder_rate) {
                    let j = (i + rng.gen_range(1..=REORDER_WINDOW)).min(out.len() - 1);
                    if j != i {
                        out.swap(i, j);
                        stats.packets_reordered += 1;
                    }
                }
            }
        }
        out
    }

    /// Byte-level faults over the serialized capture. The 24-byte global
    /// header is never touched (a garbled magic is not salvageable and is
    /// a different failure class, tested separately).
    fn corrupt_bytes(
        &self,
        rng: &mut StdRng,
        records: &[DegradedRecord<'_>],
        bytes: &mut Vec<u8>,
        stats: &mut FaultStats,
    ) {
        let plan = &self.plan;
        if plan.corrupt_header_rate > 0.0 {
            let mut offset = GLOBAL_HEADER_LEN;
            for rec in records {
                if rng.gen_bool(plan.corrupt_header_rate) {
                    for _ in 0..rng.gen_range(1usize..=4) {
                        let at = offset + rng.gen_range(0..RECORD_HEADER_LEN);
                        bytes[at] = rng.gen::<u8>();
                    }
                    stats.headers_corrupted += 1;
                }
                offset += RECORD_HEADER_LEN + rec.data.len();
            }
        }
        if plan.torn_tail_rate > 0.0
            && bytes.len() > GLOBAL_HEADER_LEN + 1
            && rng.gen_bool(plan.torn_tail_rate)
        {
            // Tear within the last ~2 KiB: an interrupted writer loses the
            // end of the file, not its middle.
            let floor = bytes.len().saturating_sub(2048).max(GLOBAL_HEADER_LEN);
            let tear_at = rng.gen_range(floor..bytes.len());
            bytes.truncate(tear_at);
            stats.tails_torn += 1;
        }
    }
}

/// Serializes records (including snaplen-truncated ones) into a
/// [`Capture`] sized exactly up front, so the degraded buffer never
/// reallocates.
fn serialize(records: &[DegradedRecord<'_>]) -> Capture {
    let total: usize = records
        .iter()
        .map(|r| RECORD_HEADER_LEN + r.data.len())
        .sum();
    let mut cap = Capture::with_capacity(total);
    for rec in records {
        cap.push_record(rec.ts_micros, rec.orig_len, &rec.data)
            .expect("perturbed timestamps are clamped to the pcap range");
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_net::pcap;

    fn sample_packets(n: usize) -> Vec<Packet> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n)
            .map(|i| {
                let mut data = vec![0u8; 120 + (i % 5) * 200];
                rng.fill(&mut data);
                Packet::new(1_000_000 * i as u64, data)
            })
            .collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let packets = sample_packets(40);
        let inj = FaultInjector::new(FaultPlan::clean(1));
        let (bytes, stats) = inj.degrade(7, packets.clone());
        assert_eq!(bytes, pcap::to_bytes(&packets).unwrap());
        assert_eq!(stats.packets_in, 40);
        assert_eq!(stats.records_written, 40);
        assert_eq!(stats.packets_dropped, 0);
        assert!(!inj.should_panic(7));
    }

    #[test]
    fn degrade_is_deterministic_per_key() {
        let packets = sample_packets(60);
        let inj = FaultInjector::new(FaultPlan::uniform(42, 0.1));
        let (a, sa) = inj.degrade(5, packets.clone());
        let (b, sb) = inj.degrade(5, packets.clone());
        assert_eq!(a, b, "same key must reproduce the same bytes");
        assert_eq!(sa, sb);
        let (c, _) = inj.degrade(6, packets);
        assert_ne!(a, c, "different keys must degrade differently");
    }

    #[test]
    fn faults_actually_fire_at_high_rate() {
        let packets = sample_packets(200);
        let inj = FaultInjector::new(FaultPlan::uniform(3, 0.3));
        let (_, stats) = inj.degrade(1, packets);
        assert!(stats.packets_dropped > 0);
        assert!(stats.packets_duplicated > 0);
        assert!(stats.packets_truncated > 0);
        assert!(stats.packets_bitflipped > 0);
        assert!(stats.packets_skewed > 0);
        assert!(stats.packets_reordered > 0);
        assert!(stats.headers_corrupted > 0);
        assert_eq!(
            stats.records_written,
            stats.packets_in - stats.packets_dropped + stats.packets_duplicated
        );
    }

    #[test]
    fn panic_decision_is_seeded_and_rate_bound() {
        let on = FaultInjector::new(FaultPlan {
            panic_rate: 0.5,
            ..FaultPlan::clean(11)
        });
        let hits = (0..1000).filter(|&k| on.should_panic(k)).count();
        assert!((350..650).contains(&hits), "hits = {hits}");
        for k in 0..50 {
            assert_eq!(on.should_panic(k), on.should_panic(k));
        }
        let off = FaultInjector::new(FaultPlan::clean(11));
        assert!((0..1000).all(|k| !off.should_panic(k)));
    }

    #[test]
    fn panic_rate_does_not_shift_capture_faults() {
        let packets = sample_packets(80);
        let base = FaultInjector::new(FaultPlan::uniform(9, 0.05));
        let with_panics = FaultInjector::new(FaultPlan {
            panic_rate: 0.9,
            ..FaultPlan::uniform(9, 0.05)
        });
        assert_eq!(
            base.degrade(4, packets.clone()).0,
            with_panics.degrade(4, packets).0
        );
    }

    #[test]
    fn capture_and_packet_entry_points_degrade_identically() {
        // The zero-copy capture path must draw the same faults in the
        // same order as the owned-packet path — byte-identical output,
        // identical stats — or captures degraded through `degrade` (as
        // the benchmark's pcap set-up does) would differ from what the
        // pipeline's `degrade_capture` produces.
        let packets = sample_packets(120);
        let cap = Capture::from_packets(&packets).unwrap();
        for plan in [
            FaultPlan::clean(5),
            FaultPlan::uniform(5, 0.05),
            FaultPlan::uniform(5, 0.3),
        ] {
            let inj = FaultInjector::new(plan);
            let (a, sa) = inj.degrade(9, packets.clone());
            let (b, sb) = inj.degrade_capture(9, &cap);
            assert_eq!(a, b, "{plan:?}: bytes diverged");
            assert_eq!(sa, sb, "{plan:?}: stats diverged");
        }
    }

    #[test]
    fn skew_past_format_limit_clamps_instead_of_wrapping() {
        // A packet already at the edge of the pcap timestamp range must
        // not wrap to 1970 when skewed forward.
        let pkt = Packet::new(MAX_TS_MICROS - 2, vec![0xAB; 64]);
        let inj = FaultInjector::new(FaultPlan {
            skew_rate: 1.0,
            ..FaultPlan::clean(3)
        });
        // Try several keys so at least one draws a forward skew.
        let mut saw_forward_clamp = false;
        for key in 0..64 {
            let (bytes, stats) = inj.degrade(key, vec![pkt.clone()]);
            assert_eq!(stats.packets_skewed, 1);
            let (got, sstats) = iot_net::pcap::from_bytes_lenient(&bytes).unwrap();
            assert!(sstats.is_pristine(), "clamped record must stay readable");
            assert_eq!(got.len(), 1);
            if got[0].ts_micros >= pkt.ts_micros {
                assert!(got[0].ts_micros <= MAX_TS_MICROS);
                saw_forward_clamp = true;
            }
        }
        assert!(saw_forward_clamp, "no key drew a forward skew");
    }

    #[test]
    fn stats_merge_adds() {
        let packets = sample_packets(100);
        let inj = FaultInjector::new(FaultPlan::uniform(2, 0.2));
        let (_, a) = inj.degrade(1, packets.clone());
        let (_, b) = inj.degrade(2, packets);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.packets_in, a.packets_in + b.packets_in);
        assert_eq!(
            merged.packets_dropped,
            a.packets_dropped + b.packets_dropped
        );
        assert_eq!(merged.tails_torn, a.tails_torn + b.tails_torn);
    }
}
