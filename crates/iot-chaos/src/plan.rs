//! The fault model: which degradations to apply, and how often. A plan
//! sets the seed and the rates; the shape of each fault is fixed.

/// Inclusive range of a drop burst's length, in packets.
pub(crate) const BURST_LEN: (u32, u32) = (2, 8);
/// The capture cap a truncation fault applies, in bytes.
pub(crate) const SNAPLEN: usize = 96;
/// Maximum displacement of a reordered packet, in packets.
pub(crate) const REORDER_WINDOW: usize = 4;
/// Maximum absolute timestamp perturbation of a skew fault, in
/// microseconds.
pub(crate) const SKEW_MAX_MICROS: u64 = 2_000_000;

/// A seeded, declarative description of capture degradation. All rates
/// are probabilities in `[0, 1]`; a rate of zero disables that fault
/// class entirely (and consumes no randomness for it, record-by-record
/// decisions aside). [`FaultPlan::clean`] is the identity plan: a
/// degrade pass under it returns the input capture bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Base seed; combined with the per-stream key so each capture
    /// stream gets an independent deterministic fault pattern.
    pub seed: u64,
    /// Per-packet probability of a uniform (isolated) drop.
    pub drop_rate: f64,
    /// Per-packet probability that a drop *burst* of 2–8 packets starts
    /// here.
    pub burst_rate: f64,
    /// Per-packet probability of snaplen truncation to 96 bytes
    /// (`incl_len < orig_len`, like tcpdump `-s`).
    pub truncate_rate: f64,
    /// Per-packet probability of duplication.
    pub duplicate_rate: f64,
    /// Per-packet probability of being displaced forward in the stream,
    /// by up to 4 packets.
    pub reorder_rate: f64,
    /// Per-packet probability of payload bit corruption (1–4 flipped
    /// bits somewhere in the frame).
    pub bitflip_rate: f64,
    /// Per-packet probability of timestamp skew by up to 2 s; half of
    /// skew events step the clock *backwards* (regression), so faulted
    /// captures are not monotonic.
    pub skew_rate: f64,
    /// Per-record probability that the 16-byte pcap record header is
    /// garbled on disk (random bytes overwritten).
    pub corrupt_header_rate: f64,
    /// Probability that the capture file's tail is torn off mid-record
    /// (interrupted tcpdump / full disk).
    pub torn_tail_rate: f64,
    /// Per-stream probability of an injected ingest panic, for
    /// exercising the pipeline's quarantine path. Not a capture fault:
    /// the capture bytes are untouched; the consumer is expected to ask
    /// [`crate::FaultInjector::should_panic`] and blow up on `true`.
    pub panic_rate: f64,
}

impl FaultPlan {
    /// The identity plan: all fault classes off.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            burst_rate: 0.0,
            truncate_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            bitflip_rate: 0.0,
            skew_rate: 0.0,
            corrupt_header_rate: 0.0,
            torn_tail_rate: 0.0,
            panic_rate: 0.0,
        }
    }

    /// Every packet- and byte-level fault class at the same `rate`
    /// (panic injection stays off) — the knob the oracle's fault sweep
    /// turns.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            drop_rate: rate,
            burst_rate: rate / 4.0,
            truncate_rate: rate,
            duplicate_rate: rate,
            reorder_rate: rate,
            bitflip_rate: rate,
            skew_rate: rate,
            corrupt_header_rate: rate,
            torn_tail_rate: rate,
            ..FaultPlan::clean(seed)
        }
    }

    /// True when no *capture* fault class can fire (panic injection
    /// aside — it never touches the capture bytes).
    pub fn is_clean(&self) -> bool {
        self.drop_rate == 0.0
            && self.burst_rate == 0.0
            && self.truncate_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.bitflip_rate == 0.0
            && self.skew_rate == 0.0
            && self.corrupt_header_rate == 0.0
            && self.torn_tail_rate == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_is_clean() {
        assert!(FaultPlan::clean(7).is_clean());
        assert!(!FaultPlan::uniform(7, 0.01).is_clean());
        assert!(FaultPlan::uniform(7, 0.0).is_clean());
    }

    #[test]
    fn uniform_sets_every_rate() {
        let p = FaultPlan::uniform(1, 0.2);
        assert_eq!(p.drop_rate, 0.2);
        assert_eq!(p.truncate_rate, 0.2);
        assert_eq!(p.torn_tail_rate, 0.2);
        assert_eq!(p.panic_rate, 0.0, "panics are opt-in");
    }
}
