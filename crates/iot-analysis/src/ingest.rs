//! Ingest accounting and quarantine: what the pipeline generated, what
//! survived degradation and salvage, and what had to be given up.
//!
//! Real gateway captures arrive damaged — dropped packets, snaplen
//! truncation, torn file tails (§3.2's tcpdump-per-MAC collection runs
//! for months unattended). The pipeline's salvage path absorbs those
//! faults instead of aborting, and [`IngestStats`] is its ledger: every
//! packet offered to ingestion is accounted for exactly once, so
//!
//! ```text
//! packets_generated + packets_duplicated + packets_reoffered
//!     == packets_ingested + packets_dropped + packets_lost
//!        + packets_quarantined + packets_retried
//! ```
//!
//! holds for every run ([`IngestStats::reconciles`], gated by
//! `chaos_check`). The retry terms extend the original equation for
//! supervised campaigns: a re-attempted experiment *re-offers* its
//! pristine packets to a fresh degradation pass (`packets_reoffered` on
//! the generated side), and each failed-but-not-final attempt's
//! salvaged packets are parked as `packets_retried` instead of being
//! quarantined. With supervision off, every retry term is zero and the
//! equation reduces to the original. Like every other pipeline
//! accumulator, the stats are kept per work unit and merged
//! associatively, so every worker count produces byte-identical
//! totals.

use iot_core::json::{Json, ToJson};
use std::collections::BTreeMap;

/// Per-run ingest ledger. All fields are additive counters; see the
/// module docs for the conservation invariant tying them together.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Packets produced by experiment generation, before any faults.
    pub packets_generated: u64,
    /// Extra packet copies inserted by fault-injected duplication.
    pub packets_duplicated: u64,
    /// Packets removed by fault-injected drops (uniform + bursty).
    pub packets_dropped: u64,
    /// Packets lost at salvage time: frames consumed by corrupt record
    /// headers, resynchronization scans, or torn file tails.
    pub packets_lost: u64,
    /// Packets that reached the analyses.
    pub packets_ingested: u64,
    /// Packets belonging to experiments whose ingest panicked and was
    /// quarantined.
    pub packets_quarantined: u64,
    /// Salvaged records that were snaplen-truncated
    /// (`incl_len < orig_len`); a subset of `packets_ingested`.
    pub packets_truncated: u64,
    /// Frames that salvage recovered but frame parsing rejected
    /// (garbled payloads); a subset of `packets_ingested` — they still
    /// reached the analyses, which classified them as unparseable.
    pub packets_unparseable: u64,
    /// pcap record headers the fault injector garbled.
    pub records_corrupted: u64,
    /// Salvage resynchronization events across all captures.
    pub salvage_resyncs: u64,
    /// Bytes discarded while resynchronizing.
    pub salvage_bytes_skipped: u64,
    /// Bytes lost to torn capture tails.
    pub torn_tail_bytes: u64,
    /// Experiments fully ingested.
    pub experiments_ingested: u64,
    /// Experiments quarantined after a panic at the ingest boundary.
    pub experiments_quarantined: u64,
    /// Work units lost to a panic that escaped the per-experiment
    /// boundary; each is neither journaled nor folded, so a resume
    /// re-runs it.
    pub shards_quarantined: u64,
    /// Packets re-offered to degradation by retry attempts (the
    /// pristine capture replayed once per re-attempt).
    pub packets_reoffered: u64,
    /// Salvaged packets from failed attempts that were retried rather
    /// than quarantined (the balancing term for `packets_reoffered`).
    pub packets_retried: u64,
    /// Total re-attempts across all experiments (attempt 0 not
    /// counted).
    pub retry_attempts: u64,
    /// Experiments that failed at least once and then succeeded on a
    /// re-attempt. Disjoint from `experiments_ingested`.
    pub experiments_retried: u64,
    /// Experiments abandoned after exhausting every retry. Disjoint
    /// from `experiments_quarantined`, which stays "failed permanently
    /// with no retry budget" so un-supervised ledgers are unchanged.
    pub experiments_abandoned: u64,
    /// Error counts per pipeline stage (`salvage`, `salvage_loss`,
    /// `flows_parse`, `ingest_panic`, `stall_deadline`,
    /// `worker_panic`). Sorted, so JSON is stable.
    pub stage_errors: BTreeMap<&'static str, u64>,
}

impl IngestStats {
    /// Bumps the error count of one stage.
    pub fn add_stage_error(&mut self, stage: &'static str) {
        *self.stage_errors.entry(stage).or_insert(0) += 1;
    }

    /// Folds another shard's ledger into this one. Addition only, so
    /// merging is associative and commutative — the contract that keeps
    /// serial and parallel reports byte-identical.
    pub fn merge(&mut self, other: &IngestStats) {
        self.packets_generated += other.packets_generated;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_dropped += other.packets_dropped;
        self.packets_lost += other.packets_lost;
        self.packets_ingested += other.packets_ingested;
        self.packets_quarantined += other.packets_quarantined;
        self.packets_truncated += other.packets_truncated;
        self.packets_unparseable += other.packets_unparseable;
        self.records_corrupted += other.records_corrupted;
        self.salvage_resyncs += other.salvage_resyncs;
        self.salvage_bytes_skipped += other.salvage_bytes_skipped;
        self.torn_tail_bytes += other.torn_tail_bytes;
        self.experiments_ingested += other.experiments_ingested;
        self.experiments_quarantined += other.experiments_quarantined;
        self.shards_quarantined += other.shards_quarantined;
        self.packets_reoffered += other.packets_reoffered;
        self.packets_retried += other.packets_retried;
        self.retry_attempts += other.retry_attempts;
        self.experiments_retried += other.experiments_retried;
        self.experiments_abandoned += other.experiments_abandoned;
        for (stage, n) in &other.stage_errors {
            *self.stage_errors.entry(stage).or_insert(0) += n;
        }
    }

    /// The conservation invariant: every generated, fault-duplicated,
    /// or retry-re-offered packet is ingested, dropped, lost at
    /// salvage, quarantined, or parked by a retried attempt. With no
    /// retries this reduces to the original PR 3 equation.
    pub fn reconciles(&self) -> bool {
        self.packets_generated + self.packets_duplicated + self.packets_reoffered
            == self.packets_ingested
                + self.packets_dropped
                + self.packets_lost
                + self.packets_quarantined
                + self.packets_retried
    }

    /// True when ingestion saw no degradation at all — the ledger a
    /// clean capture must produce.
    pub fn is_clean(&self) -> bool {
        self.packets_generated == self.packets_ingested
            && self.packets_dropped == 0
            && self.packets_lost == 0
            && self.packets_quarantined == 0
            && self.experiments_quarantined == 0
            && self.shards_quarantined == 0
            && self.packets_reoffered == 0
            && self.packets_retried == 0
            && self.retry_attempts == 0
            && self.experiments_retried == 0
            && self.experiments_abandoned == 0
            && self.stage_errors.is_empty()
    }
}

impl ToJson for IngestStats {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("packets_generated", self.packets_generated.to_json());
        j.set("packets_duplicated", self.packets_duplicated.to_json());
        j.set("packets_dropped", self.packets_dropped.to_json());
        j.set("packets_lost", self.packets_lost.to_json());
        j.set("packets_ingested", self.packets_ingested.to_json());
        j.set("packets_quarantined", self.packets_quarantined.to_json());
        j.set("packets_truncated", self.packets_truncated.to_json());
        j.set("packets_unparseable", self.packets_unparseable.to_json());
        j.set("records_corrupted", self.records_corrupted.to_json());
        j.set("salvage_resyncs", self.salvage_resyncs.to_json());
        j.set(
            "salvage_bytes_skipped",
            self.salvage_bytes_skipped.to_json(),
        );
        j.set("torn_tail_bytes", self.torn_tail_bytes.to_json());
        j.set(
            "experiments_ingested",
            self.experiments_ingested.to_json(),
        );
        j.set(
            "experiments_quarantined",
            self.experiments_quarantined.to_json(),
        );
        j.set("shards_quarantined", self.shards_quarantined.to_json());
        j.set("packets_reoffered", self.packets_reoffered.to_json());
        j.set("packets_retried", self.packets_retried.to_json());
        j.set("retry_attempts", self.retry_attempts.to_json());
        j.set("experiments_retried", self.experiments_retried.to_json());
        j.set(
            "experiments_abandoned",
            self.experiments_abandoned.to_json(),
        );
        let mut errs = Json::obj();
        for (stage, n) in &self.stage_errors {
            errs.set(stage, n.to_json());
        }
        j.set("stage_errors", errs);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean_and_reconciles() {
        let s = IngestStats::default();
        assert!(s.is_clean());
        assert!(s.reconciles());
    }

    #[test]
    fn merge_is_additive_and_keyed() {
        let mut a = IngestStats {
            packets_generated: 10,
            packets_ingested: 8,
            packets_dropped: 2,
            ..IngestStats::default()
        };
        a.add_stage_error("salvage");
        let mut b = IngestStats {
            packets_generated: 5,
            packets_ingested: 5,
            ..IngestStats::default()
        };
        b.add_stage_error("salvage");
        b.add_stage_error("ingest_panic");
        a.merge(&b);
        assert_eq!(a.packets_generated, 15);
        assert_eq!(a.packets_ingested, 13);
        assert_eq!(a.stage_errors["salvage"], 2);
        assert_eq!(a.stage_errors["ingest_panic"], 1);
        assert!(a.reconciles());
        assert!(!a.is_clean());
    }

    #[test]
    fn reconciliation_catches_leaks() {
        let s = IngestStats {
            packets_generated: 10,
            packets_ingested: 8,
            packets_dropped: 1,
            ..IngestStats::default()
        };
        assert!(!s.reconciles(), "one packet is unaccounted for");
    }

    #[test]
    fn retry_terms_balance_the_ledger() {
        // One experiment of 10 packets: attempt 0 fails (8 salvaged
        // parked as retried, 2 dropped), attempt 1 re-offers the 10
        // pristine packets and succeeds with 9 ingested, 1 dropped.
        let s = IngestStats {
            packets_generated: 10,
            packets_reoffered: 10,
            packets_retried: 8,
            packets_dropped: 3,
            packets_ingested: 9,
            retry_attempts: 1,
            experiments_retried: 1,
            ..IngestStats::default()
        };
        assert!(s.reconciles());
        assert!(!s.is_clean());
    }

    #[test]
    fn retry_fields_merge_and_dirty_the_ledger() {
        let a = IngestStats {
            packets_generated: 4,
            packets_ingested: 4,
            retry_attempts: 2,
            packets_reoffered: 8,
            packets_retried: 8,
            experiments_abandoned: 1,
            ..IngestStats::default()
        };
        let mut m = a.clone();
        m.merge(&a);
        assert_eq!(m.retry_attempts, 4);
        assert_eq!(m.packets_reoffered, 16);
        assert_eq!(m.experiments_abandoned, 2);
        assert!(!a.is_clean(), "retries are degradation");
    }

    #[test]
    fn json_has_every_field_and_stable_order() {
        let mut s = IngestStats {
            packets_generated: 3,
            packets_ingested: 3,
            ..IngestStats::default()
        };
        s.add_stage_error("flows_parse");
        let dump = s.to_json().dump();
        for key in [
            "packets_generated",
            "packets_lost",
            "experiments_quarantined",
            "shards_quarantined",
            "packets_reoffered",
            "packets_retried",
            "retry_attempts",
            "experiments_retried",
            "experiments_abandoned",
            "stage_errors",
            "flows_parse",
        ] {
            assert!(dump.contains(key), "missing {key} in {dump}");
        }
        assert_eq!(dump, s.to_json().dump(), "serialization is stable");
    }
}
