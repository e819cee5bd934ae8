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
//! packets_generated + packets_duplicated
//!     == packets_ingested + packets_dropped + packets_lost
//!        + packets_quarantined
//! ```
//!
//! holds for every run ([`IngestStats::reconciles`], gated by the
//! oracle, clean and at every fault rate it sweeps). Like every other
//! pipeline accumulator, the stats are kept per work unit and merged
//! associatively, so every worker count produces byte-identical totals.

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
    /// Always zero, and neither merged, serialized nor journaled. It
    /// stays only because `perfbench` reads it into its failure count,
    /// and goes with the next benchmark-definition change (ROADMAP
    /// item 1).
    pub experiments_abandoned: u64,
    /// Error counts per pipeline stage (`salvage`, `flows_parse`,
    /// `ingest_panic`, `worker_panic`). Sorted, so JSON is stable.
    pub stage_errors: BTreeMap<&'static str, u64>,
}

impl IngestStats {
    /// Bumps the error count of one stage.
    pub fn add_stage_error(&mut self, stage: &'static str) {
        *self.stage_errors.entry(stage).or_insert(0) += 1;
    }

    /// The ledger's counters with their names, in report order: the one
    /// list that [`IngestStats::merge`], the JSON report, the journal
    /// codec and the pipeline's metric mirror read.
    pub(crate) fn counters_mut(&mut self) -> [(&'static str, &mut u64); 15] {
        [
            ("packets_generated", &mut self.packets_generated),
            ("packets_duplicated", &mut self.packets_duplicated),
            ("packets_dropped", &mut self.packets_dropped),
            ("packets_lost", &mut self.packets_lost),
            ("packets_ingested", &mut self.packets_ingested),
            ("packets_quarantined", &mut self.packets_quarantined),
            ("packets_truncated", &mut self.packets_truncated),
            ("packets_unparseable", &mut self.packets_unparseable),
            ("records_corrupted", &mut self.records_corrupted),
            ("salvage_resyncs", &mut self.salvage_resyncs),
            ("salvage_bytes_skipped", &mut self.salvage_bytes_skipped),
            ("torn_tail_bytes", &mut self.torn_tail_bytes),
            ("experiments_ingested", &mut self.experiments_ingested),
            ("experiments_quarantined", &mut self.experiments_quarantined),
            ("shards_quarantined", &mut self.shards_quarantined),
        ]
    }

    /// The names and values of [`IngestStats::counters_mut`], read off a
    /// copy of the counters (an empty stage map allocates nothing).
    pub(crate) fn counters(&self) -> [(&'static str, u64); 15] {
        let mut copy = IngestStats {
            stage_errors: BTreeMap::new(),
            ..*self
        };
        copy.counters_mut().map(|(name, value)| (name, *value))
    }

    /// Folds another shard's ledger into this one. Addition only, so
    /// merging is associative and commutative — the contract that keeps
    /// serial and parallel reports byte-identical.
    pub fn merge(&mut self, other: &IngestStats) {
        for ((_, mine), (_, theirs)) in self.counters_mut().into_iter().zip(other.counters()) {
            *mine += theirs;
        }
        for (stage, n) in &other.stage_errors {
            *self.stage_errors.entry(stage).or_insert(0) += n;
        }
    }

    /// The conservation invariant: every generated or fault-duplicated
    /// packet is ingested, dropped, lost at salvage, or quarantined.
    pub fn reconciles(&self) -> bool {
        self.packets_generated + self.packets_duplicated
            == self.packets_ingested
                + self.packets_dropped
                + self.packets_lost
                + self.packets_quarantined
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
            && self.stage_errors.is_empty()
    }
}

impl ToJson for IngestStats {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for (name, value) in self.counters() {
            j.set(name, value.to_json());
        }
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
            "stage_errors",
            "flows_parse",
        ] {
            assert!(dump.contains(key), "missing {key} in {dump}");
        }
        assert_eq!(dump, s.to_json().dump(), "serialization is stable");
    }
}
