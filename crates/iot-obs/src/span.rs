//! Aggregated span statistics.
//!
//! A span is a timed region of code identified by its hierarchical label
//! path (e.g. `ingest/flows`). Individual executions are not retained;
//! each path aggregates into a [`SpanStats`] — call count plus total /
//! min / max wall-clock — which merges across shards like every other
//! metric.
//!
//! Because the path carries its whole ancestry, the span paths form a
//! call tree: [`crate::export::folded_stacks`] renders it as a
//! collapsed-stack profile, each path weighted by its self time.

use iot_core::json::{Json, ToJson};

/// Aggregate timing of one span label path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed executions.
    pub calls: u64,
    /// Total wall-clock nanoseconds across executions.
    pub total_ns: u64,
    /// Fastest execution.
    pub min_ns: u64,
    /// Slowest execution.
    pub max_ns: u64,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            calls: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl SpanStats {
    /// Records one completed execution.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds `other` into `self` (order-independent).
    pub fn merge(&mut self, other: &SpanStats) {
        self.calls += other.calls;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total wall-clock in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean wall-clock per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ms() / self.calls as f64
        }
    }
}

impl ToJson for SpanStats {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("calls", self.calls.to_json());
        j.set("total_ms", self.total_ms().to_json());
        j.set("mean_ms", self.mean_ms().to_json());
        j.set(
            "min_ms",
            if self.calls == 0 { 0.0 } else { self.min_ns as f64 / 1e6 }.to_json(),
        );
        j.set("max_ms", (self.max_ns as f64 / 1e6).to_json());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_agree() {
        let mut serial = SpanStats::default();
        for ns in [10u64, 30, 20] {
            serial.record(ns);
        }
        let mut a = SpanStats::default();
        a.record(10);
        let mut b = SpanStats::default();
        b.record(30);
        b.record(20);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, serial);
        assert_eq!(ba, serial);
        assert_eq!(serial.calls, 3);
        assert_eq!(serial.total_ns, 60);
        assert_eq!(serial.min_ns, 10);
        assert_eq!(serial.max_ns, 30);
    }

    #[test]
    fn json_shape() {
        let mut s = SpanStats::default();
        s.record(2_000_000);
        let j = s.to_json().dump();
        assert!(j.contains("\"calls\":1"), "{j}");
        assert!(j.contains("\"total_ms\":2.0"), "{j}");
    }
}
