//! Machine-readable run reports.
//!
//! A [`RunReport`] snapshots a [`Registry`] plus free-form metadata and
//! renders it three ways:
//!
//! * [`RunReport::to_json`] — the full report: metadata, process-wide
//!   allocator totals and peak RSS, span timings, counters, gauges, and
//!   histograms. Sorted
//!   (`BTreeMap`) keys and `iot_core::json`'s stable float formatting
//!   make the *serialization* deterministic; the timing *values* are
//!   run-dependent by nature.
//! * [`RunReport::deterministic_json`] — the subset whose values are a
//!   pure function of the analyzed corpus: counters and histograms.
//!   This is what the determinism tests byte-compare across 1/2/8
//!   workers; span wall-clocks, per-worker gauges, and process totals
//!   are excluded because they legitimately vary with scheduling.
//! * [`RunReport::stage_table`] — a human-readable per-stage table.

use crate::metrics::Histogram;
use crate::registry::{Registry, Snapshot};
use iot_core::json::{Json, ToJson};

/// A finished run's observability report.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name (which driver/binary produced it).
    pub name: String,
    /// Free-form metadata pairs, in insertion order.
    pub meta: Vec<(String, String)>,
    snapshot: Snapshot,
}

impl RunReport {
    /// Snapshots `reg` into a report named `name`.
    pub fn from_registry(name: &str, reg: &Registry) -> Self {
        RunReport {
            name: name.to_string(),
            meta: Vec::new(),
            snapshot: reg.snapshot(),
        }
    }

    /// Adds a metadata pair (builder style).
    pub fn meta(mut self, key: &str, value: &str) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// The full report.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("report", self.name.to_json());
        let mut meta = Json::obj();
        for (k, v) in &self.meta {
            meta.set(k, v.to_json());
        }
        j.set("meta", meta);
        j.set("process", crate::process::snapshot_json());
        let mut spans = Json::obj();
        for (path, hist) in &self.snapshot.spans {
            let mut s = span_json(hist);
            // Quantiles come from the same histogram — the same buckets
            // the Prometheus exporter emits.
            if let Some((p50, p95)) = self.span_quantiles_ms(path) {
                s.set("p50_ms", p50.to_json());
                s.set("p95_ms", p95.to_json());
            }
            // Heap traffic charged to the span while it was open — only
            // present when the instrumented allocator was counting, so
            // a report without heap counting serializes exactly as
            // before.
            if let Some(a) = self.snapshot.span_allocs.get(path) {
                s.set("alloc_bytes", a.bytes_allocated.to_json());
                s.set("allocs", a.allocs.to_json());
                s.set("freed_bytes", a.bytes_freed.to_json());
                s.set("frees", a.frees.to_json());
            }
            spans.set(path, s);
        }
        j.set("spans", spans);
        j.set("counters", self.counters_json());
        let mut gauges = Json::obj();
        for (k, v) in &self.snapshot.gauges {
            gauges.set(k, v.to_json());
        }
        j.set("gauges", gauges);
        j.set("histograms", self.histograms_json());
        j
    }

    /// The corpus-determined subset: counters and histograms only, plus
    /// span *call counts* for per-item spans would vary with sharding,
    /// so spans are omitted entirely.
    pub fn deterministic_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("counters", self.counters_json());
        j.set("histograms", self.histograms_json());
        j
    }

    fn counters_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.snapshot.counters {
            counters.set(k, v.to_json());
        }
        counters
    }

    fn histograms_json(&self) -> Json {
        let mut hists = Json::obj();
        for (k, h) in &self.snapshot.histograms {
            hists.set(k, h.to_json());
        }
        hists
    }

    /// Per-call p50/p95 of a span path in milliseconds, derived from the
    /// duration histogram's bucket bounds (nearest-rank on the inclusive
    /// upper bound — identical to what a Prometheus query over the
    /// exported `iot_span_duration_ns` buckets resolves to).
    pub fn span_quantiles_ms(&self, path: &str) -> Option<(f64, f64)> {
        let h = self.snapshot.spans.get(path)?;
        let p50 = h.quantile_upper_bound(0.5)? as f64 / 1e6;
        let p95 = h.quantile_upper_bound(0.95)? as f64 / 1e6;
        Some((p50, p95))
    }

    /// Renders the spans as an aligned text table: one row per label
    /// path with call count, total/mean wall-clock, histogram-derived
    /// per-call p50/p95, and the percentage column relative to the total
    /// wall-clock of the top-level (un-nested) spans.
    pub fn stage_table(&self) -> String {
        let rows: Vec<(String, u64, f64, f64, f64, f64)> = self
            .snapshot
            .spans
            .iter()
            .map(|(p, h)| {
                let (p50, p95) = self.span_quantiles_ms(p).unwrap_or((0.0, 0.0));
                (p.clone(), h.count(), total_ms(h), mean_ms(h), p50, p95)
            })
            .collect();
        let root_total_ms: f64 = self
            .snapshot
            .spans
            .iter()
            .filter(|(p, _)| !p.contains('/'))
            .map(|(_, h)| total_ms(h))
            .sum();
        let name_w = rows
            .iter()
            .map(|(p, ..)| p.len())
            .chain(["stage".len()])
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>10}  {:>6}\n",
            "stage", "calls", "total_ms", "mean_ms", "p50_ms", "p95_ms", "%"
        ));
        for (path, calls, total, mean, p50, p95) in rows {
            let pct = if root_total_ms > 0.0 {
                total * 100.0 / root_total_ms
            } else {
                0.0
            };
            out.push_str(&format!(
                "{path:<name_w$}  {calls:>9}  {total:>12.3}  {mean:>10.4}  \
                 {p50:>10.4}  {p95:>10.4}  {pct:>6.1}\n"
            ));
        }
        out
    }
}

/// A span's total wall-clock in milliseconds.
fn total_ms(h: &Histogram) -> f64 {
    h.sum() as f64 / 1e6
}

/// A span's mean wall-clock per call in milliseconds (0 when never
/// called).
fn mean_ms(h: &Histogram) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        total_ms(h) / h.count() as f64
    }
}

/// A span's aggregate row: calls, total, mean, min and max wall-clock.
fn span_json(h: &Histogram) -> Json {
    let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
    let mut j = Json::obj();
    j.set("calls", h.count().to_json());
    j.set("total_ms", total_ms(h).to_json());
    j.set("mean_ms", mean_ms(h).to_json());
    j.set("min_ms", ms(h.min()).to_json());
    j.set("max_ms", ms(h.max()).to_json());
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_registry() -> Registry {
        let r = Registry::with_enabled(true);
        r.add("experiments", 10);
        r.add("flows", 55);
        r.observe("flow_bytes", 100);
        r.observe("flow_bytes", 4000);
        r.set_gauge("workers", 2.0);
        r.record_ns("pipeline", Duration::from_millis(12));
        r.record_ns("pipeline/ingest", Duration::from_millis(9));
        r
    }

    #[test]
    fn full_report_has_all_sections() {
        let reg = sample_registry();
        let j = RunReport::from_registry("test", &reg)
            .meta("scale", "quick")
            .to_json();
        for key in ["report", "meta", "process", "spans", "counters", "gauges", "histograms"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            j.get("counters").and_then(|c| c.get("experiments")),
            Some(&Json::UInt(10))
        );
        assert_eq!(
            j.get("meta").and_then(|m| m.get("scale")),
            Some(&Json::Str("quick".into()))
        );
    }

    #[test]
    fn span_rows_come_from_the_duration_histogram() {
        let reg = sample_registry();
        reg.record_ns("pipeline", Duration::from_millis(3));
        let j = RunReport::from_registry("test", &reg).to_json();
        let span = j.get("spans").and_then(|s| s.get("pipeline")).unwrap();
        let field = |k: &str| span.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(span.get("calls"), Some(&Json::UInt(2)));
        assert_eq!(field("total_ms"), 15.0);
        assert_eq!(field("mean_ms"), 7.5);
        assert_eq!(field("min_ms"), 3.0);
        assert_eq!(field("max_ms"), 12.0);
        assert!(field("p50_ms") >= 3.0 && field("p95_ms") >= 12.0);
    }

    #[test]
    fn deterministic_json_excludes_run_dependent_sections() {
        let reg = sample_registry();
        let report = RunReport::from_registry("test", &reg);
        let det = report.deterministic_json();
        assert!(det.get("counters").is_some());
        assert!(det.get("histograms").is_some());
        assert!(det.get("spans").is_none());
        assert!(det.get("gauges").is_none());
        assert!(det.get("process").is_none());
        // Byte-stable across identical registries.
        let again = RunReport::from_registry("other-name", &sample_registry());
        assert_eq!(det.dump(), again.deterministic_json().dump());
    }

    #[test]
    fn stage_table_lists_every_path() {
        let reg = sample_registry();
        let table = RunReport::from_registry("test", &reg).stage_table();
        assert!(table.contains("pipeline"), "{table}");
        assert!(table.contains("pipeline/ingest"), "{table}");
        assert!(table.lines().count() >= 3);
        // Child shows up as ~75% of the root wall-clock.
        assert!(table.contains("75.0"), "{table}");
    }

    #[test]
    fn alloc_sections_appear_only_when_recorded() {
        let quiet = RunReport::from_registry("test", &sample_registry());
        let j = quiet.to_json();
        let span = j.get("spans").and_then(|s| s.get("pipeline")).unwrap();
        assert!(span.get("alloc_bytes").is_none());

        let reg = sample_registry();
        reg.record_alloc(
            "pipeline",
            crate::alloc::AllocStats {
                bytes_allocated: 2_000_000,
                allocs: 7,
                bytes_freed: 1_500_000,
                frees: 5,
            },
        );
        let loud = RunReport::from_registry("test", &reg);
        let j = loud.to_json();
        let span = j.get("spans").and_then(|s| s.get("pipeline")).unwrap();
        assert_eq!(span.get("alloc_bytes"), Some(&Json::UInt(2_000_000)));
        assert_eq!(span.get("allocs"), Some(&Json::UInt(7)));
        assert_eq!(span.get("freed_bytes"), Some(&Json::UInt(1_500_000)));
        assert_eq!(span.get("frees"), Some(&Json::UInt(5)));
        // The deterministic subset never carries alloc data.
        assert_eq!(
            loud.deterministic_json().dump(),
            quiet.deterministic_json().dump()
        );
    }
}
