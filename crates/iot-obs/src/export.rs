//! Exporters: the registry snapshot as Prometheus text exposition or as
//! a folded-stack profile of its span tree.
//!
//! ## Prometheus
//!
//! [`prometheus`] renders a [`Snapshot`] in text exposition format 0.0.4
//! (`# TYPE` comments, `_total` counters, histogram `_bucket`/`_sum`/
//! `_count` series). Histogram `le` bounds come from
//! [`Histogram::bucket_upper_bound`] — the *same* bounds every quantile
//! query in the run report uses, so a p95 read from the stage table and
//! a p95 computed from the scraped buckets can never disagree. Span
//! aggregates export as `iot_span_calls_total{span="…"}` counters and
//! `iot_span_duration_ns{span="…"}` histograms.
//!
//! ## Folded profile
//!
//! [`folded_stacks`] renders a [`Snapshot`]'s span tree in the
//! collapsed-stack format `flamegraph.pl` and speedscope both ingest:
//! one `frame;frame;... µs` line per span path (`/` becomes `;`),
//! weighted by the path's *self* time — its total minus the totals of
//! its direct child paths. The weights of a tree therefore add up to
//! its root's total, less each line's sub-microsecond remainder, and
//! equal snapshots render the same bytes.

use crate::metrics::Histogram;
use crate::registry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a metric name to a Prometheus-safe identifier: `iot_` prefix,
/// every character outside `[a-zA-Z0-9_]` folded to `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("iot_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The `le` label value of bucket `i` — the same inclusive upper bound
/// [`Histogram::quantile_upper_bound`] resolves to.
fn le_value(i: usize) -> String {
    if i >= Histogram::NUM_BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        Histogram::bucket_upper_bound(i).to_string()
    }
}

fn write_histogram(out: &mut String, family: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, &n) in h.bucket_counts().iter().enumerate() {
        cumulative += n;
        let _ = writeln!(
            out,
            "{family}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            le_value(i)
        );
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{family}_sum{braces} {}", h.sum());
    let _ = writeln!(out, "{family}_count{braces} {}", h.count());
}

/// Renders a registry snapshot in Prometheus text exposition format.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let family = format!("{}_total", sanitize(name));
        let _ = writeln!(out, "# TYPE {family} counter");
        let _ = writeln!(out, "{family} {value}");
    }
    for (name, value) in &snap.gauges {
        let family = sanitize(name);
        let _ = writeln!(out, "# TYPE {family} gauge");
        let _ = writeln!(out, "{family} {}", iot_core::json::fmt_f64(*value));
    }
    for (name, h) in &snap.histograms {
        let family = sanitize(name);
        let _ = writeln!(out, "# TYPE {family} histogram");
        write_histogram(&mut out, &family, "", h);
    }
    if !snap.spans.is_empty() {
        let _ = writeln!(out, "# TYPE iot_span_calls_total counter");
        for (path, h) in &snap.spans {
            let _ = writeln!(
                out,
                "iot_span_calls_total{{span=\"{}\"}} {}",
                escape_label(path),
                h.count()
            );
        }
        let _ = writeln!(out, "# TYPE iot_span_duration_ns histogram");
        for (path, h) in &snap.spans {
            let labels = format!("span=\"{}\"", escape_label(path));
            write_histogram(&mut out, "iot_span_duration_ns", &labels, h);
        }
    }
    // Memory series — absent unless the instrumented allocator counted
    // (span_allocs drops all-zero entries), so a scrape of a run without
    // heap counting is byte-identical to the pre-memory exposition.
    if !snap.span_allocs.is_empty() {
        for (family, pick) in [
            ("iot_span_alloc_bytes_total", 0usize),
            ("iot_span_allocs_total", 1),
            ("iot_span_freed_bytes_total", 2),
            ("iot_span_frees_total", 3),
        ] {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (path, a) in &snap.span_allocs {
                let v = [a.bytes_allocated, a.allocs, a.bytes_freed, a.frees][pick];
                let _ = writeln!(out, "{family}{{span=\"{}\"}} {v}", escape_label(path));
            }
        }
    }
    out
}

/// Renders the snapshot's span tree in collapsed-stack ("folded")
/// format: `shard;ingest;flows 123` per span path, weighted by the
/// path's self time in whole microseconds. Paths with less than 1 µs of
/// self time are left out, and lines follow the snapshot's sorted
/// paths, so equal snapshots render byte-identically.
pub fn folded_stacks(snap: &Snapshot) -> String {
    let mut self_ns: BTreeMap<&str, u64> = snap
        .spans
        .iter()
        .map(|(path, h)| (path.as_str(), h.sum()))
        .collect();
    for (path, h) in &snap.spans {
        if let Some(parent) = path.rsplit_once('/').and_then(|(p, _)| self_ns.get_mut(p)) {
            *parent = parent.saturating_sub(h.sum());
        }
    }
    let mut out = String::new();
    for (path, ns) in self_ns {
        if ns >= 1_000 {
            let _ = writeln!(out, "{} {}", path.replace('/', ";"), ns / 1_000);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::time::Duration;

    #[test]
    fn prometheus_renders_all_metric_kinds() {
        let r = Registry::with_enabled(true);
        r.add("experiments", 7);
        r.set_gauge("workers", 2.0);
        r.observe("flow_bytes", 100);
        r.observe("flow_bytes", 5000);
        r.record_ns("ingest", Duration::from_nanos(1500));
        let text = prometheus(&r.snapshot());
        assert!(text.contains("# TYPE iot_experiments_total counter"), "{text}");
        assert!(text.contains("iot_experiments_total 7"));
        assert!(text.contains("# TYPE iot_workers gauge"));
        assert!(text.contains("iot_workers 2.0"));
        assert!(text.contains("# TYPE iot_flow_bytes histogram"));
        assert!(text.contains("iot_flow_bytes_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("iot_flow_bytes_sum 5100"));
        assert!(text.contains("iot_flow_bytes_count 2"));
        assert!(text.contains("iot_span_calls_total{span=\"ingest\"} 1"));
        assert!(text.contains("iot_span_duration_ns_bucket{span=\"ingest\",le=\"2047\"} 1"));
    }

    #[test]
    fn prometheus_memory_series_appear_only_with_alloc_data() {
        let r = Registry::with_enabled(true);
        r.record_ns("ingest", Duration::from_nanos(100));
        let quiet = prometheus(&r.snapshot());
        assert!(!quiet.contains("iot_span_alloc"), "{quiet}");

        r.record_alloc(
            "ingest",
            crate::alloc::AllocStats {
                bytes_allocated: 4096,
                allocs: 3,
                bytes_freed: 1024,
                frees: 1,
            },
        );
        let text = prometheus(&r.snapshot());
        assert!(text.contains("# TYPE iot_span_alloc_bytes_total counter"), "{text}");
        assert!(text.contains("iot_span_alloc_bytes_total{span=\"ingest\"} 4096"));
        assert!(text.contains("iot_span_allocs_total{span=\"ingest\"} 3"));
        assert!(text.contains("iot_span_freed_bytes_total{span=\"ingest\"} 1024"));
        assert!(text.contains("iot_span_frees_total{span=\"ingest\"} 1"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_share_quantile_bounds() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        let mut out = String::new();
        write_histogram(&mut out, "iot_x", "", &h);
        // Bucket upper bound 3 (index 2) holds values {1? no — 1 is in
        // [1,2), 2 and 3 in [2,4)}: cumulative at le="3" is 3 samples.
        assert!(out.contains("iot_x_bucket{le=\"1\"} 1"), "{out}");
        assert!(out.contains("iot_x_bucket{le=\"3\"} 3"), "{out}");
        assert!(out.contains("iot_x_bucket{le=\"127\"} 4"), "{out}");
        assert!(out.contains("iot_x_bucket{le=\"+Inf\"} 4"), "{out}");
        // The le bound at which the cumulative count first reaches the
        // median rank equals quantile_upper_bound(0.5) — same bounds,
        // same answer.
        assert_eq!(h.quantile_upper_bound(0.5), Some(3));
    }

    #[test]
    fn folded_stacks_weight_record_ns_paths_by_self_time() {
        let r = Registry::with_enabled(true);
        let us = Duration::from_micros;
        r.record_ns("shard", us(100));
        r.record_ns("shard/synth", us(30));
        r.record_ns("shard/ingest", us(50));
        // Children given by full path; they use up all of ingest's time.
        r.record_ns("shard/ingest/flows", us(20));
        r.record_ns("shard/ingest/pii", us(30));
        r.record_ns("finish", Duration::from_nanos(1_500));
        r.record_ns("report", Duration::from_nanos(999));
        // Only direct children count against a parent: `shard` keeps
        // 100 - 30 - 50 µs. `shard/ingest` (0 µs) and `report` (under
        // 1 µs) are left out.
        assert_eq!(
            folded_stacks(&r.snapshot()),
            "finish 1\nshard 20\nshard;ingest;flows 20\nshard;ingest;pii 30\nshard;synth 30\n"
        );
    }

    #[test]
    fn folded_stacks_weight_guard_nested_spans_by_self_time() {
        let r = Registry::with_enabled(true);
        let nap = || std::thread::sleep(Duration::from_millis(1));
        r.record_ns("shard", Duration::from_secs(1));
        for _ in 0..2 {
            // Guards name full paths under the `record_ns` parent.
            let _ingest = r.span("shard/ingest");
            nap();
            let _flows = r.span("shard/ingest/flows");
            nap();
        }
        let snap = r.snapshot();
        let total = |path: &str| snap.spans[path].sum();
        let (shard, ingest, flows) = (
            total("shard"),
            total("shard/ingest"),
            total("shard/ingest/flows"),
        );
        assert!(ingest - flows >= 2_000_000, "two naps outside flows");
        assert_eq!(
            folded_stacks(&snap),
            format!(
                "shard {}\nshard;ingest {}\nshard;ingest;flows {}\n",
                (shard - ingest) / 1_000,
                (ingest - flows) / 1_000,
                flows / 1_000
            )
        );
    }

    #[test]
    fn folded_stacks_are_merge_order_independent() {
        let shard = |k: u64| {
            let r = Registry::with_enabled(true);
            r.record_ns("shard", Duration::from_micros(110 * k + 7));
            r.record_ns("shard/synth", Duration::from_micros(10 * k));
            r.record_ns("shard/ingest", Duration::from_micros(100 * k));
            r
        };
        let render = |order: [u64; 3]| {
            let driver = Registry::with_enabled(true);
            driver.record_ns("finish", Duration::from_micros(3));
            for k in order {
                driver.merge(shard(k));
            }
            folded_stacks(&driver.snapshot())
        };
        let folded = render([1, 2, 3]);
        assert_eq!(folded, render([3, 1, 2]));
        assert_eq!(
            folded,
            "finish 3\nshard 21\nshard;ingest 600\nshard;synth 60\n"
        );
        assert_eq!(folded_stacks(&Snapshot::default()), "");
    }

    #[test]
    fn sanitize_folds_dots_and_slashes() {
        assert_eq!(sanitize("ingest.errors.salvage"), "iot_ingest_errors_salvage");
        assert_eq!(sanitize("a/b-c"), "iot_a_b_c");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
