//! Exporter golden tests.
//!
//! * The Prometheus exposition of a registry built *only* from fixed
//!   counters, gauges, histogram samples, and externally supplied
//!   durations (no live clock reads land in any exported value) must
//!   match the committed golden file byte for byte. Regenerate with
//!   `IOT_OBS_UPDATE_GOLDEN=1 cargo test -p iot-obs --test export_golden`
//!   and review the diff like any other code change.

use iot_obs::{prometheus, Registry};
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");

/// Deterministic registry: every value below is a fixed input, so the
/// rendered exposition is stable across runs, machines, and worker
/// counts.
fn golden_registry() -> Registry {
    let r = Registry::with_enabled(true);
    r.add("experiments", 12);
    r.add("packets", 3456);
    r.add("ingest.errors.salvage", 2);
    r.set_gauge("workers", 4.0);
    r.set_gauge("worker.1.experiments", 6.0);
    for v in [64u64, 128, 1500, 1500, 9000] {
        r.observe("experiment_packets", v);
    }
    r.record_ns("ingest", Duration::from_micros(150));
    r.record_ns("ingest", Duration::from_micros(300));
    r.record_ns("ingest/decode", Duration::from_micros(40));
    r.record_ns("shard", Duration::from_millis(2));
    // Fixed heap attribution — exercises the memory series without the
    // instrumented allocator (whose live numbers would not be golden).
    r.record_alloc(
        "ingest",
        iot_obs::AllocStats {
            bytes_allocated: 262144,
            allocs: 96,
            bytes_freed: 131072,
            frees: 40,
        },
    );
    r.record_alloc(
        "ingest/decode",
        iot_obs::AllocStats {
            bytes_allocated: 4096,
            allocs: 8,
            bytes_freed: 4096,
            frees: 8,
        },
    );
    r
}

#[test]
fn prometheus_matches_committed_golden() {
    let rendered = prometheus(&golden_registry().snapshot());
    if std::env::var("IOT_OBS_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("read committed golden");
    assert_eq!(
        rendered, golden,
        "prometheus exposition drifted from {GOLDEN_PATH}; if intentional, \
         regenerate with IOT_OBS_UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_exposition_is_well_formed() {
    // Structural guarantees the golden file must keep even when its
    // numbers change: every family is typed, histogram series are
    // complete, and the dotted counter name is sanitized.
    let text = prometheus(&golden_registry().snapshot());
    for needle in [
        "# TYPE iot_experiments_total counter",
        "# TYPE iot_ingest_errors_salvage_total counter",
        "# TYPE iot_workers gauge",
        "# TYPE iot_experiment_packets histogram",
        "iot_experiment_packets_bucket{le=\"+Inf\"} 5",
        "iot_experiment_packets_sum 12192",
        "iot_experiment_packets_count 5",
        "# TYPE iot_span_calls_total counter",
        "iot_span_calls_total{span=\"ingest\"} 2",
        "iot_span_calls_total{span=\"ingest/decode\"} 1",
        "# TYPE iot_span_duration_ns histogram",
        "iot_span_duration_ns_count{span=\"shard\"} 1",
        "# TYPE iot_span_alloc_bytes_total counter",
        "iot_span_alloc_bytes_total{span=\"ingest\"} 262144",
        "iot_span_allocs_total{span=\"ingest/decode\"} 8",
        "iot_span_freed_bytes_total{span=\"ingest\"} 131072",
        "iot_span_frees_total{span=\"ingest\"} 40",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}
