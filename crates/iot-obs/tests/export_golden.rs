//! Exporter golden tests.
//!
//! * The Prometheus exposition of a registry built *only* from fixed
//!   counters, gauges, histogram samples, and externally supplied
//!   durations (no live clock reads land in any exported value) must
//!   match the committed golden file byte for byte. Regenerate with
//!   `IOT_OBS_UPDATE_GOLDEN=1 cargo test -p iot-obs --test export_golden`
//!   and review the diff like any other code change.
//! * The wall-clock Chrome trace must round-trip through the in-tree
//!   JSON parser unchanged.
//! * The deterministic trace must be byte-identical when the same
//!   streams are processed by 1, 2, or 8 simulated shard workers —
//!   the per-exporter half of the determinism contract `bench_pipeline`
//!   gates end to end.

use iot_core::json::Json;
use iot_obs::{chrome_trace, prometheus, Registry, TraceMode};
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");

/// Deterministic registry: every value below is a fixed input, so the
/// rendered exposition is stable across runs, machines, and worker
/// counts. Event capacity 0 — the exposition renders the snapshot only.
fn golden_registry() -> Registry {
    let r = Registry::with_event_capacity(true, 0);
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

#[test]
fn chrome_trace_round_trips_in_tree_parser() {
    let r = Registry::with_event_capacity(true, 256);
    r.set_worker(1);
    r.begin_stream(0xDEAD_BEEF);
    {
        let _i = r.span("ingest");
        r.add("packets", 17);
        {
            let _d = r.span("decode");
        }
        r.mark("quarantine");
    }
    r.end_stream();
    let doc = chrome_trace(&r.timeline(), TraceMode::Wall);
    let dumped = doc.dump();
    let parsed = Json::parse(&dumped).expect("trace must parse");
    assert_eq!(parsed.dump(), dumped, "trace must round-trip unchanged");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    assert_eq!(
        doc.get("overwrittenEvents").and_then(Json::as_u64),
        Some(0)
    );
    let events = doc.get("traceEvents").and_then(Json::items).unwrap();
    let phases: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert_eq!(
        phases.into_iter().collect::<Vec<_>>(),
        vec!["B", "C", "E", "i"],
        "all four phase kinds must render"
    );
    // Span paths render as full nested names.
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("ingest/decode")));
}

/// Simulates the pipeline's sharding: 24 logical streams dealt
/// round-robin over `workers` shard registries, each stream recording
/// the identical event script, then folded into one driver registry.
fn sharded_det_trace(workers: usize) -> String {
    let target = Registry::with_event_capacity(true, 4096);
    target.set_worker(0);
    target.mark("campaign_start"); // driver-scoped: stream 0, must not export
    let shards: Vec<Registry> = (0..workers)
        .map(|i| {
            let s = Registry::with_event_capacity(true, 4096);
            s.set_worker(i as u32 + 1);
            s
        })
        .collect();
    for exp in 0..24u64 {
        let stream = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(exp + 1);
        let shard = &shards[exp as usize % workers];
        shard.begin_stream(stream);
        {
            let _i = shard.span("ingest");
            shard.add("packets", 10 + exp);
            {
                let _d = shard.span("decode");
                shard.add("flows", 2);
            }
            if exp % 5 == 0 {
                shard.mark("quarantine");
            }
        }
        shard.end_stream();
    }
    for s in shards {
        target.merge(s);
    }
    chrome_trace(&target.timeline(), TraceMode::Deterministic).dump()
}

#[test]
fn deterministic_trace_is_byte_identical_across_worker_counts() {
    let serial = sharded_det_trace(1);
    assert!(!serial.is_empty());
    assert!(
        !serial.contains("campaign_start"),
        "driver-scoped events must not reach the deterministic trace"
    );
    for workers in [2usize, 8] {
        assert_eq!(
            serial,
            sharded_det_trace(workers),
            "deterministic trace with {workers} workers diverged"
        );
    }
    // Every exported event sits on the single logical track with its
    // stream coordinates attached.
    let doc = Json::parse(&serial).unwrap();
    let events = doc.get("traceEvents").and_then(Json::items).unwrap();
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("tid").and_then(Json::as_u64), Some(0));
        let args = e.get("args").expect("det events carry args");
        assert!(args.get("stream").and_then(Json::as_str).is_some());
        assert!(args.get("seq").and_then(Json::as_u64).is_some());
    }
}
