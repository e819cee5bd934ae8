//! The observability gates `bench_pipeline` checks on its one
//! instrumented run.
//!
//! Each gate is a pure function over in-memory inputs: the merged
//! registry's [`Snapshot`], the fresh bench record and its paired timing
//! series, the committed `BENCH_pipeline.json`, and the bodies the live
//! endpoint served. A gate returns a one-line summary when it passes and
//! the reason when it fails, so each can be shown to fire on a fixture.

use crate::folded::FoldedProfile;
use crate::harness::BenchResult;
use iot_core::json::Json;
use iot_obs::registry::Snapshot;
use std::collections::BTreeMap;

/// A gate's verdict: the summary line, or why it failed.
pub type Verdict = Result<String, String>;

/// Ceiling on an obs-on / obs-off (or counting-on / counting-off)
/// median ratio.
const MAX_OVERHEAD_RATIO: f64 = 1.05;
/// Absolute slack: a ratio above the ceiling still passes when the
/// median delta is below this, so timer jitter on fast runs cannot
/// flake.
const ABS_TOLERANCE_MS: f64 = 75.0;
/// Least share of the workers' `shard` time its direct children must
/// cover.
const MIN_SHARD_COVERAGE: f64 = 0.95;
/// Largest relative move of a heap total or the heap high-water from the
/// committed baseline, up or down. The figures repeat exactly, so the
/// slack only absorbs environment-dependent reads; one extra allocation
/// per experiment (+0.6% of `allocs_total` at quick scale) already trips
/// it.
const MAX_ALLOC_DRIFT: f64 = 0.001;
/// Ceiling on the bench process's kernel peak RSS.
const MAX_PEAK_RSS_BYTES: u64 = 64 * 1024 * 1024;

/// Counters every stage of the pipeline feeds.
const STAGE_COUNTERS: [&str; 4] = ["experiments", "packets", "flows", "bytes"];
/// Spans whose heap traffic must be attributed while counting is on:
/// the worker's run, synthesis and ingest under it, and the report build.
const CHARGED_SPANS: [&str; 4] = ["shard", "shard/synth", "shard/ingest", "finish"];

/// The run report's text parses through the in-tree parser and
/// re-serializes to the same bytes.
pub fn report_round_trips(text: &str) -> Verdict {
    let parsed = Json::parse(text).map_err(|e| format!("run report does not parse: {e}"))?;
    if parsed.pretty() != text {
        return Err("run report re-serializes to different bytes".to_string());
    }
    Ok(format!("run report round-trips ({} bytes)", text.len()))
}

/// The four stage counters are non-zero.
pub fn stage_counters(snap: &Snapshot) -> Verdict {
    let mut line = Vec::new();
    for name in STAGE_COUNTERS {
        match snap.counters.get(name) {
            Some(&v) if v > 0 => line.push(format!("{name} {v}")),
            _ => return Err(format!("counter {name:?} is zero or missing")),
        }
    }
    Ok(format!("stage counters {}", line.join(", ")))
}

/// The share of `shard`'s total that its direct children cover (NaN
/// without a `shard` span).
fn shard_coverage(snap: &Snapshot) -> f64 {
    let total = |h: &iot_obs::Histogram| h.sum() as f64;
    let shard = snap.spans.get("shard").map_or(0.0, total);
    let children: f64 = snap
        .spans
        .iter()
        .filter(|(path, _)| path.strip_prefix("shard/").is_some_and(|l| !l.contains('/')))
        .map(|(_, h)| total(h))
        .sum();
    children / shard
}

/// The worker spans and gauges are present, and `shard`'s direct
/// children cover at least `MIN_SHARD_COVERAGE` of it.
pub fn span_tree(snap: &Snapshot) -> Verdict {
    for span in ["shard", "shard/synth", "shard/ingest", "shard/journal"] {
        if !snap.spans.contains_key(span) {
            return Err(format!("missing span {span:?}"));
        }
    }
    if !snap.gauges.contains_key("workers") {
        return Err("missing gauge \"workers\"".to_string());
    }
    let worker_gauges = snap
        .gauges
        .keys()
        .filter(|k| k.starts_with("worker.") && k.ends_with(".experiments"))
        .count();
    if worker_gauges == 0 {
        return Err("no per-worker load gauges".to_string());
    }
    let coverage = shard_coverage(snap);
    if coverage.is_nan() || coverage < MIN_SHARD_COVERAGE {
        return Err(format!(
            "shard's children cover {coverage:.4} of shard, below {MIN_SHARD_COVERAGE}"
        ));
    }
    Ok(format!(
        "{} span paths, {worker_gauges} per-worker gauge(s), shard's children cover \
         {coverage:.4} of shard",
        snap.spans.len()
    ))
}

/// Heap traffic is attributed to every span of `CHARGED_SPANS`, and the
/// end-of-run allocator gauge is present.
pub fn span_allocs(snap: &Snapshot) -> Verdict {
    let mut line = Vec::new();
    for span in CHARGED_SPANS {
        match snap.span_allocs.get(span) {
            Some(a) if a.bytes_allocated > 0 => {
                line.push(format!("{span} {} B", a.bytes_allocated));
            }
            _ => return Err(format!("{span} span has no alloc_bytes attribution")),
        }
    }
    if !snap.gauges.contains_key("alloc.high_water_bytes") {
        return Err("missing gauge \"alloc.high_water_bytes\"".to_string());
    }
    Ok(format!("heap charged to {}", line.join(", ")))
}

/// `on`'s median costs at most `MAX_OVERHEAD_RATIO` of `base`'s, or
/// less than `ABS_TOLERANCE_MS` more.
pub fn overhead(what: &str, base: &BenchResult, on: &BenchResult) -> Verdict {
    let (base_ms, on_ms) = (base.median_ms(), on.median_ms());
    let (ratio, delta) = (on_ms / base_ms, on_ms - base_ms);
    let line = format!(
        "{what} overhead {ratio:.4}x ({base_ms:.1} -> {on_ms:.1} ms, delta {delta:+.1} ms)"
    );
    if ratio > MAX_OVERHEAD_RATIO && delta > ABS_TOLERANCE_MS {
        return Err(format!(
            "{line} exceeds {MAX_OVERHEAD_RATIO}x by more than {ABS_TOLERANCE_MS} ms"
        ));
    }
    Ok(line)
}

/// Neither heap counting nor instrumentation changed the serial
/// baseline's report.
pub fn report_identity(alloc_identical: bool, obs_identical: bool) -> Verdict {
    if !alloc_identical {
        return Err("the heap-counted report diverged from the serial baseline".to_string());
    }
    if !obs_identical {
        return Err("the instrumented report diverged from the serial baseline".to_string());
    }
    Ok("heap-counted and instrumented reports equal the serial baseline".to_string())
}

/// The host-free allocation gate: `fresh`'s heap totals and high-water
/// against the `committed` baseline's. Fails when the runs are not
/// comparable (different `scale` or `experiments`), when a figure rose
/// more than `MAX_ALLOC_DRIFT` (a regression), fell more than that (a
/// stale baseline), or when `fresh`'s peak RSS exceeds
/// `MAX_PEAK_RSS_BYTES` (`bench_pipeline` writes 0 where the platform
/// has no `VmHWM`). Returns the comparison line on a pass.
pub fn alloc_gate(fresh: &Json, committed: &Json) -> Verdict {
    for key in ["scale", "experiments"] {
        let (now, then) = (fresh.get(key), committed.get(key));
        // By text: a parsed integer and a built one differ in variant.
        if now.is_none() || now.map(Json::dump) != then.map(Json::dump) {
            let show = |v: Option<&Json>| v.map_or("missing".to_string(), Json::dump);
            return Err(format!(
                "{key} {} differs from the committed baseline's {}",
                show(now),
                show(then)
            ));
        }
    }
    let mut line = Vec::new();
    for field in ["allocs_total", "bytes_total", "high_water_bytes"] {
        let total = |bench: &Json| bench.get("alloc")?.get(field)?.as_u64().filter(|&n| n > 0);
        let (Some(now), Some(then)) = (total(fresh), total(committed)) else {
            return Err(format!(
                "alloc.{field} is zero or missing in the fresh or committed bench"
            ));
        };
        let drift = now as f64 / then as f64 - 1.0;
        if drift > MAX_ALLOC_DRIFT {
            return Err(format!(
                "alloc.{field} {now} is {:+.2}% above the committed {then}",
                drift * 100.0
            ));
        }
        if drift < -MAX_ALLOC_DRIFT {
            return Err(format!(
                "alloc.{field} {now} is {:.2}% below the committed {then}: the baseline \
                 is stale; copy target/bench_pipeline.json over BENCH_pipeline.json",
                drift * 100.0
            ));
        }
        line.push(format!("{field} {now} ({:+.3}% vs {then})", drift * 100.0));
    }
    let rss = fresh
        .get("alloc")
        .and_then(|a| a.get("peak_rss_bytes"))
        .and_then(Json::as_u64)
        .ok_or("alloc.peak_rss_bytes is missing in the fresh bench")?;
    if rss > MAX_PEAK_RSS_BYTES {
        return Err(format!(
            "alloc.peak_rss_bytes {rss} exceeds the {MAX_PEAK_RSS_BYTES} B ceiling"
        ));
    }
    line.push(format!("peak_rss_bytes {rss} <= {MAX_PEAK_RSS_BYTES}"));
    Ok(line.join(", "))
}

/// The Prometheus exposition carries the counter, span-duration and
/// span-memory families.
pub fn prometheus_families(prom: &str) -> Verdict {
    for needle in [
        "# TYPE iot_experiments_total counter",
        "# TYPE iot_span_duration_ns histogram",
        "# TYPE iot_span_alloc_bytes_total counter",
        "iot_span_allocs_total{",
        "_bucket{",
        "_sum ",
        "_count ",
    ] {
        if !prom.contains(needle) {
            return Err(format!("Prometheus exposition lacks {needle:?}"));
        }
    }
    Ok(format!("Prometheus families present ({} bytes)", prom.len()))
}

/// The folded profile is the snapshot's span tree: its stacks are
/// exactly the span paths with at least 1 µs of self time (the path's
/// total less its direct children's), each weighted within 1 µs of it.
pub fn folded_matches_spans(snap: &Snapshot, folded: &str) -> Verdict {
    let profile = FoldedProfile::parse(folded).map_err(|e| format!("folded profile: {e}"))?;
    let mut self_ns: BTreeMap<&str, i128> = snap
        .spans
        .iter()
        .map(|(path, h)| (path.as_str(), i128::from(h.sum())))
        .collect();
    for (path, h) in &snap.spans {
        if let Some(parent) = path.rsplit_once('/').and_then(|(p, _)| self_ns.get_mut(p)) {
            *parent -= i128::from(h.sum());
        }
    }
    let expected: BTreeMap<String, i128> = self_ns
        .into_iter()
        .filter(|&(_, ns)| ns >= 1_000)
        .map(|(path, ns)| (path.replace('/', ";"), ns))
        .collect();
    if let Some(stack) = profile.counts.keys().find(|k| !expected.contains_key(*k)) {
        return Err(format!(
            "folded stack {stack:?} is not a span path with 1 µs of self time"
        ));
    }
    for (stack, &ns) in &expected {
        let weight = *profile
            .counts
            .get(stack)
            .ok_or_else(|| format!("no folded stack {stack:?} for {ns} ns of self time"))?;
        if (i128::from(weight) * 1_000 - ns).abs() > 1_000 {
            return Err(format!(
                "folded stack {stack} weighs {weight} µs, its self time is {ns} ns"
            ));
        }
    }
    Ok(format!(
        "folded stacks match the span tree ({} stacks, {} µs)",
        profile.counts.len(),
        profile.total
    ))
}

/// A served route's body equals the in-memory render, byte for byte.
pub fn served_equal(route: &str, served: &str, rendered: &str) -> Verdict {
    if served != rendered {
        let at = served
            .bytes()
            .zip(rendered.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(served.len().min(rendered.len()));
        return Err(format!(
            "{route} differs from the in-memory render at byte {at} ({} vs {} bytes)",
            served.len(),
            rendered.len()
        ));
    }
    Ok(format!("{route} equals the in-memory render ({} bytes)", served.len()))
}

/// The finished run's `/progress` body carries the report's experiment
/// count, ingest ledger and coverage manifest, and live heap totals.
pub fn progress_matches(progress: &str, report: &Json) -> Verdict {
    let body = Json::parse(progress).map_err(|e| format!("/progress is not JSON: {e}"))?;
    let published = body.get("progress").ok_or("/progress has no progress block")?;
    for key in ["experiments", "ingest", "coverage"] {
        let (Some(served), Some(want)) = (published.get(key), report.get(key)) else {
            return Err(format!("/progress or the report has no {key}"));
        };
        if served.dump() != want.dump() {
            return Err(format!("/progress {key} differs from the report's"));
        }
    }
    let alloc_bytes = published
        .get("alloc")
        .and_then(|a| a.get("bytes_total"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if alloc_bytes == 0 {
        return Err("/progress alloc.bytes_total is zero or missing".to_string());
    }
    Ok(format!(
        "/progress experiments, ingest and coverage equal the report's; \
         alloc.bytes_total {alloc_bytes}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_obs::{AllocStats, Registry};
    use std::time::Duration;

    /// A bench with `alloc` = [allocs, bytes, high-water, peak RSS].
    fn bench(scale: &str, experiments: u64, alloc: [u64; 4]) -> Json {
        let [allocs, bytes, high_water, rss] = alloc;
        Json::parse(&format!(
            r#"{{"scale":"{scale}","experiments":{experiments},
                "alloc":{{"allocs_total":{allocs},"bytes_total":{bytes},
                          "high_water_bytes":{high_water},"peak_rss_bytes":{rss}}}}}"#
        ))
        .expect("test bench parses")
    }

    const BASE: [u64; 4] = [1_000_000, 300_000_000, 1_641_850, 36_450_304];

    fn gate(alloc: [u64; 4]) -> Result<String, String> {
        alloc_gate(&bench("quick", 1928, alloc), &bench("quick", 1928, BASE))
    }

    /// `BASE` with field `i` set to `v`.
    fn with(i: usize, v: u64) -> [u64; 4] {
        let mut alloc = BASE;
        alloc[i] = v;
        alloc
    }

    #[test]
    fn totals_within_tolerance_pass() {
        assert!(gate(BASE).is_ok());
        // +0.09% on the totals and the high-water.
        assert!(gate([1_000_900, 300_270_000, 1_643_327, BASE[3]]).is_ok());
        // -0.09% on each.
        assert!(gate([999_100, 299_730_000, 1_640_373, BASE[3]]).is_ok());
    }

    #[test]
    fn rise_or_fall_beyond_tolerance_fails() {
        // +0.2% on either total or the high-water is a regression.
        assert!(gate(with(0, 1_002_000)).unwrap_err().contains("above"));
        assert!(gate(with(1, 300_600_000)).unwrap_err().contains("above"));
        let err = gate(with(2, 1_645_134)).unwrap_err();
        assert!(err.contains("high_water_bytes") && err.contains("above"), "{err}");
        // -0.2% means the committed baseline is stale.
        assert!(gate(with(0, 998_000)).unwrap_err().contains("stale"));
        assert!(gate(with(1, 299_400_000)).unwrap_err().contains("stale"));
        let err = gate(with(2, 1_638_566)).unwrap_err();
        assert!(err.contains("high_water_bytes") && err.contains("stale"), "{err}");
    }

    #[test]
    fn peak_rss_is_held_under_its_ceiling() {
        assert!(gate(with(3, MAX_PEAK_RSS_BYTES)).is_ok());
        let err = gate(with(3, MAX_PEAK_RSS_BYTES + 1)).unwrap_err();
        assert!(err.contains("peak_rss_bytes"), "{err}");
        // The committed bench's RSS is not a baseline: only the ceiling holds.
        let high = bench("quick", 1928, with(3, 2 * MAX_PEAK_RSS_BYTES));
        assert!(alloc_gate(&bench("quick", 1928, BASE), &high).is_ok());
    }

    #[test]
    fn incomparable_or_incomplete_baselines_fail() {
        let committed = bench("quick", 1928, BASE);
        let err = |fresh: &Json, committed: &Json| alloc_gate(fresh, committed).unwrap_err();
        let medium = bench("medium", 1928, BASE);
        assert!(err(&medium, &committed).contains("scale"));
        let fewer = bench("quick", 1766, BASE);
        assert!(err(&fewer, &committed).contains("experiments"));
        let no_alloc = Json::parse(r#"{"scale":"quick","experiments":1928}"#).unwrap();
        assert!(err(&committed, &no_alloc).contains("missing"));
        assert!(err(&no_alloc, &committed).contains("missing"));
        for i in 0..3 {
            assert!(err(&bench("quick", 1928, with(i, 0)), &committed).contains("missing"));
        }
        let no_rss = Json::parse(
            r#"{"scale":"quick","experiments":1928,"alloc":{"allocs_total":1000000,
                "bytes_total":300000000,"high_water_bytes":1641850}}"#,
        )
        .unwrap();
        assert!(err(&no_rss, &committed).contains("peak_rss_bytes"));
    }

    /// A registry shaped like an instrumented run's: `shard` of 1000 µs
    /// whose direct children cover `covered_us`, stage counters, gauges
    /// and heap attribution.
    fn run_registry(covered_us: u64) -> Registry {
        let us = Duration::from_micros;
        let r = Registry::with_enabled(true);
        for name in STAGE_COUNTERS {
            r.add(name, 7);
        }
        r.observe("experiment_packets", 49);
        r.set_gauge("workers", 2.0);
        r.set_gauge("worker.0.experiments", 7.0);
        r.set_gauge("alloc.high_water_bytes", 4096.0);
        r.record_ns("shard", us(1_000));
        r.record_ns("shard/synth", us(500));
        r.record_ns("shard/journal", us(50));
        r.record_ns("shard/ingest", us(covered_us - 550));
        r.record_ns("shard/ingest/flows", us(100));
        r.record_ns("finish", us(20));
        let heap = AllocStats {
            bytes_allocated: 512,
            allocs: 2,
            bytes_freed: 512,
            frees: 2,
        };
        for span in CHARGED_SPANS {
            r.record_alloc(span, heap);
        }
        r
    }

    #[test]
    fn a_clean_run_passes_every_snapshot_gate() {
        let snap = run_registry(990).snapshot();
        let folded = iot_obs::folded_stacks(&snap);
        for verdict in [
            stage_counters(&snap),
            span_tree(&snap),
            span_allocs(&snap),
            prometheus_families(&iot_obs::prometheus(&snap)),
            folded_matches_spans(&snap, &folded),
        ] {
            verdict.unwrap();
        }
    }

    #[test]
    fn shard_coverage_below_its_floor_fires() {
        let snap = run_registry(949).snapshot();
        assert_eq!(shard_coverage(&snap), 0.949);
        assert!(span_tree(&snap).unwrap_err().contains("0.9490"));
        let snap = run_registry(950).snapshot();
        assert_eq!(shard_coverage(&snap), MIN_SHARD_COVERAGE);
        assert!(span_tree(&snap).is_ok());
        // Grandchildren do not count toward their grandparent.
        let r = run_registry(990);
        r.record_ns("shard/ingest/pii", Duration::from_micros(900));
        assert_eq!(shard_coverage(&r.snapshot()), 0.99);
    }

    #[test]
    fn a_missing_span_or_gauge_fires() {
        let snap = run_registry(990).snapshot();
        let mut no_journal = snap.clone();
        no_journal.spans.remove("shard/journal");
        assert!(span_tree(&no_journal).unwrap_err().contains("shard/journal"));
        let mut no_workers = snap.clone();
        no_workers.gauges.remove("worker.0.experiments");
        assert!(span_tree(&no_workers).unwrap_err().contains("per-worker"));
        let mut uncharged = snap.clone();
        uncharged.span_allocs.remove("shard/ingest");
        assert!(span_allocs(&uncharged).unwrap_err().contains("shard/ingest"));
        let mut no_high_water = snap;
        no_high_water.gauges.remove("alloc.high_water_bytes");
        assert!(span_allocs(&no_high_water).unwrap_err().contains("high_water"));
    }

    #[test]
    fn a_zero_stage_counter_fires() {
        let mut snap = run_registry(990).snapshot();
        snap.counters.insert("flows".to_string(), 0);
        assert!(stage_counters(&snap).unwrap_err().contains("flows"));
        snap.counters.remove("flows");
        assert!(stage_counters(&snap).unwrap_err().contains("flows"));
    }

    #[test]
    fn folded_weights_off_by_two_us_or_a_missing_stack_fire() {
        let snap = run_registry(990).snapshot();
        let folded = iot_obs::folded_stacks(&snap);
        assert!(folded.contains("shard;synth 500\n"), "{folded}");
        let heavy = folded.replace("shard;synth 500\n", "shard;synth 502\n");
        let err = folded_matches_spans(&snap, &heavy).unwrap_err();
        assert!(err.contains("shard;synth weighs 502"), "{err}");
        let light = folded.replace("shard;synth 500\n", "shard;synth 499\n");
        assert!(folded_matches_spans(&snap, &light).is_ok(), "1 µs is within tolerance");
        let missing = folded.replace("shard;synth 500\n", "");
        let err = folded_matches_spans(&snap, &missing).unwrap_err();
        assert!(err.contains("no folded stack \"shard;synth\""), "{err}");
        let extra = format!("{folded}shard;replay 3\n");
        assert!(folded_matches_spans(&snap, &extra).unwrap_err().contains("shard;replay"));
    }

    #[test]
    fn served_bodies_differing_by_one_byte_fire() {
        let snap = run_registry(990).snapshot();
        for (route, rendered) in [
            ("/metrics", iot_obs::prometheus(&snap)),
            ("/profile", iot_obs::folded_stacks(&snap)),
        ] {
            assert!(served_equal(route, &rendered, &rendered).is_ok());
            let mut flipped = rendered.clone().into_bytes();
            let at = flipped.len() / 2;
            flipped[at] = if flipped[at] == b'0' { b'1' } else { b'0' };
            let flipped = String::from_utf8(flipped).unwrap();
            let err = served_equal(route, &flipped, &rendered).unwrap_err();
            assert!(err.contains(&format!("at byte {at}")), "{err}");
            let short = &rendered[..rendered.len() - 1];
            assert!(served_equal(route, short, &rendered).is_err());
        }
    }

    const REPORT: &str = r#"{"experiments":12,
        "ingest":{"packets_generated":90,"experiments_quarantined":0},
        "coverage":{"degraded":false,"completed":12},"pii_findings":[]}"#;

    fn progress(experiments: u64, quarantined: u64, alloc_bytes: u64) -> String {
        format!(
            r#"{{"progress":{{"phase":"finished","experiments":{experiments},
                "ingest":{{"packets_generated":90,"experiments_quarantined":{quarantined}}},
                "coverage":{{"degraded":false,"completed":12}},
                "alloc":{{"bytes_total":{alloc_bytes}}}}},
              "process":{{"peak_rss_bytes":1}}}}"#
        )
    }

    #[test]
    fn a_progress_ledger_differing_from_the_report_fires() {
        let report = Json::parse(REPORT).unwrap();
        assert!(progress_matches(&progress(12, 0, 4096), &report).is_ok());
        let err = progress_matches(&progress(12, 1, 4096), &report).unwrap_err();
        assert!(err.contains("ingest"), "{err}");
        let err = progress_matches(&progress(11, 0, 4096), &report).unwrap_err();
        assert!(err.contains("experiments"), "{err}");
        let err = progress_matches(&progress(12, 0, 0), &report).unwrap_err();
        assert!(err.contains("alloc.bytes_total"), "{err}");
        assert!(progress_matches("{}", &report).is_err());
        let no_coverage = progress(12, 0, 4096).replace("\"coverage\"", "\"cover\"");
        let err = progress_matches(&no_coverage, &report).unwrap_err();
        assert!(err.contains("no coverage"), "{err}");
    }

    /// Paired series whose medians differ by `ratio` and `delta_ms`.
    fn series(ratio: f64, delta_ms: f64) -> (BenchResult, BenchResult) {
        let base = delta_ms / (ratio - 1.0);
        let result = |ms: f64| BenchResult::new("x".into(), 3, vec![ms - 1.0, ms, ms + 1.0]);
        (result(base), result(base + delta_ms))
    }

    #[test]
    fn an_overhead_ratio_fires_only_beyond_its_slack() {
        let (base, on) = series(1.06, 76.0);
        let err = overhead("obs", &base, &on).unwrap_err();
        assert!(err.contains("obs overhead 1.0600x"), "{err}");
        let (base, on) = series(1.06, 74.0);
        assert!(overhead("obs", &base, &on).is_ok());
        let (base, on) = series(1.04, 200.0);
        assert!(overhead("alloc", &base, &on).is_ok(), "under the ratio ceiling");
    }

    #[test]
    fn a_diverged_report_fires() {
        assert!(report_identity(true, true).is_ok());
        assert!(report_identity(false, true).unwrap_err().contains("heap-counted"));
        assert!(report_identity(true, false).unwrap_err().contains("instrumented"));
    }

    #[test]
    fn a_run_report_that_does_not_round_trip_fires() {
        let reg = run_registry(990);
        let text = iot_obs::RunReport::from_registry("bench_pipeline", &reg)
            .to_json()
            .pretty();
        assert!(report_round_trips(&text).is_ok());
        let torn = &text[..text.len() / 2];
        assert!(report_round_trips(torn).unwrap_err().contains("does not parse"));
        let compact = Json::parse(&text).unwrap().dump();
        assert!(report_round_trips(&compact).unwrap_err().contains("different bytes"));
    }

    #[test]
    fn prometheus_without_memory_series_fires() {
        let snap = run_registry(990).snapshot();
        let mut quiet = snap.clone();
        quiet.span_allocs.clear();
        let err = prometheus_families(&iot_obs::prometheus(&quiet)).unwrap_err();
        assert!(err.contains("iot_span_alloc_bytes_total"), "{err}");
    }
}
