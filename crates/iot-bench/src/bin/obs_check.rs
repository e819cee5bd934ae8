//! Observability smoke + overhead gate, run by `verify.sh`.
//!
//! Usage:
//!
//! ```text
//! obs_check <obs_run.json> <fresh_bench.json> <committed_bench.json> \
//!           <obs_metrics.prom> <profile.folded>
//! ```
//!
//! Asserts that the run report written by an `IOT_OBS=1` bench run is
//! well-formed and non-trivial, that the bench's heap totals match the
//! committed baseline, and that the exporter artifacts agree with the
//! report:
//!
//! 1. the report parses as JSON (through the in-tree parser);
//! 2. the stage counters (`experiments`, `flows`, `bytes`, `packets`)
//!    are non-zero;
//! 3. per-stage spans and per-worker gauges are present, and the
//!    workers' time is attributed: `shard/synth` (traffic synthesis) and
//!    `shard/ingest` together cover at least 95% of `shard`;
//! 4. the instrumentation overhead measured by the fresh bench run
//!    (`obs_overhead_ratio`) stays under 5%, with a small absolute
//!    tolerance so sub-millisecond noise on tiny grids cannot fail the
//!    gate spuriously;
//! 5. the allocator accounting is live and cheap: the bench's `alloc`
//!    block carries non-zero heap traffic, the counting-on run
//!    reproduced the baseline report byte for byte
//!    (`alloc_report_identical`), `alloc_overhead_ratio` stays under the
//!    same 5% ceiling, the report attributes heap bytes to the
//!    `shard/synth` and `shard/ingest` spans and carries the end-of-run
//!    allocator gauges, and the Prometheus exposition includes the
//!    per-span memory series;
//! 6. the allocation gate: the fresh run's `scale` and `experiments`
//!    equal the committed bench's (the third argument), and none of
//!    `alloc.allocs_total`, `alloc.bytes_total` and
//!    `alloc.high_water_bytes` moved more than 0.1% from the committed
//!    value in either direction. The totals and the heap high-water of a
//!    serial campaign repeat exactly for a fixed grid, so the gate needs
//!    no host key; a fall beyond the slack means the committed baseline
//!    is stale and must be regenerated with the change that lowered it.
//!    The bench process's kernel peak RSS (`alloc.peak_rss_bytes`, read
//!    from `VmHWM`) must stay at or under 64 MiB;
//!
//! 7. the Prometheus exposition `bench_pipeline` wrote carries `# TYPE`
//!    lines and histogram `_bucket`/`_sum`/`_count` series;
//! 8. the folded profile is the report's span tree: its stacks are
//!    exactly the report's span paths with at least 1 µs of self time
//!    (the path's total less its direct children's), and each weight is
//!    within 1 µs of that self time.
//!
//! Exits non-zero on any hard failure, so `verify.sh` can gate on it.

use iot_bench::folded::FoldedProfile;
use iot_core::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Hard ceiling on obs-on / obs-off median ratio.
const MAX_OVERHEAD_RATIO: f64 = 1.05;
/// Absolute slack: ratios above the ceiling still pass when the median
/// delta is below this, so timer jitter on very fast runs cannot flake.
const ABS_TOLERANCE_MS: f64 = 75.0;
/// Least share of the workers' `shard` time that `synth` + `ingest`
/// must cover.
const MIN_SHARD_COVERAGE: f64 = 0.95;
/// Largest relative move of a heap total or the heap high-water from the
/// committed baseline, up or down. The figures repeat exactly, so the
/// slack only absorbs environment-dependent reads; one extra allocation
/// per experiment (+0.6% of `allocs_total` at quick scale) already trips
/// it.
const MAX_ALLOC_DRIFT: f64 = 0.001;
/// Ceiling on the bench process's kernel peak RSS: the streaming ingest
/// keeps the quick campaign's footprint near 35 MiB at 8 workers.
const MAX_PEAK_RSS_BYTES: u64 = 64 * 1024 * 1024;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn counter(report: &Json, name: &str) -> u64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn median_ms(bench: &Json, section: &str) -> Option<f64> {
    bench.get(section)?.get("median_ms")?.as_f64()
}

/// The host-free allocation gate: `fresh`'s heap totals and high-water
/// against the `committed` baseline's. Fails when the runs are not
/// comparable (different `scale` or `experiments`), when a figure rose
/// more than [`MAX_ALLOC_DRIFT`] (a regression), fell more than that (a
/// stale baseline), or when `fresh`'s peak RSS exceeds
/// [`MAX_PEAK_RSS_BYTES`] (`bench_pipeline` writes 0 where the platform
/// has no `VmHWM`). Returns the comparison line on a pass.
fn alloc_gate(fresh: &Json, committed: &Json) -> Result<String, String> {
    for key in ["scale", "experiments"] {
        let (now, then) = (fresh.get(key), committed.get(key));
        if now.is_none() || now != then {
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
                 is stale; regenerate BENCH_pipeline.json with \
                 `IOT_SCALE=quick bench_pipeline`",
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

/// The Prometheus exposition `bench_pipeline` wrote must carry the
/// counter, span-duration and span-memory families.
fn check_prometheus(prom_path: &str) -> Result<(), String> {
    let prom = std::fs::read_to_string(prom_path).map_err(|e| format!("{prom_path}: {e}"))?;
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
            return Err(format!("{prom_path}: missing {needle:?}"));
        }
    }
    println!("obs_check: prometheus exposition OK ({} bytes)", prom.len());
    Ok(())
}

/// A report span's total in nanoseconds. `total_ms` is written with
/// round-trip precision, so this recovers the registry's integer.
fn total_ns(span: &Json) -> u64 {
    let ms = span.get("total_ms").and_then(Json::as_f64).unwrap_or(0.0);
    (ms * 1e6).round() as u64
}

/// The folded profile must be the report's span tree: one stack per span
/// path with at least 1 µs of self time, each weighted within 1 µs of it.
fn check_folded(spans: &[(String, Json)], folded_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(folded_path).map_err(|e| format!("{folded_path}: {e}"))?;
    let folded = FoldedProfile::parse(&text).map_err(|e| format!("{folded_path}: {e}"))?;
    let mut self_ns: BTreeMap<&str, i128> = spans
        .iter()
        .map(|(path, s)| (path.as_str(), i128::from(total_ns(s))))
        .collect();
    for (path, s) in spans {
        if let Some(parent) = path.rsplit_once('/').and_then(|(p, _)| self_ns.get_mut(p)) {
            *parent -= i128::from(total_ns(s));
        }
    }
    let expected: BTreeMap<String, f64> = self_ns
        .into_iter()
        .filter(|&(_, ns)| ns >= 1_000)
        .map(|(path, ns)| (path.replace('/', ";"), ns as f64 / 1e3))
        .collect();
    if let Some(stack) = folded.counts.keys().find(|k| !expected.contains_key(*k)) {
        return Err(format!(
            "{folded_path}: stack {stack:?} is not a report span path with 1 µs of self time"
        ));
    }
    for (stack, &us) in &expected {
        let weight = *folded.counts.get(stack).ok_or_else(|| {
            format!("{folded_path}: no stack {stack:?} for {us:.1} µs of self time")
        })?;
        if (weight as f64 - us).abs() > 1.0 {
            return Err(format!(
                "{folded_path}: {stack} weighs {weight} µs, the report's self time is {us:.1} µs"
            ));
        }
    }
    println!(
        "obs_check: folded profile matches the report's span tree ({} stacks, {} µs)",
        folded.counts.len(),
        folded.total
    );
    Ok(())
}

fn check(
    [obs_path, bench_path, committed_path, prom_path, folded_path]: [&str; 5],
) -> Result<(), String> {
    let report = load(obs_path)?;
    let bench = load(bench_path)?;

    // 2. Stage counters must show the pipeline actually processed data.
    for name in ["experiments", "packets", "flows", "bytes"] {
        let v = counter(&report, name);
        if v == 0 {
            return Err(format!("{obs_path}: counter {name:?} is zero or missing"));
        }
        println!("obs_check: counter {name} = {v}");
    }

    // 3. Spans and worker gauges present.
    let spans = report
        .get("spans")
        .and_then(Json::members)
        .ok_or_else(|| format!("{obs_path}: no spans section"))?;
    if spans.is_empty() {
        return Err(format!("{obs_path}: spans section is empty"));
    }
    let total_ms = |name: &str| {
        spans
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, s)| s.get("total_ms"))
            .and_then(Json::as_f64)
    };
    for required in ["shard/synth", "shard/ingest", "shard"] {
        if total_ms(required).is_none() {
            return Err(format!("{obs_path}: missing span {required:?}"));
        }
    }
    println!("obs_check: {} span paths", spans.len());
    let covered = total_ms("shard/synth").unwrap_or(0.0) + total_ms("shard/ingest").unwrap_or(0.0);
    let shard = total_ms("shard").unwrap_or(0.0);
    let coverage = covered / shard;
    if coverage.is_nan() || coverage < MIN_SHARD_COVERAGE {
        return Err(format!(
            "{obs_path}: shard/synth + shard/ingest cover {coverage:.3} of shard \
             ({covered:.1} of {shard:.1} ms), below {MIN_SHARD_COVERAGE}"
        ));
    }
    println!("obs_check: shard/synth + shard/ingest cover {coverage:.3} of shard");
    let gauges = report
        .get("gauges")
        .and_then(Json::members)
        .ok_or_else(|| format!("{obs_path}: no gauges section"))?;
    if gauges.iter().all(|(k, _)| k != "workers") {
        return Err(format!("{obs_path}: missing gauge \"workers\""));
    }
    let worker_gauges = gauges
        .iter()
        .filter(|(k, _)| k.starts_with("worker.") && k.ends_with(".experiments"))
        .count();
    if worker_gauges == 0 {
        return Err(format!("{obs_path}: no per-worker load gauges"));
    }
    println!("obs_check: {worker_gauges} per-worker gauge(s)");
    // bench_pipeline keeps heap counting on for the instrumented runs,
    // so the report must carry per-span heap attribution and the
    // end-of-run allocator gauges.
    for charged in ["shard/synth", "shard/ingest"] {
        let bytes = spans
            .iter()
            .find(|(k, _)| k == charged)
            .and_then(|(_, s)| s.get("alloc_bytes"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if bytes == 0 {
            return Err(format!(
                "{obs_path}: {charged} span has no alloc_bytes attribution"
            ));
        }
        println!("obs_check: {charged} span charged {bytes} heap bytes");
    }
    if gauges.iter().all(|(k, _)| k != "alloc.high_water_bytes") {
        return Err(format!("{obs_path}: missing gauge \"alloc.high_water_bytes\""));
    }

    // 4. Overhead gate on the fresh in-process measurement.
    let ratio = bench
        .get("obs_overhead_ratio")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{bench_path}: no obs_overhead_ratio"))?;
    let base = median_ms(&bench, "serial_obs_baseline")
        .ok_or_else(|| format!("{bench_path}: no serial_obs_baseline median"))?;
    let obs = median_ms(&bench, "serial_obs")
        .ok_or_else(|| format!("{bench_path}: no serial_obs median"))?;
    let delta = obs - base;
    println!(
        "obs_check: overhead ratio {ratio:.4} (serial {base:.1} ms -> obs {obs:.1} ms, \
         delta {delta:+.1} ms)"
    );
    if ratio > MAX_OVERHEAD_RATIO && delta > ABS_TOLERANCE_MS {
        return Err(format!(
            "observability overhead {ratio:.4}x exceeds {MAX_OVERHEAD_RATIO}x \
             (delta {delta:.1} ms > {ABS_TOLERANCE_MS} ms tolerance)"
        ));
    }
    if !bench
        .get("obs_report_identical")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        return Err(format!(
            "{bench_path}: instrumented pipeline report diverged from baseline"
        ));
    }

    // 5. Allocator accounting: the counting-on run must have measured
    // real heap traffic, reproduced the baseline report byte for byte,
    // and cost under the same overhead ceiling as the span layer.
    let alloc = bench
        .get("alloc")
        .ok_or_else(|| format!("{bench_path}: no alloc block"))?;
    for field in ["bytes_total", "allocs_total", "high_water_bytes"] {
        let v = alloc.get(field).and_then(Json::as_u64).unwrap_or(0);
        if v == 0 {
            return Err(format!("{bench_path}: alloc.{field} is zero or missing"));
        }
    }
    let allocs_per_exp = alloc
        .get("allocs_per_experiment")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!(
        "obs_check: alloc {} bytes / {} allocs per campaign ({allocs_per_exp:.1} \
         allocs/experiment), high-water {} bytes",
        alloc.get("bytes_total").and_then(Json::as_u64).unwrap_or(0),
        alloc.get("allocs_total").and_then(Json::as_u64).unwrap_or(0),
        alloc.get("high_water_bytes").and_then(Json::as_u64).unwrap_or(0),
    );
    if !bench
        .get("alloc_report_identical")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        return Err(format!(
            "{bench_path}: allocator-counted pipeline report diverged from baseline"
        ));
    }
    let alloc_ratio = bench
        .get("alloc_overhead_ratio")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{bench_path}: no alloc_overhead_ratio"))?;
    let alloc_base = median_ms(&bench, "serial_alloc_baseline")
        .ok_or_else(|| format!("{bench_path}: no serial_alloc_baseline median"))?;
    let alloc_on = median_ms(&bench, "serial_alloc")
        .ok_or_else(|| format!("{bench_path}: no serial_alloc median"))?;
    let alloc_delta = alloc_on - alloc_base;
    println!(
        "obs_check: alloc overhead ratio {alloc_ratio:.4} (serial {alloc_base:.1} ms -> \
         counting {alloc_on:.1} ms, delta {alloc_delta:+.1} ms)"
    );
    if alloc_ratio > MAX_OVERHEAD_RATIO && alloc_delta > ABS_TOLERANCE_MS {
        return Err(format!(
            "allocator overhead {alloc_ratio:.4}x exceeds {MAX_OVERHEAD_RATIO}x \
             (delta {alloc_delta:.1} ms > {ABS_TOLERANCE_MS} ms tolerance)"
        ));
    }

    // 6. Allocation gate against the committed baseline.
    let line = alloc_gate(&bench, &load(committed_path)?)
        .map_err(|e| format!("{bench_path} vs {committed_path}: {e}"))?;
    println!("obs_check: heap totals match {committed_path}: {line}");

    // 7–8. Exporter artifacts.
    check_prometheus(prom_path)?;
    check_folded(spans, folded_path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Ok(paths) = <[&str; 5]>::try_from(args.iter().map(String::as_str).collect::<Vec<_>>())
    else {
        eprintln!(
            "usage: obs_check <obs_run.json> <fresh_bench.json> \
             <committed_bench.json> <obs_metrics.prom> <profile.folded>"
        );
        return ExitCode::FAILURE;
    };
    match check(paths) {
        Ok(()) => {
            println!("obs_check: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
