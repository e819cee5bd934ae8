//! 1-worker-vs-N-worker pipeline ingestion benchmark.
//!
//! Runs the full analysis pipeline (destinations + encryption + PII over
//! a complete campaign, controlled and idle) once per timed iteration,
//! first with one worker (`run_campaign`, the `serial` timings) and then
//! with `IOT_BENCH_WORKERS` workers of the same driver (the `parallel`
//! timings), gates the report's identity at 1, 2 and 8 workers through
//! `iot_oracle::differential::check_worker_grid`, and writes the timing
//! summary to `BENCH_pipeline.json`.
//!
//! The baseline benches force observability *and* allocator counting
//! *off* (regardless of `IOT_OBS` / `IOT_OBS_ALLOC`, so the committed
//! trajectory stays comparable), then paired benches re-run the serial
//! driver with observability forced *on* (`obs_overhead_ratio`) and with
//! only heap counting forced on (`alloc_overhead_ratio`); `obs_check`
//! gates both ratios in `verify.sh`. A dedicated counting-on serial run
//! yields the committed `alloc` block — total heap traffic,
//! allocations per experiment (ratcheted per host by `bench_trend`),
//! high-water, and kernel peak RSS — and must reproduce the baseline
//! report byte for byte (`alloc_report_identical`). When `IOT_OBS` is
//! set, an `iot_obs::RunReport` for one instrumented run is written to
//! `IOT_OBS_OUT` (default `results/obs_run.json`).
//!
//! Environment knobs:
//!
//! * `IOT_SCALE` — campaign grid (`quick` / `medium` / `full`); this
//!   binary defaults to `quick` since each iteration runs the whole
//!   campaign.
//! * `IOT_BENCH_ITERS` — timed iterations per driver (default 3).
//! * `IOT_BENCH_WARMUP` — untimed warmup iterations per driver
//!   (default 1).
//! * `IOT_BENCH_WORKERS` — worker count of the `parallel` timings
//!   (default: available hardware parallelism).
//! * `IOT_BENCH_OUT` — output path (default `BENCH_pipeline.json`).
//! * `IOT_OBS` / `IOT_OBS_OUT` — run-report emission (see `iot-obs`).
//! * `IOT_OBS_TRACE_OUT` / `IOT_OBS_TRACE_DET_OUT` / `IOT_OBS_PROM_OUT`
//!   — exporter artifact paths (default `target/obs_trace.json`,
//!   `target/obs_trace_det.json`, `target/obs_metrics.prom`). The
//!   deterministic trace is additionally required to be byte-identical
//!   between the 1-worker and N-worker instrumented runs whenever no
//!   ring overflow occurred.
//! * `IOT_OBS_PROFILE` — arms the span-stack sampling profiler at the
//!   given rate (Hz). When armed, the instrumented runs are sampled and
//!   the folded profile is written to `IOT_OBS_PROFILE_OUT` (default
//!   `target/profile.folded`) plus a speedscope JSON next to it at
//!   `IOT_OBS_SPEEDSCOPE_OUT` (default `target/profile.speedscope.json`);
//!   `profile_diff` compares the folded artifact against the committed
//!   baseline in `verify.sh`. The identity gates above all run with the
//!   sampler live, so sampling is continuously proven report-neutral.

use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::SupervisorConfig;
use iot_bench::harness::bench;
use iot_bench::{campaign_config, Scale};
use iot_core::json::{Json, ToJson};
use iot_obs::{chrome_trace, prometheus, RunReport, TraceMode};
use iot_oracle::differential::check_worker_grid;
use iot_testbed::schedule::{Campaign, CampaignConfig};
use std::io::Write;
use std::path::PathBuf;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One campaign at `workers` workers; `workers == 1` is `run_campaign`.
fn report(config: CampaignConfig, workers: usize, obs: bool) -> PipelineReport {
    let mut p = Pipeline::with_obs(obs);
    p.run_campaign_supervised(config, workers, &SupervisorConfig::default())
        .expect("a run without a journal cannot fail to journal");
    p.finish()
}

fn report_json(config: CampaignConfig, workers: usize, obs: bool) -> String {
    report(config, workers, obs).to_json().dump()
}

fn main() {
    // Whole-campaign iterations are expensive; default to the smallest
    // grid unless the caller asks for more.
    let scale = match std::env::var("IOT_SCALE").as_deref() {
        Ok("medium") => Scale::Medium,
        Ok("full") => Scale::Full,
        _ => Scale::Quick,
    };
    let config = campaign_config(scale);
    let iters = env_usize("IOT_BENCH_ITERS", 3);
    let warmup = env_usize("IOT_BENCH_WARMUP", 1);
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = env_usize("IOT_BENCH_WORKERS", hw_threads);
    let experiments =
        Campaign::new(config).controlled_experiment_count();

    iot_obs::progress!(
        "bench_pipeline: scale={} experiments≈{experiments} workers={workers} \
         iters={iters} warmup={warmup} hw_threads={hw_threads}",
        scale.name()
    );

    // Resolve the obs config once (it may flip allocator counting on via
    // IOT_OBS_ALLOC), then take manual control: the committed timing
    // trajectory is always measured with heap counting *off*, and the
    // allocator sections below force it on explicitly, so the numbers are
    // comparable regardless of the caller's environment.
    iot_obs::enabled();
    iot_obs::alloc::set_enabled(false);

    // Correctness gates first: the report must be identical at 1, 2 and
    // 8 workers, and turning instrumentation on must not change it,
    // before any timing means anything.
    let (serial_report, violations) =
        check_worker_grid("bench_workers", |w| report(config, w, false));
    let serial_json = serial_report.to_json().dump();
    let identical = violations.is_empty();
    if !identical {
        eprintln!(
            "bench_pipeline: FAIL — report diverged across worker counts: {}",
            violations[0].render()
        );
    }
    // Allocator byte-identity gate *and* the committed heap measurement,
    // from one serial run with heap counting on and observability off —
    // counting alone must not perturb the report, and with the run on a
    // single thread the thread-local delta is the pipeline's entire heap
    // traffic. The high-water mark is reset first so it reflects this
    // run's heap growth, not earlier gate runs.
    iot_obs::alloc::set_enabled(true);
    iot_obs::alloc::reset_high_water();
    let alloc_before = iot_obs::alloc::thread_snapshot();
    let (alloc_json, packets_ingested) = {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(config);
        let packets = p.ingest.packets_ingested;
        (p.finish().to_json().dump(), packets)
    };
    let alloc_traffic = iot_obs::alloc::thread_snapshot().since(&alloc_before);
    let alloc_high_water = iot_obs::alloc::process_high_water_bytes();
    iot_obs::alloc::set_enabled(false);
    let alloc_report_identical = alloc_json == serial_json;
    if !alloc_report_identical {
        eprintln!("bench_pipeline: FAIL — allocator-counted report diverged from baseline");
    }

    // The instrumented runs keep counting on so their artifacts (obs
    // report, Prometheus exposition, stage table) carry per-span heap
    // attribution; the identity gate below then covers obs + allocator
    // combined against the plain baseline.
    iot_obs::alloc::set_enabled(true);
    // Start the profile artifact from a clean accumulator so it covers
    // exactly the instrumented runs below, not the gate runs above.
    iot_obs::profile::reset();
    let (obs_report, obs_registry) = {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(config, workers, &SupervisorConfig::default())
            .expect("a run without a journal cannot fail to journal");
        p.finish_with_obs()
    };
    let obs_identical = obs_report.to_json().dump() == serial_json;
    if !obs_identical {
        eprintln!("bench_pipeline: FAIL — instrumented report diverged from baseline");
    }

    // Flight-recorder determinism gate: the logical event timeline (the
    // deterministic Chrome-trace view) must be byte-identical between an
    // instrumented serial run and the instrumented parallel run above.
    // Only enforceable when neither ring overflowed — an overwritten
    // window is a different (worker-dependent) subset by construction.
    let serial_obs_registry = {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign(config);
        p.finish_with_obs().1
    };
    iot_obs::alloc::set_enabled(false);
    let serial_timeline = serial_obs_registry.timeline();
    let parallel_timeline = obs_registry.timeline();
    let det_serial = chrome_trace(&serial_timeline, TraceMode::Deterministic).dump();
    let det_parallel = chrome_trace(&parallel_timeline, TraceMode::Deterministic).dump();
    let events_overwritten = serial_timeline.overwritten + parallel_timeline.overwritten;
    let trace_det_identical = det_serial == det_parallel;
    let trace_det_enforced = events_overwritten == 0;
    if !trace_det_identical && trace_det_enforced {
        eprintln!(
            "bench_pipeline: FAIL — deterministic event trace diverged between \
             serial and parallel runs"
        );
    } else if !trace_det_identical {
        eprintln!(
            "bench_pipeline: WARN — deterministic traces differ, but \
             {events_overwritten} events were overwritten (raise IOT_OBS_EVENTS \
             to enforce at this scale)"
        );
    }

    // Exporter artifacts: the parallel run's wall-clock Chrome trace
    // (Perfetto-loadable), its deterministic counterpart, and the
    // Prometheus exposition of the folded registry.
    let write_artifact = |env: &str, default: &str, contents: &str| {
        let path = PathBuf::from(std::env::var(env).unwrap_or_else(|_| default.to_string()));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::write(&path, contents) {
            Ok(()) => iot_obs::progress!("bench_pipeline: wrote {}", path.display()),
            Err(e) => eprintln!("bench_pipeline: write {} failed: {e}", path.display()),
        }
    };
    write_artifact(
        "IOT_OBS_TRACE_OUT",
        "target/obs_trace.json",
        &chrome_trace(&parallel_timeline, TraceMode::Wall).dump(),
    );
    write_artifact("IOT_OBS_TRACE_DET_OUT", "target/obs_trace_det.json", &det_parallel);
    write_artifact(
        "IOT_OBS_PROM_OUT",
        "target/obs_metrics.prom",
        &prometheus(&obs_registry.snapshot()),
    );
    // Sampling-profiler artifacts, covering the two instrumented runs
    // above. Folded stacks feed flamegraph tooling and `profile_diff`;
    // the speedscope JSON is directly loadable at speedscope.app.
    let profile_snap = iot_obs::profile::snapshot();
    if iot_obs::profile::enabled() && !profile_snap.is_empty() {
        write_artifact(
            "IOT_OBS_PROFILE_OUT",
            "target/profile.folded",
            &iot_obs::folded_stacks(&profile_snap),
        );
        write_artifact(
            "IOT_OBS_SPEEDSCOPE_OUT",
            "target/profile.speedscope.json",
            &iot_obs::speedscope_json(&profile_snap).pretty(),
        );
    }

    let serial = bench("pipeline_serial", warmup, iters, || {
        report_json(config, 1, false)
    });
    let parallel = bench("pipeline_parallel", warmup, iters, || {
        report_json(config, workers, false)
    });
    // Instrumentation overhead is measured on *interleaved* pairs: one
    // obs-off run, then one obs-on run, per iteration. Back-to-back
    // blocks would let slow drift on a busy machine (thermal, cache, a
    // neighbor VM) land entirely on one side and bias the ratio; paired
    // iterations put the drift on both sides equally.
    let mut base_ms = Vec::with_capacity(iters);
    let mut obs_ms = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = std::time::Instant::now();
        std::hint::black_box(report_json(config, 1, false));
        base_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = std::time::Instant::now();
        std::hint::black_box(report_json(config, 1, true));
        obs_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let serial_base = iot_bench::harness::BenchResult::new(
        "pipeline_serial_paired".to_string(),
        iters,
        base_ms,
    );
    let serial_obs = iot_bench::harness::BenchResult::new(
        "pipeline_serial_obs".to_string(),
        iters,
        obs_ms,
    );
    // Allocator-counting overhead, measured the same interleaved way but
    // with observability off on both sides: counting-off run, counting-on
    // run, per iteration. This isolates the atomic/thread-local counter
    // cost from the span/event cost gated above.
    let mut alloc_base_ms = Vec::with_capacity(iters);
    let mut alloc_on_ms = Vec::with_capacity(iters);
    for _ in 0..iters {
        iot_obs::alloc::set_enabled(false);
        let t = std::time::Instant::now();
        std::hint::black_box(report_json(config, 1, false));
        alloc_base_ms.push(t.elapsed().as_secs_f64() * 1e3);
        iot_obs::alloc::set_enabled(true);
        let t = std::time::Instant::now();
        std::hint::black_box(report_json(config, 1, false));
        alloc_on_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    iot_obs::alloc::set_enabled(false);
    let serial_alloc_base = iot_bench::harness::BenchResult::new(
        "pipeline_alloc_baseline".to_string(),
        iters,
        alloc_base_ms,
    );
    let serial_alloc = iot_bench::harness::BenchResult::new(
        "pipeline_alloc_on".to_string(),
        iters,
        alloc_on_ms,
    );
    let speedup = serial.median_ms() / parallel.median_ms();
    let obs_overhead = serial_obs.median_ms() / serial_base.median_ms();
    let alloc_overhead = serial_alloc.median_ms() / serial_alloc_base.median_ms();

    // Per-stage medians from the instrumented *serial* run's span
    // histograms — the same histograms the flight-recorder stage table
    // prints. Captured into the committed bench snapshot so PRs that
    // shift time between ingest stages are visible in review, not just
    // in the total.
    let serial_snap = serial_obs_registry.snapshot();
    let mut stages = Json::obj();
    for (path, hist) in &serial_snap.span_durations {
        if path != "ingest" && !path.starts_with("ingest/") && path != "shard" {
            continue;
        }
        let mut s = Json::obj();
        s.set("calls", hist.count().to_json());
        if let Some(stats) = serial_snap.spans.get(path) {
            s.set("total_ms", stats.total_ms().to_json());
        }
        let q = |q: f64| hist.quantile_upper_bound(q).map(|ns| ns as f64 / 1e6);
        s.set("p50_ms", q(0.5).to_json());
        s.set("p95_ms", q(0.95).to_json());
        // Heap traffic attributed to the stage while counting was on —
        // the per-stage byte budget the docs table quotes.
        if let Some(a) = serial_snap.span_allocs.get(path) {
            s.set("alloc_bytes", a.bytes_allocated.to_json());
            s.set("allocs", a.allocs.to_json());
        }
        stages.set(path, s);
    }

    let mut out = Json::obj();
    out.set("benchmark", "pipeline_ingestion".to_json());
    out.set("scale", scale.name().to_json());
    out.set("experiments", experiments.to_json());
    out.set("workers", workers.to_json());
    out.set("hw_threads", hw_threads.to_json());
    out.set("reports_identical", identical.to_json());
    out.set("obs_report_identical", obs_identical.to_json());
    out.set("alloc_report_identical", alloc_report_identical.to_json());
    out.set("trace_deterministic_identical", trace_det_identical.to_json());
    out.set(
        "events_recorded",
        (parallel_timeline.events.len() as u64).to_json(),
    );
    out.set("events_overwritten", events_overwritten.to_json());
    out.set("serial", serial.to_json());
    out.set("parallel", parallel.to_json());
    out.set("serial_obs_baseline", serial_base.to_json());
    out.set("serial_obs", serial_obs.to_json());
    out.set("serial_alloc_baseline", serial_alloc_base.to_json());
    out.set("serial_alloc", serial_alloc.to_json());
    out.set("speedup_median", speedup.to_json());
    out.set("obs_overhead_ratio", obs_overhead.to_json());
    out.set("alloc_overhead_ratio", alloc_overhead.to_json());
    let mut alloc_block = Json::obj();
    alloc_block.set("bytes_total", alloc_traffic.bytes_allocated.to_json());
    alloc_block.set("allocs_total", alloc_traffic.allocs.to_json());
    alloc_block.set("freed_bytes_total", alloc_traffic.bytes_freed.to_json());
    alloc_block.set("frees_total", alloc_traffic.frees.to_json());
    alloc_block.set(
        "allocs_per_experiment",
        (alloc_traffic.allocs as f64 / experiments.max(1) as f64).to_json(),
    );
    alloc_block.set("high_water_bytes", alloc_high_water.to_json());
    alloc_block.set(
        "peak_rss_bytes",
        iot_obs::process::peak_rss_bytes().unwrap_or(0).to_json(),
    );
    out.set("alloc", alloc_block);
    // Streaming-ingest profile of the same counting-on serial run: how
    // much live heap the bounded cursor pipeline peaks at relative to
    // the packet stream it walked. high_water_per_packet is the
    // headline bounded-memory number — it must not scale with campaign
    // size (the streaming smoke in verify.sh gates the absolute
    // ceiling).
    let mut streaming = Json::obj();
    streaming.set("packets_ingested", packets_ingested.to_json());
    streaming.set("heap_high_water_bytes", alloc_high_water.to_json());
    streaming.set(
        "high_water_per_packet_bytes",
        (alloc_high_water as f64 / packets_ingested.max(1) as f64).to_json(),
    );
    streaming.set(
        "heap_amplification",
        (alloc_traffic.bytes_allocated as f64 / alloc_high_water.max(1) as f64).to_json(),
    );
    out.set("streaming", streaming);
    out.set("stages", stages);
    if !profile_snap.is_empty() {
        out.set("profile", profile_snap.to_json());
    }
    out.set(
        "note",
        "speedup_median = serial median / parallel median; expect ≥2x on 4+ \
         hardware threads, ~1x or slightly below on a single core (sharding \
         overhead without parallel hardware). obs_overhead_ratio = serial \
         median with IOT_OBS instrumentation (spans + flight-recorder \
         events) forced on / forced off, measured on interleaved pairs \
         (serial_obs vs serial_obs_baseline); gated <1.05 by obs_check in \
         verify.sh. alloc_overhead_ratio = the same interleaved comparison \
         with only heap counting toggled (obs off both sides), gated <1.05. \
         alloc = one serial run's heap traffic with counting on; \
         allocs_per_experiment is ratcheted per host by bench_trend."
            .to_json(),
    );

    let path = std::env::var("IOT_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_pipeline.json".to_string());
    let mut f = std::fs::File::create(&path).expect("create bench output");
    writeln!(f, "{}", out.pretty()).expect("write bench output");

    if iot_obs::enabled() {
        let report = RunReport::from_registry("bench_pipeline", &obs_registry)
            .meta("scale", scale.name())
            .meta("workers", &workers.to_string())
            .meta("experiments", &experiments.to_string());
        match report.write() {
            Ok(p) => iot_obs::progress!("bench_pipeline: obs report -> {}", p.display()),
            Err(e) => eprintln!("bench_pipeline: obs report write failed: {e}"),
        }
        iot_obs::progress!("{}", report.stage_table());
    }

    iot_obs::progress!(
        "bench_pipeline: serial median {:.1} ms, parallel median {:.1} ms \
         ({workers} workers), speedup {speedup:.2}x, obs overhead \
         {obs_overhead:.3}x, alloc overhead {alloc_overhead:.3}x, \
         {:.1} MB / {} allocs per campaign (high-water {:.1} MB) -> {path}",
        serial.median_ms(),
        parallel.median_ms(),
        alloc_traffic.bytes_allocated as f64 / 1e6,
        alloc_traffic.allocs,
        alloc_high_water as f64 / 1e6
    );
    if !identical
        || !obs_identical
        || !alloc_report_identical
        || (!trace_det_identical && trace_det_enforced)
    {
        std::process::exit(1);
    }
}
