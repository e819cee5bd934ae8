//! Pipeline identity, heap and instrumentation-overhead bench.
//!
//! Runs the full analysis pipeline (destinations + encryption + PII over
//! a complete campaign, controlled and idle), gates the report's
//! identity at 1, 2 and 8 workers through
//! `iot_oracle::differential::check_worker_grid`, and writes its gates
//! and measurements to `BENCH_pipeline.json`. End-to-end timing lives in
//! the repository benchmark (`perfbench/`), not here.
//!
//! A dedicated serial run with heap counting on and observability off
//! yields the `alloc` block — total heap traffic, allocations per
//! experiment, high-water, and kernel peak RSS — and must reproduce the
//! baseline report byte for byte (`alloc_report_identical`). The totals
//! repeat exactly for a fixed grid, so `obs_check` gates them against
//! the committed `BENCH_pipeline.json` on any host. Interleaved pairs
//! then re-run the serial driver with observability forced *on*
//! (`obs_overhead_ratio`) and with only heap counting forced on
//! (`alloc_overhead_ratio`); `obs_check` gates both ratios in
//! `verify.sh`. When `IOT_OBS` is set, an `iot_obs::RunReport` for one
//! instrumented run is written to `IOT_OBS_OUT` (default
//! `results/obs_run.json`).
//!
//! Environment knobs:
//!
//! * `IOT_SCALE` — campaign grid (`quick` / `medium` / `full`); this
//!   binary defaults to `quick` since every run is a whole campaign.
//! * `IOT_BENCH_OUT` — output path (default `BENCH_pipeline.json`).
//! * `IOT_OBS` / `IOT_OBS_OUT` — run-report emission (see `iot-obs`).
//! * `IOT_OBS_TRACE_OUT` / `IOT_OBS_TRACE_DET_OUT` / `IOT_OBS_PROM_OUT`
//!   — exporter artifact paths (default `target/obs_trace.json`,
//!   `target/obs_trace_det.json`, `target/obs_metrics.prom`). The
//!   deterministic trace is additionally required to be byte-identical
//!   between the 1-worker and N-worker instrumented runs whenever no
//!   ring overflow occurred.
//! * `IOT_OBS_PROFILE_OUT` — where the instrumented N-worker run's span
//!   tree is written as folded stacks (default `target/profile.folded`),
//!   from the same registry as the run report; `obs_check` checks it
//!   against the report and `profile_diff` compares it with the
//!   committed baseline in `verify.sh`.
//!
//! The instrumented N-worker run uses the host's available parallelism.

use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::SupervisorConfig;
use iot_bench::harness::BenchResult;
use iot_bench::{campaign_config, Scale};
use iot_core::json::{Json, ToJson};
use iot_obs::{chrome_trace, folded_stacks, prometheus, RunReport, TraceMode};
use iot_oracle::differential::check_worker_grid;
use iot_testbed::schedule::CampaignConfig;
use std::io::Write;
use std::path::PathBuf;

/// Interleaved off/on pairs behind each overhead ratio.
const PAIRS: usize = 3;

/// One campaign at `workers` workers; `workers == 1` is `run_campaign`.
fn report(config: CampaignConfig, workers: usize, obs: bool) -> PipelineReport {
    let mut p = Pipeline::with_obs(obs);
    p.run_campaign_supervised(config, workers, &SupervisorConfig::default())
        .expect("a run without a journal cannot fail to journal");
    p.finish()
}

/// One serial campaign's report, serialized.
fn report_json(config: CampaignConfig, obs: bool) -> String {
    report(config, 1, obs).to_json().dump()
}

/// Times [`PAIRS`] interleaved runs of `off` then `on`.
fn interleaved(
    (off_name, mut off): (&str, impl FnMut() -> String),
    (on_name, mut on): (&str, impl FnMut() -> String),
) -> (BenchResult, BenchResult) {
    fn time_ms(op: &mut impl FnMut() -> String) -> f64 {
        let t = std::time::Instant::now();
        std::hint::black_box(op());
        t.elapsed().as_secs_f64() * 1e3
    }
    let (mut off_ms, mut on_ms) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for _ in 0..PAIRS {
        off_ms.push(time_ms(&mut off));
        on_ms.push(time_ms(&mut on));
    }
    (
        BenchResult::new(off_name.to_string(), PAIRS, off_ms),
        BenchResult::new(on_name.to_string(), PAIRS, on_ms),
    )
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
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    iot_obs::progress!("bench_pipeline: scale={} workers={workers}", scale.name());

    // Resolve the obs config once (it may flip allocator counting on via
    // IOT_OBS_ALLOC), then take manual control: the gate runs and the
    // overhead baselines run with heap counting *off*, and the allocator
    // sections below force it on explicitly, so the numbers are
    // comparable regardless of the caller's environment.
    iot_obs::enabled();
    iot_obs::alloc::set_enabled(false);

    // Correctness gates first: the report must be identical at 1, 2 and
    // 8 workers, and turning instrumentation on must not change it.
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
    let (alloc_json, experiments, packets_ingested) = {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(config);
        let (experiments, packets) = (p.experiments(), p.ingest.packets_ingested);
        (p.finish().to_json().dump(), experiments, packets)
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
    // Prometheus exposition and folded span tree of its registry.
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
    let obs_snap = obs_registry.snapshot();
    write_artifact(
        "IOT_OBS_PROM_OUT",
        "target/obs_metrics.prom",
        &prometheus(&obs_snap),
    );
    write_artifact(
        "IOT_OBS_PROFILE_OUT",
        "target/profile.folded",
        &folded_stacks(&obs_snap),
    );

    // Instrumentation overhead is measured on *interleaved* pairs: one
    // obs-off run, then one obs-on run, per pair. Back-to-back blocks
    // would let slow drift on a busy machine (thermal, cache, a neighbor
    // VM) land entirely on one side and bias the ratio; paired runs put
    // the drift on both sides equally.
    let (serial_base, serial_obs) = interleaved(
        ("pipeline_serial_paired", || report_json(config, false)),
        ("pipeline_serial_obs", || report_json(config, true)),
    );
    // Allocator-counting overhead, measured the same interleaved way but
    // with observability off on both sides. This isolates the
    // atomic/thread-local counter cost from the span/event cost gated
    // above.
    let (serial_alloc_base, serial_alloc) = interleaved(
        ("pipeline_alloc_baseline", || {
            iot_obs::alloc::set_enabled(false);
            report_json(config, false)
        }),
        ("pipeline_alloc_on", || {
            iot_obs::alloc::set_enabled(true);
            report_json(config, false)
        }),
    );
    iot_obs::alloc::set_enabled(false);
    let obs_overhead = serial_obs.median_ms() / serial_base.median_ms();
    let alloc_overhead = serial_alloc.median_ms() / serial_alloc_base.median_ms();

    // Per-stage medians from the instrumented *serial* run's span
    // histograms — the same histograms the flight-recorder stage table
    // prints — for the worker's `shard` tree. Captured into the
    // committed bench snapshot so PRs that shift time between stages are
    // visible in review, not just in the total.
    let serial_snap = serial_obs_registry.snapshot();
    let mut stages = Json::obj();
    for (path, hist) in &serial_snap.span_durations {
        if path != "shard" && !path.starts_with("shard/") {
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
    out.set("reports_identical", identical.to_json());
    out.set("obs_report_identical", obs_identical.to_json());
    out.set("alloc_report_identical", alloc_report_identical.to_json());
    out.set("trace_deterministic_identical", trace_det_identical.to_json());
    out.set(
        "events_recorded",
        (parallel_timeline.events.len() as u64).to_json(),
    );
    out.set("events_overwritten", events_overwritten.to_json());
    out.set("serial_obs_baseline", serial_base.to_json());
    out.set("serial_obs", serial_obs.to_json());
    out.set("serial_alloc_baseline", serial_alloc_base.to_json());
    out.set("serial_alloc", serial_alloc.to_json());
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
    // size (obs_check holds the high-water to the committed baseline).
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
    out.set(
        "note",
        "obs_overhead_ratio = serial median with IOT_OBS instrumentation \
         (spans + flight-recorder events) forced on / forced off, measured on \
         interleaved pairs (serial_obs vs serial_obs_baseline); gated <1.05 by \
         obs_check in verify.sh. alloc_overhead_ratio = the same interleaved \
         comparison with only heap counting toggled (obs off both sides), \
         gated <1.05. alloc = one serial run's heap traffic with counting on; \
         obs_check fails when allocs_total or bytes_total moves more than 0.1% \
         either way from the committed BENCH_pipeline.json."
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
        "bench_pipeline: {experiments} experiments, obs overhead {obs_overhead:.3}x, \
         alloc overhead {alloc_overhead:.3}x, {} B / {} allocs per campaign \
         (high-water {:.1} MB) -> {path}",
        alloc_traffic.bytes_allocated,
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
