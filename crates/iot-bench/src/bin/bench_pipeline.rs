//! Pipeline heap, instrumentation-overhead and observability bench.
//!
//! Runs the full analysis pipeline (destinations + encryption + PII over
//! the quick campaign, controlled and idle) in five steps, then checks
//! every observability gate ([`iot_bench::gates`]) in memory:
//!
//! 1. A plain serial baseline: the report every other run must reproduce
//!    byte for byte.
//! 2. A serial run with heap counting on and observability off. Its
//!    thread's heap delta is the `alloc` block (heap traffic, allocations
//!    per experiment, high-water), which repeats exactly for a fixed grid
//!    and must stay within 0.1% of the committed `BENCH_pipeline.json`,
//!    either way, on any host.
//! 3. Interleaved off/on pairs of the serial driver, with observability
//!    forced on (`obs_overhead_ratio`) and then with only heap counting
//!    on (`alloc_overhead_ratio`).
//! 4. The live endpoint starts on an ephemeral localhost port. Not
//!    sooner: the pipeline publishes at every fold while it listens,
//!    which would inflate the obs-on side of step 3.
//! 5. The instrumented run at the host's available parallelism, heap
//!    counting on, on a spawned thread while this thread probes
//!    `/progress`. Its one registry feeds the run report, the Prometheus
//!    exposition and the folded profile, and the record's `stages` block
//!    is the run report's `spans`. Afterwards `/metrics` and `/profile`
//!    must equal the in-memory renders byte for byte, and `/progress`
//!    must carry the report's experiment count, ledger and coverage.
//!
//! Every switch is set here, in process: observability per pipeline
//! with [`Pipeline::with_obs`], heap counting with an
//! `iot_obs::alloc::counting` guard. The record always goes to
//! `target/bench_pipeline.json`; to rebaseline, copy it over
//! `BENCH_pipeline.json`. The run report stays in memory, where its
//! gate checks it. End-to-end timing lives in the repository benchmark
//! (`perfbench/`), and worker-count identity in the oracle
//! (`oracle_check`), not here. Exits 1 when any gate fails.

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_bench::gates::{self, Verdict};
use iot_bench::harness::BenchResult;
use iot_bench::{campaign_config, Scale};
use iot_core::json::{Json, ToJson};
use iot_obs::{folded_stacks, prometheus, RunReport};
use iot_testbed::schedule::CampaignConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

/// Interleaved off/on pairs behind each overhead ratio.
const PAIRS: usize = 3;
/// Where the fresh record goes.
const RECORD: &str = "target/bench_pipeline.json";
/// The committed baseline the heap gate compares against.
const BASELINE: &str = "BENCH_pipeline.json";

/// One serial campaign's report, serialized.
fn report_json(config: CampaignConfig, obs: bool) -> String {
    let mut p = Pipeline::with_obs(obs);
    p.run_campaign(config);
    p.finish().to_json().dump()
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

/// Sends one raw HTTP request and returns `(status_line, body)`.
fn request(addr: SocketAddr, head: &str) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{head}\r\nHost: localhost\r\n\r\n").as_bytes())
        .map_err(|e| format!("{head}: write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{head}: read: {e}"))?;
    let (head_part, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{head}: no header/body separator"))?;
    let status = head_part.lines().next().unwrap_or_default().to_string();
    Ok((status, body.to_string()))
}

/// Sends `head` and checks that its status line carries `want`; returns
/// the body.
fn answer(addr: SocketAddr, head: &str, want: &str) -> Result<String, String> {
    let (status, body) = request(addr, head)?;
    if !status.contains(want) {
        return Err(format!("{head}: expected {want}, got {status:?}"));
    }
    Ok(body)
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    answer(addr, &format!("GET {path} HTTP/1.1"), "200")
}

fn main() -> ExitCode {
    let scale = Scale::Quick;
    let config = campaign_config(scale);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // 1. The serial baseline that heap counting and instrumentation must
    // not change.
    let serial_json = report_json(config, false);

    // 2. The heap-counted serial run: counting alone must not perturb
    // the report, and with the run on a single thread this thread's
    // delta and high-water are the pipeline's entire heap traffic and
    // peak. The high-water mark is reset first so it reflects this run's
    // heap growth, not the baseline run's.
    let counting = iot_obs::alloc::counting(true);
    iot_obs::alloc::reset_high_water();
    let alloc_before = iot_obs::alloc::thread_snapshot();
    let (alloc_json, experiments, packets_ingested) = {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(config);
        let (experiments, packets) = (p.experiments(), p.ingest.packets_ingested);
        (p.finish().to_json().dump(), experiments, packets)
    };
    let alloc_traffic = iot_obs::alloc::thread_snapshot().since(&alloc_before);
    let alloc_high_water = iot_obs::alloc::thread_high_water_bytes().max(0) as u64;
    drop(counting);
    let alloc_identical = alloc_json == serial_json;

    // 3. Overhead on *interleaved* pairs: one off run, then one on run,
    // per pair. Back-to-back blocks would let slow drift on a busy
    // machine (thermal, cache, a neighbor VM) land entirely on one side
    // and bias the ratio; paired runs put the drift on both sides
    // equally. The allocator pairs keep observability off on both sides,
    // isolating the counter cost from the span cost.
    let (serial_base, serial_obs) = interleaved(
        ("pipeline_serial_paired", || report_json(config, false)),
        ("pipeline_serial_obs", || report_json(config, true)),
    );
    let (serial_alloc_base, serial_alloc) = interleaved(
        ("pipeline_alloc_baseline", || {
            let _off = iot_obs::alloc::counting(false);
            report_json(config, false)
        }),
        ("pipeline_alloc_on", || {
            let _on = iot_obs::alloc::counting(true);
            report_json(config, false)
        }),
    );

    // 4. The live endpoint.
    let addr = match iot_obs::serve::start("127.0.0.1:0") {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("bench_pipeline: FAIL — the live endpoint cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };

    // 5. The instrumented run keeps counting on, so its registry carries
    // per-span heap attribution; the identity gate then covers obs and
    // the allocator combined against the plain baseline. The endpoint
    // must answer while it runs; the first probe may race the first
    // publication, so any well-formed answer counts.
    let counting = iot_obs::alloc::counting(true);
    let run = std::thread::spawn(move || {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(config, workers, &SupervisorConfig::default())
            .expect("a run without a journal cannot fail to journal");
        p.finish_with_obs()
    });
    let live = get(addr, "/progress").map(|_| "/progress answers during the run".to_string());
    let (obs_report, registry) = run.join().expect("the instrumented run panicked");
    drop(counting);
    let report = obs_report.to_json();
    let obs_identical = report.dump() == serial_json;
    let snapshot = registry.snapshot();
    let (metrics, profile) = (prometheus(&snapshot), folded_stacks(&snapshot));

    let run_report = RunReport::from_registry("bench_pipeline", &registry)
        .meta("scale", scale.name())
        .meta("workers", &workers.to_string())
        .meta("experiments", &experiments.to_string())
        .to_json();

    let mut record = Json::obj();
    record.set("benchmark", "pipeline_ingestion".to_json());
    record.set("scale", scale.name().to_json());
    record.set("experiments", experiments.to_json());
    record.set("workers", workers.to_json());
    record.set("obs_report_identical", obs_identical.to_json());
    record.set("alloc_report_identical", alloc_identical.to_json());
    record.set("serial_obs_baseline", serial_base.to_json());
    record.set("serial_obs", serial_obs.to_json());
    record.set("serial_alloc_baseline", serial_alloc_base.to_json());
    record.set("serial_alloc", serial_alloc.to_json());
    let ratio = |on: &BenchResult, off: &BenchResult| on.median_ms() / off.median_ms();
    record.set("obs_overhead_ratio", ratio(&serial_obs, &serial_base).to_json());
    record.set(
        "alloc_overhead_ratio",
        ratio(&serial_alloc, &serial_alloc_base).to_json(),
    );
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
    record.set("alloc", alloc_block);
    // Streaming-ingest profile of the same counting-on serial run: how
    // much live heap the bounded cursor pipeline peaks at relative to
    // the packet stream it walked. high_water_per_packet is the
    // headline bounded-memory number; it must not scale with campaign
    // size.
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
    record.set("streaming", streaming);
    // Every span path's row from the run report, so a change that shifts
    // time or heap between stages is visible in review, not just in the
    // total.
    let stages = run_report
        .get("spans")
        .cloned()
        .expect("a run report has spans");
    record.set("stages", stages);
    record.set(
        "note",
        "obs_overhead_ratio = serial median with instrumentation (spans, \
         counters, histograms) switched on / off per pipeline, measured on \
         interleaved pairs (serial_obs vs serial_obs_baseline); \
         alloc_overhead_ratio = the same interleaved comparison with only heap \
         counting toggled (obs off both sides); bench_pipeline fails either above \
         1.05 with a median delta over 75 ms. alloc = one serial run's heap \
         traffic with counting on; bench_pipeline fails when allocs_total, \
         bytes_total or high_water_bytes moves more than 0.1% either way from the \
         committed BENCH_pipeline.json. stages = the instrumented run's span \
         tree, as its run report's spans block renders it."
            .to_json(),
    );
    let written = std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(RECORD, format!("{}\n", record.pretty())));
    if let Err(e) = written {
        eprintln!("bench_pipeline: FAIL — write {RECORD}: {e}");
        return ExitCode::FAILURE;
    }

    let committed = std::fs::read_to_string(BASELINE)
        .map_err(|e| format!("{BASELINE}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{BASELINE}: {e}")));
    let served = |route: &str, rendered: &str| {
        get(addr, route).and_then(|body| gates::served_equal(route, &body, rendered))
    };
    let verdicts: Vec<(&str, Verdict)> = vec![
        ("identity", gates::report_identity(alloc_identical, obs_identical)),
        ("heap", committed.and_then(|c| gates::alloc_gate(&record, &c))),
        ("obs overhead", gates::overhead("obs", &serial_base, &serial_obs)),
        (
            "alloc overhead",
            gates::overhead("alloc", &serial_alloc_base, &serial_alloc),
        ),
        (
            "run report",
            gates::report_round_trips(&run_report.pretty()),
        ),
        ("counters", gates::stage_counters(&snapshot)),
        ("spans", gates::span_tree(&snapshot)),
        ("span heap", gates::span_allocs(&snapshot)),
        ("prometheus", gates::prometheus_families(&metrics)),
        ("folded", gates::folded_matches_spans(&snapshot, &profile)),
        ("live", live),
        ("/metrics", served("/metrics", &metrics)),
        ("/profile", served("/profile", &profile)),
        (
            "/progress",
            get(addr, "/progress").and_then(|body| gates::progress_matches(&body, &report)),
        ),
        (
            "errors",
            answer(addr, "GET /nope HTTP/1.1", "404")
                .and_then(|_| answer(addr, "POST /metrics HTTP/1.1", "405"))
                .map(|_| "unknown route answers 404, POST answers 405".to_string()),
        ),
    ];
    let mut failed = 0;
    for (gate, verdict) in &verdicts {
        match verdict {
            Ok(line) => println!("bench_pipeline: {gate}: {line}"),
            Err(reason) => {
                failed += 1;
                eprintln!("bench_pipeline: FAIL — {gate}: {reason}");
            }
        }
    }
    println!(
        "bench_pipeline: {experiments} experiments, {} B / {} allocs per campaign \
         (high-water {:.1} MB), {failed} of {} gates failed -> {RECORD}",
        alloc_traffic.bytes_allocated,
        alloc_traffic.allocs,
        alloc_high_water as f64 / 1e6,
        verdicts.len()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
