//! Chaos gate: seeded fault injection swept over the pipeline, run by
//! `verify.sh`.
//!
//! Degraded captures are the *normal* case for months-long unattended
//! gateway captures (§3.2), so robustness is a gated property here, not
//! an aspiration. For each fault rate in the sweep this binary runs the
//! full pipeline over a degraded campaign and asserts:
//!
//! 1. **No escaped panics** — every run completes, including a stage
//!    with seeded ingest-panic injection, which must end in quarantine
//!    (`experiments_quarantined > 0`), never a crash.
//! 2. **Valid reports** — every report's JSON round-trips through the
//!    in-tree parser.
//! 3. **Exact accounting** — `IngestStats` reconciles: generated +
//!    duplicated == ingested + dropped + lost + quarantined, at every
//!    rate.
//! 4. **Determinism under faults** — for the same fault seed the faulted
//!    report is identical at 1, 2 and 8 workers
//!    (`iot_oracle::differential::check_worker_grid`), and a clean
//!    (all-zero-rate) plan is a perfect identity against an unarmed run.
//! 5. **Bounded drift** — at low fault rates the headline metrics
//!    (destination counts, PII findings, encryption mix) stay close to
//!    the clean baseline; losing 0.1% of packets must not reshape the
//!    paper's tables.
//! 6. **Stall quarantine** — seeded stalls that breach the supervised
//!    driver's watchdog deadline end as `stall_deadline` quarantines,
//!    with the decision (a value comparison, never a clock race)
//!    identical at 1, 2 and 8 workers.
//! 7. **Deterministic retry** — with a retry budget, transient
//!    failures are re-attempted with seed-stable draws: retries rescue
//!    experiments, the extended ledger reconciles, and the report is
//!    identical at 1, 2 and 8 workers and across repeated runs.
//! 8. **Kill and resume** — a journaled supervised run whose journal is
//!    amputated mid-record resumes, at 1, 2 and 8 workers, to a report
//!    identical to the straight-through run; resuming a complete
//!    journal replays everything and runs nothing.
//!
//! Environment:
//!
//! * `IOT_SCALE` — `quick` / `medium` / `full` grid (see `iot-bench`).
//! * `IOT_CHAOS_RATES` — comma-separated sweep override, e.g. `0.001,0.01`.
//! * `IOT_CHAOS_SEED` — fault seed (default `0xC4A05`).
//! * `IOT_CHAOS_OUT` — results JSON path (default `target/chaos_check.json`).
//!
//! Exits non-zero on any gate failure.

use iot_analysis::pipeline::{Pipeline, PipelineReport, INJECTED_PANIC_MSG};
use iot_analysis::SupervisorConfig;
use iot_bench::{campaign_config, scale};
use iot_chaos::FaultPlan;
use iot_core::json::{Json, ToJson};
use iot_oracle::differential::{check_worker_grid, run};
use iot_testbed::schedule::CampaignConfig;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Default sweep of uniform fault rates.
const DEFAULT_RATES: [f64; 3] = [0.001, 0.01, 0.05];
/// Rates at or below this are "low" and must respect the drift gates.
const LOW_RATE: f64 = 0.011;
/// Injected ingest-panic probability for the quarantine stage.
const PANIC_RATE: f64 = 0.05;

/// Drift ceilings at low rates, deliberately loose multiples of the
/// measured drift (recorded in EXPERIMENTS.md §drift) so routine noise
/// cannot flake the gate while a real regression still trips it.
const MAX_DEST_REL_DRIFT: f64 = 0.25;
const MAX_PII_REL_DRIFT: f64 = 0.35;
const MAX_MIX_DELTA_PTS: f64 = 8.0;

/// Headline metrics compared against the clean baseline.
#[derive(Debug, Clone, Copy)]
struct Headline {
    experiments: u64,
    support_total: u64,
    third_total: u64,
    pii_findings: u64,
    /// Max |percentage-point| spread helper: stored as the per-lab mix.
    us_mix: [f64; 3],
    uk_mix: [f64; 3],
}

fn headline(report: &PipelineReport) -> Headline {
    let sum = |m: &std::collections::HashMap<String, usize>| {
        m.values().map(|&v| v as u64).sum()
    };
    let mix = |lab: &str| {
        report
            .encryption_mix
            .get(lab)
            .copied()
            .unwrap_or([0.0; 3])
    };
    Headline {
        experiments: report.experiments,
        support_total: sum(&report.support_destinations),
        third_total: sum(&report.third_destinations),
        pii_findings: report.pii_findings.len() as u64,
        us_mix: mix("US"),
        uk_mix: mix("UK"),
    }
}

/// Relative drift |a/b - 1|, treating a zero baseline as infinite drift
/// unless the faulted value is also zero.
fn rel_drift(faulted: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        if faulted == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (faulted as f64 / baseline as f64 - 1.0).abs()
    }
}

fn mix_delta(a: &Headline, b: &Headline) -> f64 {
    let mut worst = 0.0f64;
    for (x, y) in a.us_mix.iter().zip(&b.us_mix) {
        worst = worst.max((x - y).abs());
    }
    for (x, y) in a.uk_mix.iter().zip(&b.uk_mix) {
        worst = worst.max((x - y).abs());
    }
    worst
}

/// A supervised run without a journal, which cannot fail.
fn supervised(
    config: CampaignConfig,
    plan: FaultPlan,
    workers: usize,
    sup: &SupervisorConfig,
) -> PipelineReport {
    let mut p = Pipeline::with_obs(false);
    p.set_fault_plan(plan);
    p.run_campaign_supervised(config, workers, sup)
        .expect("a run without a journal cannot fail to journal");
    p.finish()
}

/// Resumes a supervised run at `workers` workers from the journal at
/// `path`.
fn resume(
    config: CampaignConfig,
    plan: FaultPlan,
    workers: usize,
    sup: &SupervisorConfig,
    path: &Path,
) -> Result<(PipelineReport, iot_analysis::SuperviseSummary), String> {
    let sup = SupervisorConfig {
        journal: Some(path.to_path_buf()),
        resume: true,
        ..sup.clone()
    };
    let mut p = Pipeline::with_obs(false);
    p.set_fault_plan(plan);
    let summary = p
        .run_campaign_supervised(config, workers, &sup)
        .map_err(|e| format!("resume at {workers} workers: {e}"))?;
    Ok((p.finish(), summary))
}

/// Gates 4b, 6, 7 and 8: the worker-grid identity check; returns the
/// 1-worker result.
fn identical_across_workers<T: ToJson>(
    stage: &str,
    run: impl FnMut(usize) -> T,
) -> Result<T, String> {
    let (baseline, v) = check_worker_grid("chaos_workers", run);
    match v.first() {
        None => Ok(baseline),
        Some(first) => Err(format!(
            "{stage}: report diverged across worker counts ({} fields; first: {})",
            v.len(),
            first.render()
        )),
    }
}

/// Gate 2: the report must serialize to JSON the in-tree parser accepts.
fn check_valid_json(label: &str, report: &PipelineReport) -> Result<String, String> {
    let dump = report.to_json().dump();
    Json::parse(&dump).map_err(|e| format!("{label}: report JSON invalid: {e}"))?;
    Ok(dump)
}

fn check(out_path: &str) -> Result<(), String> {
    // Injected panics are drills: silence exactly their payloads so the
    // log shows gate results, not hundreds of expected backtraces. Any
    // other panic message still prints — and gate 1 fails the run.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains(INJECTED_PANIC_MSG) {
            return;
        }
        prev_hook(info);
    }));

    let scale = scale();
    let config = campaign_config(scale);
    let seed = std::env::var("IOT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A05u64);
    let rates: Vec<f64> = match std::env::var("IOT_CHAOS_RATES") {
        Ok(s) => s
            .split(',')
            .map(|r| r.trim().parse().map_err(|e| format!("bad rate {r:?}: {e}")))
            .collect::<Result<_, _>>()?,
        Err(_) => DEFAULT_RATES.to_vec(),
    };
    println!(
        "chaos_check: scale={} seed={seed:#x} rates={rates:?}",
        scale.name()
    );

    let mut results = Json::obj();
    results.set("scale", Json::Str(scale.name().to_string()));
    results.set("seed", seed.to_json());

    // Clean baseline for identity and drift comparisons.
    let t = Instant::now();
    let baseline = run(config, None, 1);
    let baseline_json = check_valid_json("baseline", &baseline)?;
    if !baseline.ingest.is_clean() || !baseline.ingest.reconciles() {
        return Err(format!(
            "baseline: clean run has a dirty ledger: {:?}",
            baseline.ingest
        ));
    }
    let base = headline(&baseline);
    println!(
        "chaos_check: baseline {} experiments, {} pii findings ({:.1}s)",
        base.experiments,
        base.pii_findings,
        t.elapsed().as_secs_f64()
    );

    // Gate 4a: an armed all-zero-rate plan is an exact identity.
    let armed_clean = run(config, Some(FaultPlan::clean(seed)), 1);
    if check_valid_json("clean-plan", &armed_clean)? != baseline_json {
        return Err("clean fault plan changed the report: degrade→salvage \
                    round-trip is not an identity"
            .to_string());
    }
    println!("chaos_check: clean-plan identity OK");

    let mut sweep = Vec::new();
    for &rate in &rates {
        let t = Instant::now();
        let plan = FaultPlan::uniform(seed, rate);
        // Gate 4b: identity across worker counts under faults.
        let serial = identical_across_workers(&format!("rate {rate}"), |workers| {
            run(config, Some(plan), workers)
        })?;
        check_valid_json(&format!("rate {rate}"), &serial)?;
        let ingest = &serial.ingest;

        // Gate 3: exact packet accounting.
        if !ingest.reconciles() {
            return Err(format!("rate {rate}: ledger does not reconcile: {ingest:?}"));
        }
        if rate > 0.0 && ingest.is_clean() {
            return Err(format!("rate {rate}: faults never fired: {ingest:?}"));
        }
        // Panic injection is off in this stage, so no experiment may be
        // lost — degraded, but always analyzed.
        if ingest.experiments_quarantined != 0 || ingest.shards_quarantined != 0 {
            return Err(format!("rate {rate}: unexpected quarantine: {ingest:?}"));
        }
        if serial.experiments != base.experiments {
            return Err(format!(
                "rate {rate}: experiment count changed ({} vs {})",
                serial.experiments, base.experiments
            ));
        }

        // Gate 5: bounded drift at low rates.
        let h = headline(&serial);
        let support_drift = rel_drift(h.support_total, base.support_total);
        let third_drift = rel_drift(h.third_total, base.third_total);
        let pii_drift = rel_drift(h.pii_findings, base.pii_findings);
        let mix_pts = mix_delta(&h, &base);
        println!(
            "chaos_check: rate {rate}: dropped {} lost {} truncated {} resyncs {} | \
             drift support {:.3} third {:.3} pii {:.3} mix {:.2}pts ({:.1}s)",
            ingest.packets_dropped,
            ingest.packets_lost,
            ingest.packets_truncated,
            ingest.salvage_resyncs,
            support_drift,
            third_drift,
            pii_drift,
            mix_pts,
            t.elapsed().as_secs_f64()
        );
        if rate <= LOW_RATE {
            if support_drift > MAX_DEST_REL_DRIFT || third_drift > MAX_DEST_REL_DRIFT {
                return Err(format!(
                    "rate {rate}: destination drift {support_drift:.3}/{third_drift:.3} \
                     exceeds {MAX_DEST_REL_DRIFT}"
                ));
            }
            if pii_drift > MAX_PII_REL_DRIFT {
                return Err(format!(
                    "rate {rate}: PII drift {pii_drift:.3} exceeds {MAX_PII_REL_DRIFT}"
                ));
            }
            if mix_pts > MAX_MIX_DELTA_PTS {
                return Err(format!(
                    "rate {rate}: encryption mix moved {mix_pts:.2} points \
                     (max {MAX_MIX_DELTA_PTS})"
                ));
            }
        }

        let mut entry = Json::obj();
        entry.set("rate", rate.to_json());
        entry.set("ingest", ingest.to_json());
        entry.set("support_drift", support_drift.to_json());
        entry.set("third_drift", third_drift.to_json());
        entry.set("pii_drift", pii_drift.to_json());
        entry.set("mix_delta_pts", mix_pts.to_json());
        entry.set("parallel_identical", Json::Bool(true));
        sweep.push(entry);
    }
    results.set("sweep", Json::Arr(sweep));

    // Gate 1 (hard part): seeded ingest panics end in quarantine, with
    // the run surviving and still deterministic across worker counts.
    let t = Instant::now();
    let panic_plan = FaultPlan {
        panic_rate: PANIC_RATE,
        ..FaultPlan::uniform(seed, 0.01)
    };
    let serial = identical_across_workers("panic stage", |workers| {
        run(config, Some(panic_plan), workers)
    })?;
    check_valid_json("panic stage", &serial)?;
    let ingest = &serial.ingest;
    if ingest.experiments_quarantined == 0 {
        return Err(format!(
            "panic stage: panic_rate {PANIC_RATE} quarantined nothing: {ingest:?}"
        ));
    }
    if !ingest.reconciles() {
        return Err(format!("panic stage: ledger does not reconcile: {ingest:?}"));
    }
    if serial.experiments + ingest.experiments_quarantined != base.experiments {
        return Err(format!(
            "panic stage: {} analyzed + {} quarantined != {} generated",
            serial.experiments, ingest.experiments_quarantined, base.experiments
        ));
    }
    println!(
        "chaos_check: panic stage: {} of {} experiments quarantined, run survived ({:.1}s)",
        ingest.experiments_quarantined,
        base.experiments,
        t.elapsed().as_secs_f64()
    );
    let mut panic_stage = Json::obj();
    panic_stage.set("panic_rate", PANIC_RATE.to_json());
    panic_stage.set("ingest", ingest.to_json());
    results.set("panic_stage", panic_stage);
    let no_retry_quarantined = ingest.experiments_quarantined;

    // Gate 6: stalls breaching the watchdog deadline are quarantined as
    // `stall_deadline`, identically across worker counts.
    let t = Instant::now();
    let stall_plan = FaultPlan {
        stall_rate: 0.04,
        stall_max_micros: 40_000,
        ..FaultPlan::clean(seed)
    };
    let stall_sup = SupervisorConfig {
        deadline: Some(Duration::from_millis(10)),
        ..SupervisorConfig::default()
    };
    let stall_base = identical_across_workers("stall stage", |workers| {
        supervised(config, stall_plan, workers, &stall_sup)
    })?;
    check_valid_json("stall stage", &stall_base)?;
    let ingest = &stall_base.ingest;
    let stalled = ingest.stage_errors.get("stall_deadline").copied().unwrap_or(0);
    if stalled == 0 {
        return Err(format!(
            "stall stage: 4% stalls up to 40ms against a 10ms deadline \
             quarantined nothing: {ingest:?}"
        ));
    }
    if !ingest.reconciles() {
        return Err(format!("stall stage: ledger does not reconcile: {ingest:?}"));
    }
    if stall_base.experiments + ingest.experiments_quarantined != base.experiments {
        return Err(format!(
            "stall stage: {} analyzed + {} quarantined != {} generated",
            stall_base.experiments, ingest.experiments_quarantined, base.experiments
        ));
    }
    if !stall_base.coverage.is_degraded() {
        return Err("stall stage: quarantines did not degrade the coverage manifest".to_string());
    }
    println!(
        "chaos_check: stall stage: {stalled} of {} experiments quarantined at the deadline, \
         worker counts identical ({:.1}s)",
        base.experiments,
        t.elapsed().as_secs_f64()
    );
    let mut stall_stage = Json::obj();
    stall_stage.set("stall_rate", 0.04f64.to_json());
    stall_stage.set("ingest", ingest.to_json());
    results.set("stall_stage", stall_stage);

    // Gate 7: a retry budget rescues transient failures with seed-stable
    // draws; the report stays identical across worker counts and runs.
    let t = Instant::now();
    let retry_sup = SupervisorConfig {
        max_retries: 2,
        ..SupervisorConfig::default()
    };
    let retry_base = identical_across_workers("retry stage", |workers| {
        supervised(config, panic_plan, workers, &retry_sup)
    })?;
    let retry_json = check_valid_json("retry stage", &retry_base)?;
    let ingest = &retry_base.ingest;
    if ingest.retry_attempts == 0 || ingest.experiments_retried == 0 {
        return Err(format!(
            "retry stage: retry budget 2 never fired against panic rate \
             {PANIC_RATE}: {ingest:?}"
        ));
    }
    if !ingest.reconciles() {
        return Err(format!("retry stage: ledger does not reconcile: {ingest:?}"));
    }
    let permanent = ingest.experiments_quarantined + ingest.experiments_abandoned;
    if permanent >= no_retry_quarantined {
        return Err(format!(
            "retry stage: {permanent} permanent losses with retries, \
             {no_retry_quarantined} without — retries rescued nothing"
        ));
    }
    let rerun = supervised(config, panic_plan, 1, &retry_sup);
    if rerun.to_json().dump() != retry_json {
        return Err("retry stage: repeated run diverged — retry draws are not seed-stable"
            .to_string());
    }
    println!(
        "chaos_check: retry stage: {} retried ({} attempts), {permanent} permanent \
         (was {no_retry_quarantined} without retries), worker counts and reruns \
         identical ({:.1}s)",
        ingest.experiments_retried,
        ingest.retry_attempts,
        t.elapsed().as_secs_f64()
    );
    let mut retry_stage = Json::obj();
    retry_stage.set("max_retries", 2u64.to_json());
    retry_stage.set("ingest", ingest.to_json());
    results.set("retry_stage", retry_stage);

    // Gate 8: kill-and-resume. Journal a supervised run, amputate the
    // journal mid-record as a SIGKILL would, resume a copy of the stump
    // at every worker count, and demand identity with the
    // straight-through report (the retry stage's 1-worker run).
    let t = Instant::now();
    let journal_at = |tag: &str| {
        PathBuf::from(format!(
            "target/chaos_resume_{}_{tag}.jnl",
            std::process::id()
        ))
    };
    let full = journal_at("full");
    let _ = std::fs::remove_file(&full);
    let mut journaled = Pipeline::with_obs(false);
    journaled.set_fault_plan(panic_plan);
    let journal_sup = SupervisorConfig {
        journal: Some(full.clone()),
        ..retry_sup.clone()
    };
    journaled
        .run_campaign_supervised(config, 2, &journal_sup)
        .map_err(|e| format!("resume stage: journaled run: {e}"))?;
    let bytes = std::fs::read(&full).map_err(|e| format!("resume stage: {e}"))?;
    if bytes.len() < 64 {
        return Err(format!(
            "resume stage: implausibly small journal ({} bytes)",
            bytes.len()
        ));
    }
    let stump = &bytes[..bytes.len() * 6 / 10];
    let mut failure = None;
    let mut replayed = 0;
    let grid = identical_across_workers("resume stage", |workers| {
        let path = journal_at(&workers.to_string());
        let resumed = std::fs::write(&path, stump)
            .map_err(|e| format!("resume stage: {e}"))
            .and_then(|()| resume(config, panic_plan, workers, &retry_sup, &path))
            .and_then(|(report, summary)| {
                if summary.units_replayed == 0 || summary.units_run == 0 {
                    return Err(format!(
                        "resume stage: truncation did not split the work \
                         (replayed {}, ran {})",
                        summary.units_replayed, summary.units_run
                    ));
                }
                replayed = summary.units_replayed;
                Ok(report.to_json())
            });
        resumed.unwrap_or_else(|e| {
            failure.get_or_insert(e);
            Json::Null
        })
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if grid?.dump() != retry_json {
        return Err("resume stage: resumed report diverged from straight-through".to_string());
    }
    // Resuming a journal that is already complete replays everything.
    let (complete, summary) = resume(config, panic_plan, 2, &retry_sup, &journal_at("1"))?;
    if summary.units_run != 0 || summary.units_replayed != summary.units_total {
        return Err(format!(
            "resume stage: complete journal re-ran work (replayed {}, ran {})",
            summary.units_replayed, summary.units_run
        ));
    }
    if complete.to_json().dump() != retry_json {
        return Err("resume stage: replay-only report diverged from straight-through"
            .to_string());
    }
    for tag in ["full", "1", "2", "8"] {
        let _ = std::fs::remove_file(journal_at(tag));
    }
    println!(
        "chaos_check: resume stage: {replayed} units replayed from the amputated journal, \
         1/2/8-worker resumes and replay-only all identical ({:.1}s)",
        t.elapsed().as_secs_f64()
    );
    let mut resume_stage = Json::obj();
    resume_stage.set("units_replayed", (replayed as u64).to_json());
    resume_stage.set("units_total", (summary.units_total as u64).to_json());
    results.set("resume_stage", resume_stage);

    if let Some(dir) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut f =
        std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    writeln!(f, "{}", results.pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    println!("chaos_check: results written to {out_path}");
    Ok(())
}

fn main() -> ExitCode {
    let out = std::env::var("IOT_CHAOS_OUT")
        .unwrap_or_else(|_| "target/chaos_check.json".to_string());
    match check(&out) {
        Ok(()) => {
            println!("chaos_check: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chaos_check: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
