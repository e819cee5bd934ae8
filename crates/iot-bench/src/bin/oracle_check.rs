//! Correctness-oracle gate, run by `verify.sh`.
//!
//! Identical reports across worker counts (gated by `bench_pipeline` and
//! `chaos_check`) prove the pipeline is *consistent*; they cannot prove
//! the numbers are *right*. This binary runs the `iot-oracle` harness,
//! which checks properties that hold regardless of what the correct
//! values are:
//!
//! 1. **Invariants** — the ingest ledger reconciles, per-lab encryption
//!    percentages sum to 100, every PII finding names a cataloged device
//!    deployed at its site, findings arrive sorted, and every derived
//!    report field recounts exactly from the live accumulators. Table 11
//!    and §7.3 laws are exercised on a simulated user study.
//! 2. **Metamorphic relations** — permuting experiment order or
//!    relabeling repetition indices leaves the report byte-identical;
//!    removing one device removes exactly that device's rows; adding
//!    the VPN dimension leaves native-egress fields untouched.
//! 3. **Differential runs** — 2/8-worker and chaos-clean-plan runs
//!    against the 1-worker baseline, with divergences named by table,
//!    row, and field.
//!
//! Environment:
//!
//! * `IOT_SCALE` — `quick` / `medium` / `full` campaign (see `iot-bench`).
//! * `IOT_ORACLE_OUT` — results JSON path (default `target/oracle_check.json`).
//!
//! Exits non-zero on any violation.

use iot_bench::{campaign_config, scale};
use iot_core::json::{Json, ToJson};
use iot_oracle::{results, run_oracle, Violation};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

fn check(out_path: &str) -> Result<(), String> {
    let scale = scale();
    let config = campaign_config(scale);
    println!("oracle_check: scale={}", scale.name());
    // Resolve the obs config up front so IOT_OBS_ALLOC=1 turns heap
    // counting on before the campaign allocates anything.
    iot_obs::enabled();

    let t = Instant::now();
    let outcome = run_oracle(config);
    println!(
        "oracle_check: {} ({:.1}s)",
        outcome.summary(),
        t.elapsed().as_secs_f64()
    );
    // Campaign memory footprint at this scale, when the instrumented
    // allocator is counting (IOT_OBS_ALLOC=1) — the number the nightly
    // medium-scale run exists to surface.
    if iot_obs::alloc::enabled() {
        let high_water = iot_obs::alloc::process_high_water_bytes();
        let rss = iot_obs::process::peak_rss_bytes().unwrap_or(0);
        println!(
            "oracle_check: heap high-water {:.1} MB, kernel peak RSS {:.1} MB",
            high_water as f64 / 1e6,
            rss as f64 / 1e6
        );
    }

    // Fourth pillar: the committed `results/*.json` table artifacts —
    // well-formed `emit` shape, row counts pinned by the catalog/enums,
    // percentage columns summing within rounding tolerance, and the
    // shape claims EXPERIMENTS.md makes.
    let results_dir = iot_bench::results_dir();
    let artifact_violations = results::check_results_dir(&results_dir);
    println!(
        "oracle_check: results artifacts ({}/): {}",
        results_dir.display(),
        if artifact_violations.is_empty() {
            "clean".to_string()
        } else {
            format!("{} violations", artifact_violations.len())
        }
    );
    for v in &artifact_violations {
        eprintln!("  {}", v.render());
    }

    let mut results = outcome.to_json();
    results.set("scale", scale.name().to_json());
    results.set(
        "results_artifacts",
        Json::Arr(artifact_violations.iter().map(Violation::to_json).collect()),
    );
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut f = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    writeln!(f, "{}", results.pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    println!("oracle_check: results written to {out_path}");

    if !outcome.is_clean() || !artifact_violations.is_empty() {
        return Err(format!(
            "{} violations (invariants {}, metamorphic {}, differential {}, \
             results artifacts {})",
            outcome.total() + artifact_violations.len(),
            outcome.invariant.len(),
            outcome.metamorphic.len(),
            outcome.differential.len(),
            artifact_violations.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let out = std::env::var("IOT_ORACLE_OUT")
        .unwrap_or_else(|_| "target/oracle_check.json".to_string());
    match check(&out) {
        Ok(()) => {
            println!("oracle_check: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("oracle_check: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
