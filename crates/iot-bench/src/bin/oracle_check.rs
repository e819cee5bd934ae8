//! Correctness-oracle gate, run by `verify.sh`.
//!
//! Identical reports across worker counts prove the pipeline is
//! *consistent*; they cannot prove the numbers are *right*. This binary
//! runs the `iot-oracle` harness, which checks both — the first in its
//! differential pillar, the second through properties that hold
//! regardless of what the correct values are:
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
//!    row, and field; and the fault gates: a seeded sweep of uniform
//!    fault rates (ledger reconciles, faults fire, nothing quarantined,
//!    bounded headline drift at low rates), a plan of injected ingest
//!    panics that must end in quarantine, and a torn journal resumed at
//!    every width — each run identical at 1, 2 and 8 workers. Their
//!    ledgers and drift land in the output's `faults` block.
//! 4. **Results artifacts** — the committed `results/*.json` tables.
//!
//! Environment:
//!
//! * `IOT_SCALE` — `quick` / `medium` / `full` campaign (see `iot-bench`).
//! * `IOT_ORACLE_OUT` — results JSON path (default `target/oracle_check.json`).
//!
//! Exits non-zero on any violation.

use iot_analysis::pipeline::INJECTED_PANIC_MSG;
use iot_bench::{campaign_config, scale};
use iot_core::json::{Json, ToJson};
use iot_oracle::{results, run_oracle, Violation};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

fn check(out_path: &str) -> Result<(), String> {
    // Injected panics are drills: silence exactly their payloads so the
    // log shows gate results, not hundreds of expected backtraces. Any
    // other panic message still prints.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains(INJECTED_PANIC_MSG) {
            prev_hook(info);
        }
    }));

    let scale = scale();
    let config = campaign_config(scale);
    println!("oracle_check: scale={}", scale.name());

    let t = Instant::now();
    let outcome = run_oracle(config);
    println!(
        "oracle_check: {} ({:.1}s)",
        outcome.summary(),
        t.elapsed().as_secs_f64()
    );
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
