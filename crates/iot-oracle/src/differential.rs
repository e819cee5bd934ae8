//! Differential runs: the same campaign at 1, 2 and 8 workers, with an
//! armed all-zero chaos plan, under a *non-clean* fault plan, and as an
//! interrupted-then-resumed supervised run against its straight-through
//! twin — compared field by field.
//!
//! [`check_worker_grid`] is the one place that proves worker-count
//! identity: every gate that needs it (`bench_pipeline`, `chaos_check`,
//! the oracle, and the identity tests) hands it a run closure. Its comparison is *structured*: when worker counts diverge,
//! the violations name the exact table, row, and field, which turns
//! "reports differ" into an actionable defect report.
//!
//! The faulted sweep keys faults rep-invariantly
//! (`rep_invariant_fault_keys`), so the same plan also powers the
//! faulted rep-relabel metamorphic relation — one fault universe,
//! checked across worker counts here and across input relabelings there.

use crate::diff::diff_json;
use crate::Violation;
use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::supervise::SupervisorConfig;
use iot_chaos::FaultPlan;
use iot_core::json::ToJson;
use iot_testbed::schedule::CampaignConfig;

/// Worker counts of the identity grid; the first is the baseline.
pub const WORKER_GRID: [usize; 3] = [1, 2, 8];

/// Seed for the clean (all-zero-rate) fault plan; any value must be an
/// identity, this one just makes runs reproducible.
const CLEAN_PLAN_SEED: u64 = 0x0B5E55ED;

/// Seed for the non-clean plans below.
const FAULTED_PLAN_SEED: u64 = 0xFA17ED;

/// The worker-count identity check: runs `run` at every width of
/// [`WORKER_GRID`] and compares the 2- and 8-worker results against the
/// 1-worker one, field by field and then byte for byte. Returns the
/// 1-worker result and one violation per divergence, tagged `invariant`,
/// with the width leading the detail.
pub fn check_worker_grid<T: ToJson>(
    invariant: &'static str,
    mut run: impl FnMut(usize) -> T,
) -> (T, Vec<Violation>) {
    let baseline = run(WORKER_GRID[0]);
    let base = baseline.to_json();
    let mut v = Vec::new();
    for &workers in &WORKER_GRID[1..] {
        let candidate = run(workers).to_json();
        let diffs = diff_json(&base, &candidate);
        if diffs.is_empty() && base.dump() != candidate.dump() {
            // Same fields, different bytes: only member order moved.
            v.push(Violation::new(
                invariant,
                "<root>",
                "",
                "",
                format!("{workers} workers: same fields, different bytes"),
            ));
        }
        v.extend(diffs.into_iter().map(|d| {
            let mut violation = d.into_violation(invariant);
            violation.detail = format!("{workers} workers: {}", violation.detail);
            violation
        }));
    }
    (baseline, v)
}

/// The non-clean capture-fault plan shared by the faulted differential
/// sweep and the faulted rep-relabel metamorphic relation: every
/// capture fault class at a uniform 1% rate, with fault keys made
/// rep-invariant so relabeling repetitions preserves the fault draw.
pub fn faulted_plan() -> FaultPlan {
    let mut plan = FaultPlan::uniform(FAULTED_PLAN_SEED, 0.01);
    plan.rep_invariant_fault_keys = true;
    plan
}

/// [`faulted_plan`] plus injected ingest panics, for the resume check:
/// the quarantine boundary fires on top of the capture faults.
pub fn supervised_plan() -> FaultPlan {
    FaultPlan {
        panic_rate: 0.05,
        ..faulted_plan()
    }
}

/// Supervision knobs for [`check_resume`]: the journal, and whether to
/// resume it.
fn resume_supervisor(journal: std::path::PathBuf, resume: bool) -> SupervisorConfig {
    SupervisorConfig {
        journal: Some(journal),
        resume,
        ..SupervisorConfig::default()
    }
}

/// One obs-off campaign at `workers` workers, optionally faulted.
pub fn run(config: CampaignConfig, plan: Option<FaultPlan>, workers: usize) -> PipelineReport {
    let mut p = Pipeline::with_obs(false);
    if let Some(plan) = plan {
        p.set_fault_plan(plan);
    }
    p.run_campaign_supervised(config, workers, &SupervisorConfig::default())
        .expect("a run without a journal cannot fail to journal");
    p.finish()
}

fn compare(
    invariant: &'static str,
    baseline: &PipelineReport,
    candidate: &PipelineReport,
) -> Vec<Violation> {
    diff_json(&baseline.to_json(), &candidate.to_json())
        .into_iter()
        .map(|d| d.into_violation(invariant))
        .collect()
}

/// Runs the worker grid and the armed clean plan against an existing
/// 1-worker report of `config`, which stands in for the grid's own
/// 1-worker run.
pub fn check_drivers_against(
    baseline: &PipelineReport,
    config: CampaignConfig,
) -> Vec<Violation> {
    let (_, mut v) = check_worker_grid("differential_workers", |workers| {
        if workers == 1 {
            baseline.to_json()
        } else {
            run(config, None, workers).to_json()
        }
    });
    let clean = run(config, Some(FaultPlan::clean(CLEAN_PLAN_SEED)), 1);
    v.extend(compare("differential_chaos_clean", baseline, &clean));
    v
}

/// Runs `config` once as the baseline, then every differential
/// configuration. The baseline report is also returned so callers can
/// chain invariant checks without re-running the campaign.
pub fn check_drivers(config: CampaignConfig) -> (PipelineReport, Vec<Violation>) {
    let baseline = run(config, None, 1);
    let v = check_drivers_against(&baseline, config);
    (baseline, v)
}

/// The faulted sweep: the same *non-clean* plan at every worker count
/// must agree field by field — fault draws are keyed by experiment
/// identity, never by worker or schedule. The check also guards its own
/// vacuity: a plan that never bites is a finding.
pub fn check_drivers_faulted(config: CampaignConfig) -> Vec<Violation> {
    let plan = faulted_plan();
    let (baseline, mut v) = check_worker_grid("differential_faulted_workers", |workers| {
        run(config, Some(plan), workers)
    });
    if baseline.ingest.is_clean() {
        v.push(Violation::new(
            "differential_faulted",
            "ingest",
            "totals",
            "is_clean",
            "faulted plan produced a clean ledger — the sweep checked nothing".to_string(),
        ));
    }
    v
}

/// The resume check: a supervised campaign is journaled, the journal is
/// amputated mid-record (simulating a SIGKILL), and a second run
/// resumes from the stump — the resumed report must match a
/// straight-through run field by field. Injected panics make the runs
/// quarantine, so the equality also covers the degraded-coverage
/// bookkeeping.
pub fn check_resume(config: CampaignConfig) -> Vec<Violation> {
    let plan = supervised_plan();
    let mut v = Vec::new();

    let straight = run(config, Some(plan), 2);
    if straight.ingest.experiments_quarantined == 0 {
        v.push(Violation::new(
            "differential_resume",
            "ingest",
            "totals",
            "experiments_quarantined",
            "panic plan quarantined nothing — the resume check ran undegraded".to_string(),
        ));
    }

    let path = std::env::temp_dir().join(format!(
        "iot_oracle_resume_{}.jnl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut first = Pipeline::with_obs(false);
    first.set_fault_plan(plan);
    if let Err(e) =
        first.run_campaign_supervised(config, 2, &resume_supervisor(path.clone(), false))
    {
        v.push(Violation::new(
            "differential_resume",
            "supervise",
            "journaled",
            "run",
            format!("journaled supervised run failed: {e}"),
        ));
        return v;
    }
    // Amputate the tail at an arbitrary byte offset — a kill never
    // lands on a record boundary.
    match std::fs::read(&path) {
        Ok(bytes) if bytes.len() > 64 => {
            let _ = std::fs::write(&path, &bytes[..bytes.len() * 6 / 10]);
        }
        other => {
            v.push(Violation::new(
                "differential_resume",
                "supervise",
                "journal",
                "bytes",
                format!("journal unreadable or implausibly small: {other:?}"),
            ));
            let _ = std::fs::remove_file(&path);
            return v;
        }
    }
    let mut resumed = Pipeline::with_obs(false);
    resumed.set_fault_plan(plan);
    match resumed.run_campaign_supervised(config, 2, &resume_supervisor(path.clone(), true)) {
        Ok(summary) => {
            if summary.units_replayed == 0 {
                v.push(Violation::new(
                    "differential_resume",
                    "supervise",
                    "journal",
                    "units_replayed",
                    "truncated journal replayed nothing — the resume path went unchecked"
                        .to_string(),
                ));
            }
            v.extend(compare("differential_resume", &straight, &resumed.finish()));
        }
        Err(e) => {
            v.push(Violation::new(
                "differential_resume",
                "supervise",
                "resumed",
                "run",
                format!("resume from truncated journal failed: {e}"),
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_core::json::Json;

    #[test]
    fn worker_grid_names_the_width_and_field_that_diverged() {
        let mut widths = Vec::new();
        let (base, v) = check_worker_grid("grid_probe", |workers| {
            widths.push(workers);
            let mut j = Json::obj();
            j.set("n", (if workers == 8 { 9u64 } else { 7 }).to_json());
            j
        });
        assert_eq!(widths, WORKER_GRID);
        assert_eq!(base.dump(), r#"{"n":7}"#);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "grid_probe");
        assert_eq!(v[0].table, "n");
        assert_eq!(v[0].detail, "8 workers: 7 != 9");
    }

    #[test]
    fn worker_grid_catches_byte_only_divergence() {
        let (_, v) = check_worker_grid("grid_probe", |workers| {
            let mut j = Json::obj();
            let (a, b) = if workers == 2 { ("y", "x") } else { ("x", "y") };
            j.set(a, 1u64.to_json());
            j.set(b, 1u64.to_json());
            j
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].detail, "2 workers: same fields, different bytes");
    }
}
