//! Differential runs: the same campaign at 1, 2 and 8 workers, under an
//! armed all-zero chaos plan, under a sweep of fault rates, with
//! injected panics, and as a torn-then-resumed supervised run — each
//! compared field by field with the run it must equal.
//!
//! [`check_worker_grid`] is the one place that proves worker-count
//! identity: every run here, and every identity test, hands it a run
//! closure. Its comparison is *structured*: when worker counts diverge,
//! the violations name the exact table, row, and field, which turns
//! "reports differ" into an actionable defect report.
//!
//! [`check_faults`] is the one home of the fault gates. Their baseline,
//! the clean run, must have a pristine ledger and report JSON that
//! parses. Every plan is seeded with `0xC4A05`, and every faulted run
//! must be identical at 1, 2 and 8 workers:
//!
//! * **The uniform sweep** at rates 0.001, 0.01 and 0.05. Per rate,
//!   [`sweep_violations`] requires a reconciled ledger, faults that
//!   fired, no quarantine, the clean run's experiment count and report
//!   JSON that parses; at rates up to 1.1% the headline numbers may
//!   drift from the clean run only within loose ceilings.
//! * **The panic plan**: 5% injected ingest panics on top of the 1%
//!   plan. It must quarantine experiments, and analyzed plus quarantined
//!   experiments must equal the clean run's count.
//! * **The torn-journal resume**: the panic plan's journal, torn at 60%
//!   as a kill leaves it, resumes at every width to the straight-through
//!   report, and a replay-only pass over the completed journal runs
//!   nothing and matches too.

use crate::diff::diff_json;
use crate::Violation;
use iot_analysis::ingest::IngestStats;
use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::supervise::{JournalError, SuperviseSummary, SupervisorConfig};
use iot_chaos::FaultPlan;
use iot_core::json::{Json, ToJson};
use iot_testbed::schedule::CampaignConfig;
use std::collections::HashMap;
use std::path::Path;

/// Worker counts of the identity grid; the first is the baseline.
pub const WORKER_GRID: [usize; 3] = [1, 2, 8];

/// Seed for the clean (all-zero-rate) fault plan; any value must be an
/// identity, this one just makes runs reproducible.
const CLEAN_PLAN_SEED: u64 = 0x0B5E55ED;

/// Seed of every plan [`check_faults`] runs.
const FAULT_SEED: u64 = 0xC4A05;

/// Uniform per-class fault rates of the sweep.
const SWEEP_RATES: [f64; 3] = [0.001, 0.01, 0.05];

/// Sweep rates at or below this are low and held to the drift ceilings.
const LOW_RATE: f64 = 0.011;

/// Low-rate ceiling on the relative drift of the support- and
/// third-party destination totals. Like the two below, a deliberately
/// loose multiple of the drift EXPERIMENTS.md records, so routine noise
/// cannot flake the gate while a real regression still trips it.
const MAX_DEST_REL_DRIFT: f64 = 0.25;
/// Low-rate ceiling on the relative drift of the PII finding count.
const MAX_PII_REL_DRIFT: f64 = 0.35;
/// Low-rate ceiling on any lab's encryption-mix move, in percentage
/// points.
const MAX_MIX_DELTA_PTS: f64 = 8.0;

/// Injected ingest-panic probability of the panic plan.
const PANIC_RATE: f64 = 0.05;

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

/// One obs-off campaign of `plan` at `workers` workers, journaled at
/// `path` — resuming that journal when `resume` is set.
fn supervised(
    config: CampaignConfig,
    plan: FaultPlan,
    workers: usize,
    path: &Path,
    resume: bool,
) -> Result<(PipelineReport, SuperviseSummary), JournalError> {
    let mut p = Pipeline::with_obs(false);
    p.set_fault_plan(plan);
    let sup = SupervisorConfig {
        journal: Some(path.to_path_buf()),
        resume,
        ..SupervisorConfig::default()
    };
    let summary = p.run_campaign_supervised(config, workers, &sup)?;
    Ok((p.finish(), summary))
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

/// One rate of the uniform sweep: the 1-worker run's ledger, and how far
/// its headline numbers drifted from the clean run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRate {
    /// Uniform per-class fault rate.
    pub rate: f64,
    /// The faulted run's ingest ledger.
    pub ingest: IngestStats,
    /// Relative drift of the support-party destination total.
    pub support_drift: f64,
    /// Relative drift of the third-party destination total.
    pub third_drift: f64,
    /// Relative drift of the PII finding count.
    pub pii_drift: f64,
    /// Largest move of any lab's encryption-mix component, in
    /// percentage points.
    pub mix_delta_pts: f64,
}

impl ToJson for SweepRate {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("rate", self.rate.to_json());
        j.set("ingest", self.ingest.to_json());
        j.set("support_drift", self.support_drift.to_json());
        j.set("third_drift", self.third_drift.to_json());
        j.set("pii_drift", self.pii_drift.to_json());
        j.set("mix_delta_pts", self.mix_delta_pts.to_json());
        j
    }
}

/// What [`check_faults`] measured, for the oracle's JSON.
#[derive(Debug, Clone, Default)]
pub struct FaultRecord {
    /// One entry per sweep rate, in sweep order.
    pub sweep: Vec<SweepRate>,
    /// The panic plan's 1-worker ingest ledger.
    pub panic_ingest: IngestStats,
    /// Units each resume replayed from the torn journal.
    pub units_replayed: usize,
    /// Work units in the campaign grid.
    pub units_total: usize,
}

impl ToJson for FaultRecord {
    fn to_json(&self) -> Json {
        let mut panic_stage = Json::obj();
        panic_stage.set("panic_rate", PANIC_RATE.to_json());
        panic_stage.set("ingest", self.panic_ingest.to_json());
        let mut resume_stage = Json::obj();
        resume_stage.set("units_replayed", self.units_replayed.to_json());
        resume_stage.set("units_total", self.units_total.to_json());
        let mut j = Json::obj();
        j.set("seed", FAULT_SEED.to_json());
        j.set(
            "sweep",
            Json::Arr(self.sweep.iter().map(ToJson::to_json).collect()),
        );
        j.set("panic_stage", panic_stage);
        j.set("resume_stage", resume_stage);
        j
    }
}

/// Relative drift |faulted / clean − 1|; a zero clean value drifts
/// infinitely unless the faulted value is zero too.
fn rel_drift(faulted: usize, clean: usize) -> f64 {
    match (faulted, clean) {
        (0, 0) => 0.0,
        (_, 0) => f64::INFINITY,
        _ => (faulted as f64 / clean as f64 - 1.0).abs(),
    }
}

fn total(per_lab: &HashMap<String, usize>) -> usize {
    per_lab.values().sum()
}

/// The largest move of any lab's encryption-mix component between the
/// two reports, in percentage points.
fn mix_delta(clean: &PipelineReport, faulted: &PipelineReport) -> f64 {
    clean
        .encryption_mix
        .iter()
        .flat_map(|(lab, mix)| {
            let moved = faulted.encryption_mix.get(lab).copied().unwrap_or([0.0; 3]);
            mix.iter().zip(moved).map(|(a, b)| (a - b).abs())
        })
        .fold(0.0, f64::max)
}

/// Why `report`'s JSON does not parse back through the in-tree parser,
/// if it does not.
fn json_error(report: &PipelineReport) -> Option<String> {
    Json::parse(&report.to_json().dump())
        .err()
        .map(|e| format!("report JSON does not parse: {e}"))
}

/// The per-rate gates of the uniform sweep, a pure function of the
/// rate, the clean report and the rate's faulted report. Returns the
/// rate's record and one violation per broken gate, each gate its own
/// class.
pub fn sweep_violations(
    rate: f64,
    clean: &PipelineReport,
    faulted: &PipelineReport,
) -> (SweepRate, Vec<Violation>) {
    let ingest = &faulted.ingest;
    let entry = SweepRate {
        rate,
        ingest: ingest.clone(),
        support_drift: rel_drift(
            total(&faulted.support_destinations),
            total(&clean.support_destinations),
        ),
        third_drift: rel_drift(
            total(&faulted.third_destinations),
            total(&clean.third_destinations),
        ),
        pii_drift: rel_drift(faulted.pii_findings.len(), clean.pii_findings.len()),
        mix_delta_pts: mix_delta(clean, faulted),
    };
    let row = rate.to_string();
    let mut v = Vec::new();
    let mut fire = |invariant: &'static str, field: &str, detail: String| {
        v.push(Violation::new(
            invariant,
            "sweep",
            row.as_str(),
            field,
            detail,
        ));
    };
    if !ingest.reconciles() {
        fire(
            "sweep_ledger",
            "reconciles",
            format!("ledger does not reconcile: {ingest:?}"),
        );
    }
    if ingest.is_clean() {
        fire(
            "sweep_faults_fired",
            "is_clean",
            "the plan degraded nothing — this rate checked nothing".to_string(),
        );
    }
    if ingest.experiments_quarantined != 0 || ingest.shards_quarantined != 0 {
        fire(
            "sweep_quarantine",
            "experiments_quarantined",
            format!(
                "{} experiments and {} units quarantined with panics off",
                ingest.experiments_quarantined, ingest.shards_quarantined
            ),
        );
    }
    if faulted.experiments != clean.experiments {
        fire(
            "sweep_experiments",
            "experiments",
            format!(
                "{} != {} in the clean run",
                faulted.experiments, clean.experiments
            ),
        );
    }
    if let Some(e) = json_error(faulted) {
        fire("sweep_json", "json", e);
    }
    if rate <= LOW_RATE {
        if entry.support_drift > MAX_DEST_REL_DRIFT || entry.third_drift > MAX_DEST_REL_DRIFT {
            fire(
                "sweep_dest_drift",
                "destinations",
                format!(
                    "support drift {:.3}, third-party drift {:.3} (max {MAX_DEST_REL_DRIFT})",
                    entry.support_drift, entry.third_drift
                ),
            );
        }
        if entry.pii_drift > MAX_PII_REL_DRIFT {
            fire(
                "sweep_pii_drift",
                "pii_findings",
                format!("drift {:.3} (max {MAX_PII_REL_DRIFT})", entry.pii_drift),
            );
        }
        if entry.mix_delta_pts > MAX_MIX_DELTA_PTS {
            fire(
                "sweep_mix_drift",
                "encryption_mix",
                format!(
                    "moved {:.2} points (max {MAX_MIX_DELTA_PTS})",
                    entry.mix_delta_pts
                ),
            );
        }
    }
    (entry, v)
}

/// The panic plan's gates over its 1-worker report: it quarantined
/// experiments, its ledger reconciles, analyzed plus quarantined
/// experiments are the clean run's count, and its JSON parses.
fn panic_violations(clean: &PipelineReport, panicked: &PipelineReport) -> Vec<Violation> {
    let ingest = &panicked.ingest;
    let mut v = Vec::new();
    let mut fire = |field: &str, detail: String| {
        v.push(Violation::new(
            "differential_panic",
            "ingest",
            "totals",
            field,
            detail,
        ));
    };
    if ingest.experiments_quarantined == 0 {
        fire(
            "experiments_quarantined",
            format!("panic_rate {PANIC_RATE} quarantined nothing"),
        );
    }
    if !ingest.reconciles() {
        fire(
            "reconciles",
            format!("ledger does not reconcile: {ingest:?}"),
        );
    }
    if panicked.experiments + ingest.experiments_quarantined != clean.experiments {
        fire(
            "experiments",
            format!(
                "{} analyzed + {} quarantined != {} in the clean run",
                panicked.experiments, ingest.experiments_quarantined, clean.experiments
            ),
        );
    }
    if let Some(e) = json_error(panicked) {
        fire("json", e);
    }
    v
}

/// The fault gates of the module docs, against `clean`: the 1-worker
/// report of `config` without a fault plan. Returns what they measured
/// and one violation per broken gate.
pub fn check_faults(
    config: CampaignConfig,
    clean: &PipelineReport,
) -> (FaultRecord, Vec<Violation>) {
    let mut record = FaultRecord::default();
    // Drift is measured against the clean run, so it must be pristine.
    let mut v = Vec::new();
    if !clean.ingest.is_clean() {
        v.push(Violation::new(
            "differential_baseline",
            "ingest",
            "totals",
            "is_clean",
            format!("the clean run's ledger is dirty: {:?}", clean.ingest),
        ));
    }
    if let Some(e) = json_error(clean) {
        v.push(Violation::new(
            "differential_baseline",
            "<root>",
            "",
            "json",
            e,
        ));
    }
    for rate in SWEEP_RATES {
        let plan = FaultPlan::uniform(FAULT_SEED, rate);
        let (faulted, grid) = check_worker_grid("differential_sweep_workers", |workers| {
            run(config, Some(plan), workers)
        });
        v.extend(grid.into_iter().map(|mut g| {
            g.detail = format!("rate {rate}, {}", g.detail);
            g
        }));
        let (entry, gates) = sweep_violations(rate, clean, &faulted);
        record.sweep.push(entry);
        v.extend(gates);
    }

    let plan = FaultPlan {
        panic_rate: PANIC_RATE,
        ..FaultPlan::uniform(FAULT_SEED, 0.01)
    };
    let (straight, grid) = check_worker_grid("differential_panic_workers", |workers| {
        run(config, Some(plan), workers)
    });
    v.extend(grid);
    v.extend(panic_violations(clean, &straight));
    record.panic_ingest = straight.ingest.clone();
    v.extend(check_resume(config, plan, &straight, &mut record));
    (record, v)
}

/// The torn-journal resume of `plan`'s campaign against its
/// straight-through report. A 2-worker run's journal is torn at 60% —
/// a kill never lands on a record boundary — and a copy of the stump
/// resumes at every width of [`WORKER_GRID`], each of which must both
/// replay and run units. The completed 1-worker journal then resumes
/// once more and must replay every unit and run none. Records the
/// resume's split in `record`.
fn check_resume(
    config: CampaignConfig,
    plan: FaultPlan,
    straight: &PipelineReport,
    record: &mut FaultRecord,
) -> Vec<Violation> {
    let journal = |tag: &str| {
        std::env::temp_dir().join(format!(
            "iot_oracle_resume_{}_{tag}.jnl",
            std::process::id()
        ))
    };
    let fail = |row: String, field: &str, detail: String| {
        Violation::new("differential_resume", "supervise", row, field, detail)
    };
    let full = journal("full");
    let _ = std::fs::remove_file(&full);
    let stump = supervised(config, plan, 2, &full, false).and_then(|(_, summary)| {
        record.units_total = summary.units_total;
        let bytes = std::fs::read(&full)?;
        Ok(bytes[..bytes.len() * 6 / 10].to_vec())
    });
    let _ = std::fs::remove_file(&full);
    let stump = match stump {
        Ok(stump) => stump,
        Err(e) => {
            return vec![fail(
                "journaled".into(),
                "run",
                format!("journaled run failed: {e}"),
            )]
        }
    };

    let mut v = Vec::new();
    let mut failures = Vec::new();
    let (resumed, grid) = check_worker_grid("differential_resume_workers", |workers| {
        let path = journal(&workers.to_string());
        let resumed = std::fs::write(&path, &stump)
            .map_err(JournalError::from)
            .and_then(|()| supervised(config, plan, workers, &path, true));
        match resumed {
            Ok((report, summary)) => {
                if summary.units_replayed == 0 || summary.units_run == 0 {
                    failures.push(fail(
                        workers.to_string(),
                        "units_replayed",
                        format!(
                            "the tear did not split the work (replayed {}, ran {})",
                            summary.units_replayed, summary.units_run
                        ),
                    ));
                }
                record.units_replayed = summary.units_replayed;
                report.to_json()
            }
            Err(e) => {
                failures.push(fail(
                    workers.to_string(),
                    "run",
                    format!("resume from the torn journal failed: {e}"),
                ));
                Json::Null
            }
        }
    });
    v.extend(grid);
    v.extend(failures);
    v.extend(
        diff_json(&straight.to_json(), &resumed)
            .into_iter()
            .map(|d| d.into_violation("differential_resume")),
    );

    match supervised(config, plan, 2, &journal("1"), true) {
        Ok((report, summary)) => {
            if summary.units_run != 0 || summary.units_replayed != summary.units_total {
                v.push(fail(
                    "replay".into(),
                    "units_run",
                    format!(
                        "a complete journal re-ran work (replayed {}, ran {})",
                        summary.units_replayed, summary.units_run
                    ),
                ));
            }
            v.extend(compare("differential_resume", straight, &report));
        }
        Err(e) => v.push(fail(
            "replay".into(),
            "run",
            format!("resume from the complete journal failed: {e}"),
        )),
    }
    for workers in WORKER_GRID {
        let _ = std::fs::remove_file(journal(&workers.to_string()));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

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
