//! Chaos × observability: the flight recorder must account for degraded
//! ingest exactly.
//!
//! * Every experiment the pipeline quarantines under an armed fault plan
//!   must surface as a `quarantine` mark event, and the mark count must
//!   equal the ingest ledger's `experiments_quarantined` — the event
//!   stream and the aggregate ledger are two views of the same facts.
//! * The deterministic Chrome-trace subset, quarantine marks included,
//!   must stay a pure function of the corpus even when faults (including
//!   injected panics) are being caught and quarantined: identical at 1,
//!   2 and 8 workers.

use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::SupervisorConfig;
use iot_chaos::FaultPlan;
use iot_core::json::{Json, ToJson};
use iot_obs::{chrome_trace, EventKind, Registry, TraceMode};
use iot_oracle::differential::check_worker_grid;
use iot_oracle::Violation;
use iot_testbed::schedule::CampaignConfig;

fn config() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: false,
    }
}

/// Aggressive enough that quarantines definitely occur at this scale,
/// panics included; keyed by experiment identity so every worker count
/// degrades the same experiments.
fn faulted_plan() -> FaultPlan {
    FaultPlan {
        panic_rate: 0.02,
        ..FaultPlan::uniform(0xC0FFEE, 0.02)
    }
}

fn run_faulted(workers: usize) -> (PipelineReport, Registry) {
    let mut p = Pipeline::with_obs(true);
    p.set_fault_plan(faulted_plan());
    p.run_campaign_supervised(config(), workers, &SupervisorConfig::default())
        .expect("a run without a journal cannot fail to journal");
    p.finish_with_obs()
}

fn quarantine_marks(reg: &Registry) -> u64 {
    let t = reg.timeline();
    assert_eq!(
        t.overwritten, 0,
        "ring must not overflow at this scale or the count is partial"
    );
    t.events
        .iter()
        .filter(|e| e.kind == EventKind::Mark && t.label(e) == "quarantine")
        .count() as u64
}

#[test]
fn quarantine_marks_match_the_ingest_ledger() {
    let (report, reg) = run_faulted(1);
    assert!(report.ingest.reconciles(), "ledger must reconcile");
    assert!(
        report.ingest.experiments_quarantined > 0,
        "plan must actually quarantine experiments at this scale"
    );
    assert_eq!(
        quarantine_marks(&reg),
        report.ingest.experiments_quarantined,
        "every quarantined experiment must emit exactly one mark event"
    );
}

#[test]
fn marks_and_deterministic_trace_are_identical_across_worker_counts() {
    let (baseline, v) = check_worker_grid("obs_events", |workers| {
        let (report, reg) = run_faulted(workers);
        let mut j = Json::obj();
        j.set(
            "experiments_quarantined",
            report.ingest.experiments_quarantined.to_json(),
        );
        j.set("quarantine_marks", quarantine_marks(&reg).to_json());
        j.set(
            "trace",
            chrome_trace(&reg.timeline(), TraceMode::Deterministic),
        );
        j
    });
    assert!(
        baseline
            .get("trace")
            .expect("trace")
            .dump()
            .contains("quarantine"),
        "quarantine marks are stream-tagged and must export deterministically"
    );
    let rendered: Vec<String> = v.iter().map(Violation::render).collect();
    assert!(v.is_empty(), "{}", rendered.join("\n"));
}
