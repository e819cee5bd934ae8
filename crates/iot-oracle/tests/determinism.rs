//! End-to-end determinism: the same campaign configuration must produce
//! the same report at 1, 2 and 8 workers — through
//! `differential::check_worker_grid`, clean, under capture faults,
//! injected panics, deadline-breaching stalls, and retries. The
//! observability layer must keep both halves of that contract:
//! instrumentation must not perturb the pipeline report, and the
//! deterministic subset of the obs report (counters + histograms) must
//! itself be a pure function of the corpus, independent of worker count.

use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::SupervisorConfig;
use iot_chaos::FaultPlan;
use iot_core::json::ToJson;
use iot_obs::{Registry, RunReport};
use iot_oracle::differential::check_worker_grid;
use iot_oracle::Violation;
use iot_testbed::schedule::CampaignConfig;
use std::time::Duration;

fn test_config() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: true,
    }
}

fn tiny_config() -> CampaignConfig {
    CampaignConfig {
        include_vpn: false,
        ..test_config()
    }
}

fn run_with(
    config: CampaignConfig,
    obs: bool,
    plan: Option<FaultPlan>,
    workers: usize,
    sup: &SupervisorConfig,
) -> (PipelineReport, Registry) {
    let mut p = Pipeline::with_obs(obs);
    if let Some(plan) = plan {
        p.set_fault_plan(plan);
    }
    p.run_campaign_supervised(config, workers, sup)
        .expect("a run without a journal cannot fail to journal");
    p.finish_with_obs()
}

fn run(obs: bool, workers: usize) -> (PipelineReport, Registry) {
    run_with(
        test_config(),
        obs,
        None,
        workers,
        &SupervisorConfig::default(),
    )
}

fn faulted(plan: FaultPlan, workers: usize, sup: &SupervisorConfig) -> PipelineReport {
    run_with(tiny_config(), false, Some(plan), workers, sup).0
}

fn report_json(workers: usize) -> String {
    run(false, workers).0.to_json().dump()
}

fn assert_no_violations(v: &[Violation]) {
    let rendered: Vec<String> = v.iter().map(Violation::render).collect();
    assert!(v.is_empty(), "{}", rendered.join("\n"));
}

#[test]
fn reports_are_identical_across_worker_counts() {
    let (report, v) = check_worker_grid("determinism", |workers| run(false, workers).0);
    assert!(report.to_json().dump().contains("pii_findings"));
    assert_no_violations(&v);
}

#[test]
fn repeated_runs_are_byte_identical() {
    assert_eq!(report_json(1), report_json(1));
}

#[test]
fn faulted_reports_are_identical_across_worker_counts() {
    // Fault injection is keyed by experiment identity, not ingestion
    // order: the same plan must degrade the same campaign identically at
    // every worker count, panics included.
    let plan = FaultPlan {
        panic_rate: 0.05,
        ..FaultPlan::uniform(0xD15EA5E, 0.02)
    };
    let run = |workers| {
        run_with(
            test_config(),
            false,
            Some(plan),
            workers,
            &SupervisorConfig::default(),
        )
        .0
    };
    let (report, v) = check_worker_grid("determinism_faulted", run);
    let json = report.to_json().dump();
    assert!(json.contains("\"salvage_resyncs\""));
    assert_no_violations(&v);
    assert_eq!(
        json,
        run(1).to_json().dump(),
        "faulted runs must repeat exactly"
    );
}

#[test]
fn uniform_faults_degrade_identically_across_worker_counts() {
    let plan = FaultPlan::uniform(0xC0FFEE, 0.02);
    let (report, v) = check_worker_grid("determinism_uniform_faults", |workers| {
        faulted(plan, workers, &SupervisorConfig::default())
    });
    assert!(
        !report.ingest.is_clean(),
        "a 2% fault plan must actually degrade something"
    );
    assert!(report.ingest.reconciles(), "{:?}", report.ingest);
    assert_no_violations(&v);
}

#[test]
fn stalls_past_deadline_are_quarantined_identically() {
    let plan = FaultPlan {
        stall_rate: 0.05,
        stall_max_micros: 20_000,
        ..FaultPlan::clean(0x57A11)
    };
    let sup = SupervisorConfig {
        deadline: Some(Duration::from_millis(5)),
        ..SupervisorConfig::default()
    };
    let (base, v) = check_worker_grid("determinism_stalls", |workers| faulted(plan, workers, &sup));
    let stalled = base.ingest.stage_errors.get("stall_deadline").copied();
    assert!(
        stalled.unwrap_or(0) > 0,
        "a 5% stall plan against a 5ms deadline must quarantine something: {:?}",
        base.ingest
    );
    assert_eq!(
        stalled.unwrap_or(0),
        base.ingest.experiments_quarantined,
        "without retries every breach is a quarantine"
    );
    assert!(base.ingest.reconciles(), "{:?}", base.ingest);
    assert!(base.coverage.is_degraded());
    assert_no_violations(&v);
}

#[test]
fn retries_recover_transient_failures_identically() {
    let plan = FaultPlan {
        panic_rate: 0.08,
        ..FaultPlan::uniform(0xBAD5EED, 0.01)
    };
    // Baseline without retries: every injected panic is a quarantine.
    let no_retry = faulted(plan, 2, &SupervisorConfig::default());
    assert!(no_retry.ingest.experiments_quarantined > 0);
    let sup = SupervisorConfig {
        max_retries: 2,
        ..SupervisorConfig::default()
    };
    let (retried, v) = check_worker_grid("determinism_retries", |workers| {
        faulted(plan, workers, &sup)
    });
    let ingest = &retried.ingest;
    assert!(ingest.retry_attempts > 0, "{ingest:?}");
    assert!(
        ingest.experiments_retried > 0,
        "retries must rescue something"
    );
    assert!(ingest.reconciles(), "{ingest:?}");
    assert!(
        ingest.experiments_quarantined + ingest.experiments_abandoned
            < no_retry.ingest.experiments_quarantined,
        "retries must strictly reduce permanent losses: {ingest:?}"
    );
    assert_eq!(
        retried.coverage.totals().retried,
        ingest.experiments_retried
    );
    assert_no_violations(&v);
    // Seed-stability: same plan + knobs → same bytes across runs.
    assert_eq!(
        faulted(plan, 2, &sup).to_json().dump(),
        retried.to_json().dump(),
        "re-run must be identical"
    );
}

#[test]
fn instrumentation_does_not_change_the_pipeline_report() {
    let (plain, _) = run(false, 1);
    let (instrumented, reg) = run(true, 1);
    assert_eq!(
        plain.to_json().dump(),
        instrumented.to_json().dump(),
        "obs on/off must not affect the report"
    );
    assert!(
        reg.counter("experiments") > 0,
        "obs run must actually record"
    );
}

/// Serializes the tests that toggle the process-global allocator
/// counting flag, so one cannot flip it mid-measurement of another.
fn alloc_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn alloc_counting_does_not_change_the_pipeline_report() {
    let _guard = alloc_test_lock();
    let was = iot_obs::alloc::enabled();
    iot_obs::alloc::set_enabled(false);
    let plain = run(true, 1).0.to_json().dump();
    iot_obs::alloc::set_enabled(true);
    let mut counted_reg = None;
    let (counted, v) = check_worker_grid("determinism_alloc", |workers| {
        let (report, reg) = run(true, workers);
        counted_reg.get_or_insert(reg);
        report
    });
    iot_obs::alloc::set_enabled(was);
    assert_eq!(
        plain,
        counted.to_json().dump(),
        "allocator counting must not affect the pipeline report"
    );
    assert_no_violations(&v);
    // The counting run must actually have attributed heap traffic to the
    // ingest stages — proof the instrumentation was live, not a no-op.
    let report = RunReport::from_registry("det", &counted_reg.expect("1-worker run"));
    let j = report.to_json();
    let spans = j.get("spans").expect("spans section");
    let ingest = spans.get("ingest").expect("ingest span");
    assert!(
        ingest.get("alloc_bytes").is_some(),
        "ingest span missing alloc data"
    );
}

#[test]
fn serial_allocation_totals_are_deterministic() {
    let _guard = alloc_test_lock();
    let was = iot_obs::alloc::enabled();
    iot_obs::alloc::set_enabled(true);
    // Warmup run: pays one-time global costs (interned span paths, lazy
    // statics) so the measured runs see identical starting state.
    let _ = report_json(1);
    let measure = || {
        let before = iot_obs::alloc::thread_snapshot();
        let report = report_json(1);
        (iot_obs::alloc::thread_snapshot().since(&before), report)
    };
    let (a, report_a) = measure();
    let (b, report_b) = measure();
    iot_obs::alloc::set_enabled(was);
    assert_eq!(report_a, report_b, "1-worker reports must repeat exactly");
    assert!(a.allocs > 0, "a full campaign surely allocates");
    assert_eq!(
        (a.bytes_allocated, a.allocs),
        (b.bytes_allocated, b.allocs),
        "1-worker allocation traffic must be a pure function of the corpus"
    );
}

#[test]
fn obs_deterministic_report_is_identical_across_workers() {
    let (_, v) = check_worker_grid("determinism_obs", |workers| {
        let (_, reg) = run(true, workers);
        // Counters reflect the corpus, not the topology.
        for name in ["experiments", "packets", "flows", "bytes", "pii_findings"] {
            assert!(reg.counter(name) > 0, "counter {name} must be non-zero");
        }
        assert_eq!(reg.gauge("workers"), Some(workers as f64));
        RunReport::from_registry("det", &reg).deterministic_json()
    });
    assert_no_violations(&v);
}
