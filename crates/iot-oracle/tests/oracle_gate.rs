//! The oracle's own correctness gate.
//!
//! A checker that never fires is worse than no checker, so the heart of
//! this suite is two corrupted-fixture matrices: one finished report
//! (and one faulted report, for the fault sweep's per-rate gates) is
//! corrupted one field at a time, and every corruption must trip
//! *exactly* its expected set of invariant classes — no false
//! negatives, no duplicate firings, no collateral classes. The clean
//! fixtures, the metamorphic relations, the differential drivers and
//! the fault gates must all pass untouched.

use iot_analysis::pii::{PiiFinding, PiiFindingKind};
use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_chaos::FaultPlan;
use iot_oracle::{differential, invariants, metamorphic};
use iot_testbed::lab::LabSite;
use iot_testbed::schedule::CampaignConfig;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

fn tiny_config() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: false,
    }
}

/// One shared campaign run (behind a mutex — `Pipeline` carries an obs
/// registry and is not `Sync`): the fixture every corruption starts
/// from.
fn with_fixture<T>(f: impl FnOnce(&Pipeline, &PipelineReport) -> T) -> T {
    static FIXTURE: Mutex<Option<(Pipeline, PipelineReport)>> = Mutex::new(None);
    let mut guard = FIXTURE.lock().unwrap();
    let (pipeline, report) = guard.get_or_insert_with(|| {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(tiny_config());
        let report = p.build_report();
        (p, report)
    });
    f(pipeline, report)
}

/// Runs both report-level and consistency checks over a (possibly
/// corrupted) report and returns the sorted list of fired classes.
fn fired_classes(pipeline: &Pipeline, report: &PipelineReport) -> Vec<&'static str> {
    let mut classes: Vec<&'static str> = invariants::check_report(report)
        .iter()
        .chain(invariants::check_consistency(pipeline, report).iter())
        .map(|v| v.invariant)
        .collect();
    classes.sort_unstable();
    classes
}

/// Asserts that corrupting the fixture with `corrupt` fires exactly
/// `expected` (order-insensitive, each class exactly once).
fn assert_fires(corrupt: impl FnOnce(&mut PipelineReport), mut expected: Vec<&'static str>) {
    expected.sort_unstable();
    with_fixture(|pipeline, clean| {
        let mut bad = clean.clone();
        corrupt(&mut bad);
        assert_eq!(fired_classes(pipeline, &bad), expected);
    });
}

#[test]
fn clean_fixture_fires_nothing() {
    with_fixture(|pipeline, report| {
        assert_eq!(fired_classes(pipeline, report), Vec::<&str>::new());
        // The fixture must be rich enough for the corruption matrix.
        assert!(
            report.pii_findings.len() >= 2,
            "fixture too small: {} pii findings",
            report.pii_findings.len()
        );
    });
}

#[test]
fn ledger_corruption_fires_conservation_and_recount() {
    assert_fires(
        |r| r.ingest.packets_ingested += 1,
        vec!["ledger_conservation", "ledger_recount"],
    );
}

#[test]
fn experiment_count_corruption_fires_ledger_and_recount() {
    assert_fires(
        |r| r.experiments += 1,
        vec!["ledger_experiments", "experiments_recount"],
    );
}

#[test]
fn sum_preserving_mix_corruption_fires_recount_only() {
    // Move a percentage point between components: the sum (and so the
    // report-local law) still holds — only the recount can catch it.
    assert_fires(
        |r| {
            let mix = r.encryption_mix.get_mut("US").unwrap();
            let i = (0..3).max_by(|&a, &b| mix[a].total_cmp(&mix[b])).unwrap();
            mix[i] -= 1.0;
            mix[(i + 1) % 3] += 1.0;
        },
        vec!["mix_recount"],
    );
}

#[test]
fn inflated_mix_corruption_fires_sum_and_recount() {
    assert_fires(
        |r| r.encryption_mix.get_mut("US").unwrap()[0] += 5.0,
        vec!["mix_sum", "mix_recount"],
    );
}

#[test]
fn impossible_device_split_fires_law_and_recount() {
    assert_fires(
        |r| {
            let (_, total) = r.devices_with_non_first;
            r.devices_with_non_first = (total + 1, total);
        },
        vec!["device_split", "split_recount"],
    );
}

#[test]
fn support_destination_drift_fires_recount_once() {
    assert_fires(
        |r| *r.support_destinations.get_mut("US").unwrap() += 1,
        vec!["dest_recount"],
    );
}

#[test]
fn third_destination_drift_fires_recount_once() {
    assert_fires(
        |r| *r.third_destinations.get_mut("UK").unwrap() += 1,
        vec!["dest_recount"],
    );
}

#[test]
fn phantom_finding_fires_catalog_and_recount() {
    // Appended with the largest possible sort key for a no-VPN UK-less
    // tail, so the order law is deliberately NOT tripped.
    assert_fires(
        |r| {
            r.pii_findings.push(PiiFinding {
                device_name: "Zzzz Phantom".to_string(),
                site: LabSite::Uk,
                vpn: true,
                kind: PiiFindingKind::MacAddress,
                encoding: "plain",
                domain: None,
                org: None,
                party: None,
                experiment_label: "local_on".to_string(),
            });
        },
        vec!["pii_catalog", "pii_recount"],
    );
}

#[test]
fn shuffled_findings_fire_order_once() {
    // Find an adjacent pair with distinct sort keys to swap; swapping
    // equal keys would (correctly) trip nothing.
    let i = with_fixture(|_, clean| {
        clean
            .pii_findings
            .windows(2)
            .position(|w| w[0].sort_key() != w[1].sort_key())
            .expect("fixture has no two distinct findings")
    });
    assert_fires(|r| r.pii_findings.swap(i, i + 1), vec!["pii_order"]);
}

#[test]
fn metamorphic_relations_hold() {
    let v = metamorphic::check_all(tiny_config(), "Magichome Strip", 0xA11CE);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn differential_drivers_agree() {
    let (_, v) = differential::check_drivers(tiny_config());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fault_gates_hold() {
    // The sweep, the panic plan and the torn-journal resume, each
    // identical at 1/2/8 workers, against the fixture's clean report.
    let clean = with_fixture(|_, report| report.clone());
    let (record, v) = differential::check_faults(tiny_config(), &clean);
    assert!(v.is_empty(), "{v:?}");
    let rates: Vec<f64> = record.sweep.iter().map(|r| r.rate).collect();
    assert_eq!(rates, [0.001, 0.01, 0.05]);
    for rate in &record.sweep {
        assert!(
            !rate.ingest.is_clean(),
            "rate {} degraded nothing",
            rate.rate
        );
        assert!(rate.ingest.reconciles(), "{:?}", rate.ingest);
    }
    assert!(record.panic_ingest.experiments_quarantined > 0);
    assert!(record.units_replayed > 0 && record.units_replayed < record.units_total);
}

/// The clean fixture's report and the 1-worker report of the sweep's
/// 1% plan at the same configuration: the pair every sweep corruption
/// starts from.
fn sweep_fixture() -> &'static (PipelineReport, PipelineReport) {
    static FIXTURE: OnceLock<(PipelineReport, PipelineReport)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let clean = with_fixture(|_, report| report.clone());
        let plan = FaultPlan::uniform(0xC4A05, 0.01);
        (clean, differential::run(tiny_config(), Some(plan), 1))
    })
}

/// Asserts that corrupting the faulted fixture with `corrupt` (which
/// also sees the clean report) fires exactly `expected` at `rate`.
fn assert_sweep_fires(
    rate: f64,
    corrupt: impl FnOnce(&PipelineReport, &mut PipelineReport),
    mut expected: Vec<&'static str>,
) {
    let (clean, faulted) = sweep_fixture();
    let mut bad = faulted.clone();
    corrupt(clean, &mut bad);
    let (entry, v) = differential::sweep_violations(rate, clean, &bad);
    assert_eq!(entry.rate, rate);
    let mut fired: Vec<&'static str> = v.iter().map(|v| v.invariant).collect();
    fired.sort_unstable();
    expected.sort_unstable();
    assert_eq!(fired, expected, "{v:?}");
}

/// Moves every headline number past its low-rate drift ceiling.
fn drift_everything(clean: &PipelineReport, r: &mut PipelineReport) {
    drift_support(clean, r);
    drift_third(clean, r);
    drift_pii(clean, r);
    drift_mix(clean, r);
}

/// Every lab's count more than doubled, so even an empty lab drifts.
fn inflated(per_lab: &HashMap<String, usize>) -> HashMap<String, usize> {
    per_lab
        .iter()
        .map(|(lab, n)| (lab.clone(), n * 2 + 1))
        .collect()
}

fn drift_support(clean: &PipelineReport, r: &mut PipelineReport) {
    r.support_destinations = inflated(&clean.support_destinations);
}

fn drift_third(clean: &PipelineReport, r: &mut PipelineReport) {
    r.third_destinations = inflated(&clean.third_destinations);
}

fn drift_pii(_: &PipelineReport, r: &mut PipelineReport) {
    r.pii_findings.clear();
}

fn drift_mix(clean: &PipelineReport, r: &mut PipelineReport) {
    r.encryption_mix = clean.encryption_mix.clone();
    let us = r.encryption_mix.get_mut("US").unwrap();
    us[0] += 10.0;
    us[1] -= 10.0;
}

#[test]
fn clean_sweep_fixture_fires_nothing() {
    assert_sweep_fires(0.01, |_, _| {}, vec![]);
}

#[test]
fn faults_that_never_fired_fire_once() {
    assert_sweep_fires(
        0.01,
        |clean, r| r.ingest = clean.ingest.clone(),
        vec!["sweep_faults_fired"],
    );
}

#[test]
fn unreconciled_sweep_ledger_fires_once() {
    assert_sweep_fires(
        0.01,
        |_, r| r.ingest.packets_ingested += 1,
        vec!["sweep_ledger"],
    );
}

#[test]
fn quarantine_with_panics_off_fires_once() {
    assert_sweep_fires(
        0.01,
        |_, r| r.ingest.experiments_quarantined += 1,
        vec!["sweep_quarantine"],
    );
}

#[test]
fn changed_experiment_count_fires_once() {
    assert_sweep_fires(0.01, |_, r| r.experiments += 1, vec!["sweep_experiments"]);
}

#[test]
fn each_low_rate_drift_ceiling_fires_alone() {
    assert_sweep_fires(0.01, drift_support, vec!["sweep_dest_drift"]);
    assert_sweep_fires(0.01, drift_third, vec!["sweep_dest_drift"]);
    assert_sweep_fires(0.01, drift_pii, vec!["sweep_pii_drift"]);
    assert_sweep_fires(0.01, drift_mix, vec!["sweep_mix_drift"]);
    assert_sweep_fires(
        0.01,
        drift_everything,
        vec!["sweep_dest_drift", "sweep_mix_drift", "sweep_pii_drift"],
    );
}

#[test]
fn drift_at_a_high_rate_fires_nothing() {
    assert_sweep_fires(0.05, drift_everything, vec![]);
}
