//! Metamorphic relations: input transformations whose effect on the
//! report is known exactly, checked end to end.
//!
//! The pipeline promises order-independent accumulation and seeded,
//! identity-keyed generation. These relations pin those promises from
//! the outside, without reference values:
//!
//! * [`check_order_permutation`] — ingesting the same experiments in a
//!   shuffled order leaves the report byte-identical.
//! * [`check_rep_relabel`] — repetition indices only select generation
//!   seeds; relabeling them *after* generation is invisible.
//! * [`check_device_removal`] — dropping one device's experiments
//!   removes exactly that device's rows and nothing else.
//! * [`check_vpn_isolation`] — adding the VPN dimension adds VPN rows
//!   but leaves every native-egress field untouched.
//!
//! Most relations run without a fault plan: legacy fault keys include
//! the rep index, so arbitrary faults are *expected* to break
//! rep-relabel equivalence. [`check_rep_relabel_faulted`] closes that
//! gap for plans that opt into rep-invariant fault keys
//! (`rep_invariant_fault_keys`): under such a plan the fault draw
//! survives relabeling, so the relation must hold even on a degraded
//! corpus.

use crate::diff::diff_json;
use crate::Violation;
use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_core::json::ToJson;
use iot_core::rng::{SliceRandom, StdRng};
use iot_geodb::registry::GeoDb;
use iot_testbed::experiment::LabeledExperiment;
use iot_testbed::schedule::{Campaign, CampaignConfig};

/// Seed of [`faulted_plan`].
const FAULTED_PLAN_SEED: u64 = 0xFA17ED;

/// The plan of the faulted rep-relabel relation: every capture fault
/// class at a uniform 1% rate, with fault keys made rep-invariant so
/// relabeling repetitions preserves the fault draw.
fn faulted_plan() -> iot_chaos::FaultPlan {
    let mut plan = iot_chaos::FaultPlan::uniform(FAULTED_PLAN_SEED, 0.01);
    plan.rep_invariant_fault_keys = true;
    plan
}

/// Generates the full experiment stream (controlled + idle) of a
/// campaign as a vector, unit by unit, for replay through
/// [`Pipeline::ingest_experiments`].
pub fn collect_experiments(config: CampaignConfig) -> Vec<LabeledExperiment> {
    let db = GeoDb::new();
    let campaign = Campaign::new(config);
    let mut experiments = Vec::new();
    for unit in 0..campaign.unit_count() {
        campaign.run_unit(&db, unit, |exp| experiments.push(exp));
    }
    experiments
}

/// Replays an experiment stream through a fresh pipeline and returns
/// the finished report.
fn replay(experiments: Vec<LabeledExperiment>) -> PipelineReport {
    let mut p = Pipeline::with_obs(false);
    p.ingest_experiments(experiments);
    p.finish()
}

fn diff_violations(
    invariant: &'static str,
    baseline: &PipelineReport,
    transformed: &PipelineReport,
) -> Vec<Violation> {
    diff_json(&baseline.to_json(), &transformed.to_json())
        .into_iter()
        .map(|d| d.into_violation(invariant))
        .collect()
}

/// Ingestion order must not matter: a seeded shuffle of the experiment
/// stream yields a byte-identical report.
pub fn check_order_permutation(
    baseline: &PipelineReport,
    experiments: &[LabeledExperiment],
    seed: u64,
) -> Vec<Violation> {
    let mut shuffled = experiments.to_vec();
    shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
    let permuted = replay(shuffled);
    diff_violations("order_permutation", baseline, &permuted)
}

/// Repetition indices select generation seeds and nothing else; once
/// the packets exist, relabeling every rep must be invisible to every
/// analysis (no accumulator may key on rep).
pub fn check_rep_relabel(
    baseline: &PipelineReport,
    experiments: &[LabeledExperiment],
) -> Vec<Violation> {
    let relabeled: Vec<LabeledExperiment> = experiments
        .iter()
        .map(|exp| {
            let mut exp = exp.clone();
            exp.rep += 1000;
            exp
        })
        .collect();
    let report = replay(relabeled);
    diff_violations("rep_relabel", baseline, &report)
}

/// The faulted twin of [`check_rep_relabel`]: with a plan whose fault
/// keys are rep-invariant, relabeling every repetition *after*
/// generation must leave even a degraded report byte-identical — the
/// same experiments draw the same drops, truncations, and losses.
/// Guards its own vacuity: a plan that never bites is a finding.
///
/// # Panics
/// Panics if `plan` does not set `rep_invariant_fault_keys` (the
/// relation is simply false for legacy keys, so calling it that way is
/// a harness bug, not a pipeline defect).
pub fn check_rep_relabel_faulted(
    experiments: &[LabeledExperiment],
    plan: iot_chaos::FaultPlan,
) -> Vec<Violation> {
    assert!(
        plan.rep_invariant_fault_keys,
        "check_rep_relabel_faulted needs rep-invariant fault keys"
    );
    let replay_faulted = |experiments: Vec<LabeledExperiment>| {
        let mut p = Pipeline::with_obs(false);
        p.set_fault_plan(plan);
        p.ingest_experiments(experiments);
        p.finish()
    };
    let baseline = replay_faulted(experiments.to_vec());
    let mut v = Vec::new();
    if baseline.ingest.is_clean() {
        v.push(Violation::new(
            "rep_relabel_faulted",
            "ingest",
            "totals",
            "is_clean",
            "faulted plan produced a clean ledger — the relation checked nothing".to_string(),
        ));
    }
    let relabeled: Vec<LabeledExperiment> = experiments
        .iter()
        .map(|exp| {
            let mut exp = exp.clone();
            exp.rep += 1000;
            exp
        })
        .collect();
    let report = replay_faulted(relabeled);
    v.extend(diff_violations("rep_relabel_faulted", &baseline, &report));
    v
}

/// Disabling one device removes exactly that device's rows: its PII
/// findings vanish, everyone else's survive unchanged, its experiments
/// leave the count, and no destination tally can *grow*.
pub fn check_device_removal(
    baseline: &PipelineReport,
    experiments: &[LabeledExperiment],
    device: &str,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let removed = experiments
        .iter()
        .filter(|e| e.device_name == device)
        .count() as u64;
    if removed == 0 {
        v.push(Violation::new(
            "device_removal",
            "experiments",
            device.to_string(),
            "count",
            "relation is vacuous: the campaign has no experiments for this device".to_string(),
        ));
        return v;
    }
    let filtered: Vec<LabeledExperiment> = experiments
        .iter()
        .filter(|e| e.device_name != device)
        .cloned()
        .collect();
    let reduced = replay(filtered);

    if reduced.experiments != baseline.experiments - removed {
        v.push(Violation::new(
            "device_removal",
            "experiments",
            device.to_string(),
            "count",
            format!(
                "expected {} - {removed}, got {}",
                baseline.experiments, reduced.experiments
            ),
        ));
    }
    if let Some(f) = reduced
        .pii_findings
        .iter()
        .find(|f| f.device_name == device)
    {
        v.push(Violation::new(
            "device_removal",
            "pii_findings",
            device.to_string(),
            "device_name",
            format!(
                "finding for removed device survived (label {:?})",
                f.experiment_label
            ),
        ));
    }
    // Everyone else's findings are untouched, in order.
    let baseline_rest: Vec<_> = baseline
        .pii_findings
        .iter()
        .filter(|f| f.device_name != device)
        .map(|f| f.to_json().dump())
        .collect();
    let reduced_rest: Vec<_> = reduced
        .pii_findings
        .iter()
        .filter(|f| f.device_name != device)
        .map(|f| f.to_json().dump())
        .collect();
    if baseline_rest != reduced_rest {
        v.push(Violation::new(
            "device_removal",
            "pii_findings",
            "<others>".to_string(),
            "rows",
            format!(
                "other devices' findings changed: {} rows before, {} after",
                baseline_rest.len(),
                reduced_rest.len()
            ),
        ));
    }
    // Destinations are sets shared across devices, so removal may leave
    // a count unchanged — but can never increase one.
    for (table, base_map, red_map) in [
        ("support_destinations", &baseline.support_destinations, &reduced.support_destinations),
        ("third_destinations", &baseline.third_destinations, &reduced.third_destinations),
    ] {
        let mut sites: Vec<&String> = base_map.keys().collect();
        sites.sort();
        for site in sites {
            let before = base_map[site];
            let after = red_map.get(site).copied().unwrap_or(0);
            if after > before {
                v.push(Violation::new(
                    "device_removal",
                    table,
                    site.clone(),
                    "count",
                    format!("count grew from {before} to {after} after removing a device"),
                ));
            }
        }
    }
    let (bw, bt) = baseline.devices_with_non_first;
    let (rw, rt) = reduced.devices_with_non_first;
    if rw > bw || rt > bt {
        v.push(Violation::new(
            "device_removal",
            "devices_with_non_first",
            device.to_string(),
            "with/total",
            format!("split grew from {bw}/{bt} to {rw}/{rt}"),
        ));
    }
    v
}

/// Adding the VPN dimension (`include_vpn = true`) doubles the
/// controlled grid with VPN-egress repetitions, but the report's
/// native-egress fields — destination tallies, encryption mix, device
/// split, and every `vpn = false` PII finding — must not move at all.
pub fn check_vpn_isolation(config: CampaignConfig) -> Vec<Violation> {
    let mut native_config = config;
    native_config.include_vpn = false;
    let mut vpn_config = config;
    vpn_config.include_vpn = true;

    let native = replay(collect_experiments(native_config));
    let with_vpn = replay(collect_experiments(vpn_config));

    let mut v = Vec::new();
    for (table, a, b) in [
        ("support_destinations", &native.support_destinations, &with_vpn.support_destinations),
        ("third_destinations", &native.third_destinations, &with_vpn.third_destinations),
    ] {
        if a != b {
            v.push(Violation::new(
                "vpn_isolation",
                table,
                "<all>".to_string(),
                "counts",
                format!("native-egress counts moved: {a:?} vs {b:?}"),
            ));
        }
    }
    if native.encryption_mix != with_vpn.encryption_mix {
        v.push(Violation::new(
            "vpn_isolation",
            "encryption_mix",
            "<all>".to_string(),
            "percentages",
            format!(
                "native-egress mix moved: {:?} vs {:?}",
                native.encryption_mix, with_vpn.encryption_mix
            ),
        ));
    }
    if native.devices_with_non_first != with_vpn.devices_with_non_first {
        v.push(Violation::new(
            "vpn_isolation",
            "devices_with_non_first",
            "totals".to_string(),
            "with/total",
            format!(
                "{:?} vs {:?}",
                native.devices_with_non_first, with_vpn.devices_with_non_first
            ),
        ));
    }
    let native_rows: Vec<String> = native
        .pii_findings
        .iter()
        .filter(|f| !f.vpn)
        .map(|f| f.to_json().dump())
        .collect();
    let vpn_native_rows: Vec<String> = with_vpn
        .pii_findings
        .iter()
        .filter(|f| !f.vpn)
        .map(|f| f.to_json().dump())
        .collect();
    if native_rows != vpn_native_rows {
        v.push(Violation::new(
            "vpn_isolation",
            "pii_findings",
            "vpn=false".to_string(),
            "rows",
            format!(
                "native findings changed: {} rows without VPN, {} with",
                native_rows.len(),
                vpn_native_rows.len()
            ),
        ));
    }
    // And the added rows really are the VPN dimension.
    let extra = with_vpn.pii_findings.len() - vpn_native_rows.len();
    let vpn_rows = with_vpn.pii_findings.iter().filter(|f| f.vpn).count();
    if extra != vpn_rows {
        v.push(Violation::new(
            "vpn_isolation",
            "pii_findings",
            "vpn=true".to_string(),
            "rows",
            format!("{extra} extra rows but {vpn_rows} are VPN-flagged"),
        ));
    }
    v
}

/// Runs every metamorphic relation over one campaign configuration.
/// `device` names the device whose removal is tested (it must appear in
/// the campaign); `seed` drives the order permutation.
pub fn check_all(config: CampaignConfig, device: &str, seed: u64) -> Vec<Violation> {
    let mut config = config;
    // The relations themselves control the VPN dimension.
    config.include_vpn = false;
    let experiments = collect_experiments(config);
    let baseline = replay(experiments.clone());
    let mut v = Vec::new();
    v.extend(check_order_permutation(&baseline, &experiments, seed));
    v.extend(check_rep_relabel(&baseline, &experiments));
    v.extend(check_rep_relabel_faulted(&experiments, faulted_plan()));
    v.extend(check_device_removal(&baseline, &experiments, device));
    v.extend(check_vpn_isolation(config));
    v
}
