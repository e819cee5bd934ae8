//! The composed oracle: one entry point that runs all three pillars
//! over a campaign configuration and reports every violated property.
//!
//! Pipeline runs are expensive, so the harness is frugal with them: the
//! 1-worker invariant run doubles as the differential baseline and as
//! the clean run the fault gates compare against, and the metamorphic
//! relations — which are scale-independent properties — run on a
//! bounded copy of the configuration so that holding the full
//! experiment stream in memory stays cheap at any `IOT_SCALE`.

use crate::differential::FaultRecord;
use crate::{differential, invariants, metamorphic, Violation};
use iot_analysis::pipeline::Pipeline;
use iot_analysis::unexpected::{detection_counts, match_against_ground_truth, Detection};
use iot_core::json::{Json, ToJson};
use iot_testbed::schedule::CampaignConfig;
use iot_testbed::user_study::{plan_events, StudyConfig};

/// Device the removal relation drops: deployed in both labs and a known
/// PII leaker, so the relation exercises finding rows on both sites.
const REMOVAL_DEVICE: &str = "Magichome Strip";

/// Device the §7.3 study-match laws run on (US lab, has both
/// intentional and passive ground-truth events).
const STUDY_DEVICE: &str = "Samsung Fridge";

/// Seed for the order-permutation shuffle.
const PERMUTATION_SEED: u64 = 0xA11CE;

/// Seed for the simulated user study behind the match laws.
const STUDY_SEED: u64 = 0xACE5;

/// Match window, mirroring the §7.3 tolerance used in analysis tests.
const STUDY_WINDOW_SECS: f64 = 30.0;

/// Everything one oracle run found, split by pillar.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Conservation-law and recount violations (pillar 1).
    pub invariant: Vec<Violation>,
    /// Broken metamorphic relations (pillar 2).
    pub metamorphic: Vec<Violation>,
    /// Worker-count, chaos-plan, fault-gate and resume violations
    /// (pillar 3).
    pub differential: Vec<Violation>,
    /// What the fault gates measured: the sweep's ledgers and drift,
    /// the panic plan's ledger and the resume's split.
    pub faults: FaultRecord,
    /// Experiments in the 1-worker baseline run.
    pub experiments: u64,
    /// PII findings in the 1-worker baseline run.
    pub pii_findings: usize,
}

impl OracleOutcome {
    /// True when no pillar found anything.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Total violations across all pillars.
    pub fn total(&self) -> usize {
        self.invariant.len() + self.metamorphic.len() + self.differential.len()
    }

    /// All violations in pillar order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.invariant
            .iter()
            .chain(self.metamorphic.iter())
            .chain(self.differential.iter())
    }

    /// Multi-line human summary: per-pillar counts, then every
    /// violation rendered one per line.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "oracle: {} experiments, {} pii findings — invariants {}, metamorphic {}, differential {}",
            self.experiments,
            self.pii_findings,
            self.invariant.len(),
            self.metamorphic.len(),
            self.differential.len()
        );
        for v in self.violations() {
            s.push_str("\n  ");
            s.push_str(&v.render());
        }
        s
    }
}

impl ToJson for OracleOutcome {
    fn to_json(&self) -> Json {
        fn list(violations: &[Violation]) -> Json {
            Json::Arr(violations.iter().map(|v| v.to_json()).collect())
        }
        let mut j = Json::obj();
        j.set("experiments", Json::UInt(self.experiments));
        j.set("pii_findings", Json::UInt(self.pii_findings as u64));
        j.set("total_violations", Json::UInt(self.total() as u64));
        j.set("clean", Json::Bool(self.is_clean()));
        j.set("invariant", list(&self.invariant));
        j.set("metamorphic", list(&self.metamorphic));
        j.set("differential", list(&self.differential));
        j.set("faults", self.faults.to_json());
        j
    }
}

/// Bounds a configuration for the metamorphic pillar, which holds the
/// whole experiment stream in memory and replays it several times. The
/// relations are properties of the accumulation logic, not of the
/// corpus size, so one repetition of everything suffices.
fn metamorphic_config(config: CampaignConfig) -> CampaignConfig {
    CampaignConfig {
        automated_reps: config.automated_reps.min(1),
        manual_reps: config.manual_reps.min(1),
        power_reps: config.power_reps.min(1),
        idle_hours: config.idle_hours.min(0.05),
        include_vpn: false,
    }
}

/// Table 11 and §7.3 laws, exercised on a simulated user study with
/// detections synthesized from its ground truth: one detection shortly
/// after every event of the study device, plus one an hour past the
/// last that must land in the unmatched bucket.
fn detection_and_study_laws() -> Vec<Violation> {
    let events = plan_events(&StudyConfig {
        days: 5,
        accesses_per_day: 10.0,
        seed: STUDY_SEED,
    });
    let mut detections: Vec<Detection> = events
        .iter()
        .filter(|e| e.device_name == STUDY_DEVICE)
        .map(|e| Detection {
            at_micros: e.at_micros + 2_000_000,
            label: format!("local_{}", e.activity),
            confidence: 0.9,
            unit_packets: 12,
        })
        .collect();
    let horizon = detections.iter().map(|d| d.at_micros).max().unwrap_or(0);
    detections.push(Detection {
        at_micros: horizon + 3_600_000_000,
        label: "local_door_open".to_string(),
        confidence: 0.55,
        unit_packets: 3,
    });

    let counts = detection_counts(&detections);
    let mut v = invariants::check_detection_counts(&detections, &counts);
    let report = match_against_ground_truth(STUDY_DEVICE, &detections, &events, STUDY_WINDOW_SECS);
    v.extend(invariants::check_study_match(
        STUDY_DEVICE,
        detections.len(),
        &events,
        &report,
    ));
    v
}

/// Runs the full oracle over one campaign configuration.
///
/// One 1-worker pipeline run serves both as the invariant subject and
/// the differential baseline; the metamorphic relations run on a bounded
/// copy of the configuration (see `metamorphic_config`).
pub fn run_oracle(config: CampaignConfig) -> OracleOutcome {
    // Pillar 1: invariants over a live 1-worker run, with the pipeline
    // still inspectable for the recount cross-checks.
    let mut pipeline = Pipeline::with_obs(false);
    pipeline.run_campaign(config);
    let report = pipeline.build_report();
    let mut invariant = invariants::check_report(&report);
    invariant.extend(invariants::check_consistency(&pipeline, &report));
    invariant.extend(detection_and_study_laws());

    // Pillar 3: the worker grid and the clean chaos plan against the
    // same baseline, then the fault gates against it.
    let mut differential = differential::check_drivers_against(&report, config);
    let (faults, fault_violations) = differential::check_faults(config, &report);
    differential.extend(fault_violations);

    // Pillar 2: metamorphic relations on the bounded configuration.
    let metamorphic = metamorphic::check_all(
        metamorphic_config(config),
        REMOVAL_DEVICE,
        PERMUTATION_SEED,
    );

    OracleOutcome {
        invariant,
        metamorphic,
        differential,
        faults,
        experiments: report.experiments,
        pii_findings: report.pii_findings.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_and_study_laws_hold_on_simulated_study() {
        let v = detection_and_study_laws();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn outcome_serializes_and_summarizes() {
        let outcome = OracleOutcome {
            invariant: vec![Violation::new(
                "mix_sum",
                "encryption_mix",
                "US",
                "sum",
                "sums to 104.2",
            )],
            metamorphic: Vec::new(),
            differential: Vec::new(),
            faults: FaultRecord::default(),
            experiments: 42,
            pii_findings: 7,
        };
        assert!(!outcome.is_clean());
        assert_eq!(outcome.total(), 1);
        let dump = outcome.to_json().dump();
        assert!(dump.contains("\"clean\":false"), "{dump}");
        assert!(dump.contains("\"total_violations\":1"), "{dump}");
        assert!(dump.contains("\"panic_stage\":{\"panic_rate\":0.05"), "{dump}");
        let summary = outcome.summary();
        assert!(summary.contains("invariants 1"), "{summary}");
        assert!(summary.contains("mix_sum @ encryption_mix/US/sum"), "{summary}");
    }
}
