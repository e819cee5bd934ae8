//! Invariant checks: conservation laws over a finished report, and
//! cross-checks of every derived report field against the live
//! accumulators it was built from.
//!
//! Each check function returns the violations it found; an empty vector
//! means the property holds. Each violated property yields exactly one
//! violation per offending row (no duplicate firings) — the oracle's
//! own fixture test corrupts a report one field at a time and asserts
//! the firing pattern precisely.

use crate::Violation;
use iot_analysis::destinations::ColumnCtx;
use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::unexpected::{Detection, StudyMatchReport};
use iot_entropy::EncryptionClass;
use iot_geodb::party::PartyType;
use iot_testbed::catalog;
use iot_testbed::lab::{Lab, LabSite};
use iot_testbed::user_study::StudyEvent;
use std::collections::HashMap;

/// Tolerance for percentage sums (percentages are exact ratios of u64
/// byte counts, so only float representation error remains).
const PCT_EPS: f64 = 1e-6;

/// Self-contained conservation laws over one report: everything here is
/// checkable from the report alone, with the device catalog as ground
/// truth.
pub fn check_report(report: &PipelineReport) -> Vec<Violation> {
    let mut v = Vec::new();

    // Ingest ledger conservation: every packet offered to ingestion —
    // generated or duplicated by faults — is ingested, dropped, lost, or
    // quarantined, exactly once.
    let ingest = &report.ingest;
    if !ingest.reconciles() {
        v.push(Violation::new(
            "ledger_conservation",
            "ingest",
            "totals",
            "packets",
            format!(
                "generated {} + duplicated {} != ingested {} + dropped {} \
                 + lost {} + quarantined {}",
                ingest.packets_generated,
                ingest.packets_duplicated,
                ingest.packets_ingested,
                ingest.packets_dropped,
                ingest.packets_lost,
                ingest.packets_quarantined
            ),
        ));
    }

    // The headline experiment count is the ledger's ingested count.
    if report.experiments != ingest.experiments_ingested {
        v.push(Violation::new(
            "ledger_experiments",
            "ingest",
            "totals",
            "experiments_ingested",
            format!(
                "report.experiments {} != ingest.experiments_ingested {}",
                report.experiments, ingest.experiments_ingested
            ),
        ));
    }

    // Per-lab encryption mix: the three byte-class percentages cover the
    // corpus — they sum to 100 (or are all zero for an empty lab).
    let known_sites: Vec<&str> = LabSite::all().iter().map(|s| s.name()).collect();
    let mut mix_sites: Vec<&String> = report.encryption_mix.keys().collect();
    mix_sites.sort();
    for site in mix_sites {
        let mix = report.encryption_mix[site];
        if !known_sites.contains(&site.as_str()) {
            v.push(Violation::new(
                "mix_sum",
                "encryption_mix",
                site.clone(),
                "site",
                format!("unknown lab {site:?}"),
            ));
            continue;
        }
        if let Some(bad) = mix
            .iter()
            .find(|&&p| !p.is_finite() || p < -PCT_EPS || p > 100.0 + PCT_EPS)
        {
            v.push(Violation::new(
                "mix_sum",
                "encryption_mix",
                site.clone(),
                "component",
                format!("percentage {bad} outside [0, 100] in {mix:?}"),
            ));
            continue;
        }
        let sum: f64 = mix.iter().sum();
        if sum != 0.0 && (sum - 100.0).abs() > PCT_EPS {
            v.push(Violation::new(
                "mix_sum",
                "encryption_mix",
                site.clone(),
                "sum",
                format!("classes sum to {sum}, expected 100 (or 0 for an empty lab)"),
            ));
        }
    }

    // Device split sanity: `with non-first-party destinations` is a
    // subset of all deployed devices.
    let (with, total) = report.devices_with_non_first;
    let deployed: usize = LabSite::all()
        .iter()
        .map(|&s| Lab::deploy(s).devices.len())
        .sum();
    if with > total || total > deployed {
        v.push(Violation::new(
            "device_split",
            "devices_with_non_first",
            "totals",
            "with/total",
            format!("{with}/{total} impossible (deployed instances: {deployed})"),
        ));
    }

    // Every PII finding names a cataloged device actually deployed at
    // its site, with a known encoding.
    for (i, f) in report.pii_findings.iter().enumerate() {
        let row = format!("[{i}] {}", f.device_name);
        match catalog::by_name(&f.device_name) {
            None => {
                v.push(Violation::new(
                    "pii_catalog",
                    "pii_findings",
                    row,
                    "device_name",
                    format!("device {:?} not in the catalog", f.device_name),
                ));
                continue;
            }
            Some(spec) if !spec.available_at(f.site) => {
                v.push(Violation::new(
                    "pii_catalog",
                    "pii_findings",
                    row,
                    "site",
                    format!("{:?} is not deployed at {}", f.device_name, f.site.name()),
                ));
                continue;
            }
            Some(_) => {}
        }
        if !matches!(f.encoding, "plain" | "hex" | "base64") {
            v.push(Violation::new(
                "pii_catalog",
                "pii_findings",
                row,
                "encoding",
                format!("unknown encoding {:?}", f.encoding),
            ));
        }
    }

    // Findings are emitted sorted; report only the first inversion (a
    // shuffled report would otherwise fire once per misplaced pair).
    if let Some(i) = report
        .pii_findings
        .windows(2)
        .position(|w| w[0].sort_key() > w[1].sort_key())
    {
        v.push(Violation::new(
            "pii_order",
            "pii_findings",
            format!("[{}]", i + 1),
            "sort_key",
            format!(
                "finding for {:?} sorts before its predecessor {:?}",
                report.pii_findings[i + 1].device_name, report.pii_findings[i].device_name
            ),
        ));
    }

    v
}

/// Cross-checks every derived report field against the live pipeline
/// accumulators: the report must be exactly what [`Pipeline::build_report`]
/// would derive from the current state.
pub fn check_consistency(pipeline: &Pipeline, report: &PipelineReport) -> Vec<Violation> {
    let mut v = Vec::new();

    if report.experiments != pipeline.experiments() {
        v.push(Violation::new(
            "experiments_recount",
            "experiments",
            "totals",
            "experiments",
            format!(
                "report says {}, accumulator says {}",
                report.experiments,
                pipeline.experiments()
            ),
        ));
    }

    if report.ingest != pipeline.ingest {
        v.push(Violation::new(
            "ledger_recount",
            "ingest",
            "totals",
            "ledger",
            format!(
                "report ledger diverged from accumulator: {:?} vs {:?}",
                report.ingest, pipeline.ingest
            ),
        ));
    }

    for site in LabSite::all() {
        let ctx = ColumnCtx {
            site,
            vpn: false,
            common_only: false,
        };
        for (party, table, counts) in [
            (PartyType::Support, "support_destinations", &report.support_destinations),
            (PartyType::Third, "third_destinations", &report.third_destinations),
        ] {
            let expected = pipeline.destinations.unique_destinations_total(ctx, party);
            let got = counts.get(site.name()).copied();
            if got != Some(expected) {
                v.push(Violation::new(
                    "dest_recount",
                    table,
                    site.name(),
                    "count",
                    format!("report says {got:?}, recomputation says {expected}"),
                ));
            }
        }

        let mut agg = iot_analysis::encryption::ClassBytes::default();
        for (_, cb) in pipeline.encryption.device_bytes(site, false) {
            agg.merge(&cb);
        }
        let expected_mix = [
            agg.percent(EncryptionClass::LikelyUnencrypted),
            agg.percent(EncryptionClass::LikelyEncrypted),
            agg.percent(EncryptionClass::Unknown),
        ];
        let got = report.encryption_mix.get(site.name());
        if got != Some(&expected_mix) {
            v.push(Violation::new(
                "mix_recount",
                "encryption_mix",
                site.name(),
                "percentages",
                format!("report says {got:?}, recomputation says {expected_mix:?}"),
            ));
        }
    }

    let expected_split = pipeline.destinations.devices_with_non_first_party();
    if report.devices_with_non_first != expected_split {
        v.push(Violation::new(
            "split_recount",
            "devices_with_non_first",
            "totals",
            "with/total",
            format!(
                "report says {:?}, recomputation says {expected_split:?}",
                report.devices_with_non_first
            ),
        ));
    }

    if report.pii_findings.len() != pipeline.pii.len() {
        v.push(Violation::new(
            "pii_recount",
            "pii_findings",
            "totals",
            "len",
            format!(
                "report carries {} findings, accumulator {}",
                report.pii_findings.len(),
                pipeline.pii.len()
            ),
        ));
    }

    v
}

/// Table 11 law: the per-label detection counts are a partition of the
/// detection list — they recount exactly and sum to the total.
pub fn check_detection_counts(
    detections: &[Detection],
    counts: &[(String, usize)],
) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut recount: HashMap<&str, usize> = HashMap::new();
    for d in detections {
        *recount.entry(d.label.as_str()).or_default() += 1;
    }
    let sum: usize = counts.iter().map(|(_, c)| c).sum();
    if sum != detections.len() {
        v.push(Violation::new(
            "table11_sum",
            "detection_counts",
            "totals",
            "sum",
            format!(
                "per-label counts sum to {sum}, but {} detections exist",
                detections.len()
            ),
        ));
    }
    for (label, count) in counts {
        let expected = recount.get(label.as_str()).copied().unwrap_or(0);
        if *count != expected {
            v.push(Violation::new(
                "table11_recount",
                "detection_counts",
                label.clone(),
                "count",
                format!("row says {count}, recount says {expected}"),
            ));
        }
    }
    for label in recount.keys() {
        if !counts.iter().any(|(l, _)| l == label) {
            v.push(Violation::new(
                "table11_recount",
                "detection_counts",
                (*label).to_string(),
                "count",
                "label present in detections but missing from the table".to_string(),
            ));
        }
    }
    v
}

/// §7.3 laws for the user-study match: every detection lands in exactly
/// one bucket, and matched detections never outnumber the ground-truth
/// events they claim (one event corroborates at most one detection).
pub fn check_study_match(
    device_name: &str,
    detections_total: usize,
    events: &[StudyEvent],
    report: &StudyMatchReport,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let sum = report.matched_intentional + report.matched_passive + report.unmatched;
    if sum != detections_total {
        v.push(Violation::new(
            "match_conservation",
            "study_match",
            device_name.to_string(),
            "buckets",
            format!(
                "{} intentional + {} passive + {} unmatched != {detections_total} detections",
                report.matched_intentional, report.matched_passive, report.unmatched
            ),
        ));
    }
    let intentional = events
        .iter()
        .filter(|e| e.device_name == device_name && e.intentional)
        .count();
    let passive = events
        .iter()
        .filter(|e| e.device_name == device_name && !e.intentional)
        .count();
    if report.matched_intentional > intentional {
        v.push(Violation::new(
            "match_injectivity",
            "study_match",
            device_name.to_string(),
            "matched_intentional",
            format!(
                "{} matches claimed but only {intentional} intentional events exist",
                report.matched_intentional
            ),
        ));
    }
    if report.matched_passive > passive {
        v.push(Violation::new(
            "match_injectivity",
            "study_match",
            device_name.to_string(),
            "matched_passive",
            format!(
                "{} matches claimed but only {passive} passive events exist",
                report.matched_passive
            ),
        ));
    }
    v
}
