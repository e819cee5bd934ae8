//! Integration of the §6.3/§7 inference stack: train on labeled captures,
//! detect activities in unlabeled idle and user-study traffic.

use intl_iot::analysis::inference::{train_device_model, InferenceConfig};
use intl_iot::analysis::unexpected::{detect_activities, detection_counts};
use intl_iot::geodb::registry::GeoDb;
use intl_iot::ml::forest::RandomForestConfig;
use intl_iot::testbed::experiment::run_idle;
use intl_iot::testbed::lab::{Lab, LabSite};
use intl_iot::testbed::schedule::{Campaign, CampaignConfig};
use intl_iot::testbed::user_study::{simulate, StudyConfig};

fn campaign() -> Campaign {
    Campaign::new(CampaignConfig {
        automated_reps: 12,
        manual_reps: 6,
        power_reps: 6,
        idle_hours: 0.0,
        include_vpn: false,
    })
}

fn config() -> InferenceConfig {
    InferenceConfig {
        cv_repeats: 3,
        forest: RandomForestConfig {
            n_trees: 20,
            ..RandomForestConfig::default()
        },
    }
}

/// Cameras are inferrable, hub on/off toggles are not — Table 9's
/// category gradient on two representatives.
#[test]
fn inferrability_gradient() {
    let db = GeoDb::new();
    let campaign = campaign();
    let lab = Lab::deploy(LabSite::Us);

    let cam = lab.device("Amazon Cloudcam").unwrap();
    let cam_model = train_device_model(&db, &campaign, cam, false, &config());

    let hub = lab.device("Wink 2 Hub").unwrap();
    let hub_model = train_device_model(&db, &campaign, hub, false, &config());

    assert!(
        cam_model.cv_macro_f1 > hub_model.cv_macro_f1,
        "camera {:.3} must beat hub {:.3}",
        cam_model.cv_macro_f1,
        hub_model.cv_macro_f1
    );
    // At this reduced rep count the absolute score sits below the paper's
    // full-scale numbers; the gradient above is the load-bearing check.
    assert!(cam_model.cv_macro_f1 > 0.6, "{:.3}", cam_model.cv_macro_f1);
}

/// §7.2 end to end: a high-confidence Zmodo model finds the spurious
/// motion uploads in idle traffic. At this test's rep counts the Zmodo
/// model is below the F1 > 0.9 gate (CV macro F1 0.810), so only the
/// fallback branch runs; the detection branch is not exercised here.
#[test]
fn zmodo_idle_detections() {
    let db = GeoDb::new();
    let campaign = campaign();
    let lab = Lab::deploy(LabSite::Us);
    let zmodo = lab.device("Zmodo Doorbell").unwrap();
    let model = train_device_model(&db, &campaign, zmodo, false, &config());
    let idle = run_idle(&db, zmodo, false, 2.0, 0);
    match detect_activities(&model, &idle.packets()) {
        None => {
            // Model below the F1 gate at this reduced scale: acceptable,
            // but its CV score must at least be close.
            assert!(model.cv_macro_f1 > 0.6, "cv F1 {:.3}", model.cv_macro_f1);
        }
        Some(detections) => {
            let counts = detection_counts(&detections);
            assert!(
                counts.iter().any(|(l, n)| l.ends_with("move") && *n >= 10),
                "expected a flood of move detections, got {counts:?}"
            );
        }
    }
}

/// §7.3 end to end: user-study captures from passive camera triggers are
/// detectable and map back to ground-truth events.
#[test]
fn user_study_roundtrip() {
    let db = GeoDb::new();
    let (captures, events) = simulate(
        &db,
        &StudyConfig {
            days: 2,
            accesses_per_day: 12.0,
            seed: 3,
        },
    );
    assert!(!captures.is_empty());
    let passive = events.iter().filter(|e| !e.intentional).count();
    assert!(passive > 0);
    // Every capture's packets are valid and time-ordered.
    for c in &captures {
        for w in c.packets.windows(2) {
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
    }
    // The fridge (heaviest intentional use) has traffic we can segment.
    let fridge = captures
        .iter()
        .find(|c| c.device_name == "Samsung Fridge")
        .unwrap();
    let units = intl_iot::analysis::unexpected::segment_units(&fridge.packets, 2.0);
    assert!(!units.is_empty());
}
