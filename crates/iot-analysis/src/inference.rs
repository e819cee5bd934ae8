//! Device-activity inference — RQ4 (§6.3, Tables 9–10).
//!
//! One random forest per device, trained on the experiment labels
//! (`power`, `local_voice`, `android_wan_on`, …) with the timing/size
//! features of [`crate::features`], validated with stratified 70/30
//! splits repeated 10 times. A device or activity is *inferrable* when its
//! F1 exceeds 0.75. Tables 9–10 read a device's cross-validation scores
//! alone; §7 applies a [`TrainedDeviceModel`], which adds the forest
//! fitted on all of the device's data, seeded by the configuration alone.

use crate::features::timing_features;
use iot_ml::crossval::{cross_validate, CrossValReport};
use iot_ml::dataset::Dataset;
use iot_ml::forest::{RandomForest, RandomForestConfig};
use iot_testbed::catalog;
use iot_testbed::device::{split_interaction_label, ActivityKind};
use iot_testbed::experiment::LabeledExperiment;
use iot_testbed::lab::DeviceInstance;
use iot_testbed::schedule::Campaign;
use std::collections::HashMap;

/// The paper's inferrability threshold (Tables 9–10).
pub const F1_INFERRABLE: f64 = 0.75;
/// The stricter threshold for unexpected-behavior models (§7.1).
pub const F1_HIGH_CONFIDENCE: f64 = 0.9;

/// Inference configuration.
#[derive(Debug, Clone, Copy)]
pub struct InferenceConfig {
    /// Cross-validation repeats (paper: 10).
    pub cv_repeats: usize,
    /// Forest hyperparameters.
    pub forest: RandomForestConfig,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            cv_repeats: 10,
            forest: RandomForestConfig::default(),
        }
    }
}

impl InferenceConfig {
    /// A faster configuration for tests.
    pub fn quick() -> Self {
        InferenceConfig {
            cv_repeats: 3,
            forest: RandomForestConfig {
                n_trees: 10,
                ..RandomForestConfig::default()
            },
        }
    }
}

/// Maps an experiment label to its Table 10 activity group.
pub fn label_activity_kind(device: &str, label: &str) -> Option<ActivityKind> {
    if label == "power" {
        return Some(ActivityKind::Power);
    }
    let spec = catalog::by_name(device)?;
    // Labels look like `local_move` / `android_wan_on`; the activity name
    // is everything after the method prefix. Activity names may contain
    // underscores themselves (`local_door_open` → `door_open`), so
    // splitting on the last `_` would truncate them.
    let (_, activity) = split_interaction_label(label)?;
    spec.activity(activity).map(|a| a.kind)
}

/// Builds the labeled dataset for one device from its experiments. The
/// features are read from each capture's views; no packet is
/// materialized.
pub fn build_dataset(experiments: &[LabeledExperiment]) -> Dataset {
    let mut label_ids: HashMap<String, usize> = HashMap::new();
    let mut label_names: Vec<String> = Vec::new();
    for exp in experiments {
        if !label_ids.contains_key(&exp.label) {
            label_ids.insert(exp.label.clone(), label_names.len());
            label_names.push(exp.label.clone());
        }
    }
    let mut dataset = Dataset::new(label_names);
    for exp in experiments {
        let views = exp.capture.views().map(|v| {
            let v = v.expect("writer-clean capture");
            (v.ts_micros, v.data.len())
        });
        dataset.push(
            timing_features(exp.packet_count(), views),
            label_ids[&exp.label],
        );
    }
    dataset
}

/// A deployable model for §7: a forest trained on *all* of a device's
/// labeled data, gated by its cross-validation score.
#[derive(Debug)]
pub struct TrainedDeviceModel {
    /// Device name.
    pub device_name: &'static str,
    /// Label names, aligned with forest class ids.
    pub label_names: Vec<String>,
    /// The fitted forest.
    pub forest: RandomForest,
    /// Cross-validated macro F1 (the §7.1 gate).
    pub cv_macro_f1: f64,
    /// Per-label cross-validated F1.
    pub cv_f1_per_label: Vec<f64>,
}

impl TrainedDeviceModel {
    /// Predicts the label of a feature vector, with the vote share.
    pub fn predict(&self, features: &[f64]) -> (&str, f64) {
        let proba = self.forest.predict_proba(features);
        let (idx, share) = proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty classes");
        (&self.label_names[idx], *share)
    }

    /// Whether the model passes §7.1's F1 > 0.9 gate, the only models
    /// [`crate::unexpected::detect_activities`] applies. Callers check
    /// it before building a capture the model would never read.
    pub fn is_high_confidence(&self) -> bool {
        self.cv_macro_f1 > F1_HIGH_CONFIDENCE
    }

    /// Cross-validated F1 for a specific label.
    pub fn label_f1(&self, label: &str) -> Option<f64> {
        self.label_names
            .iter()
            .position(|l| l == label)
            .map(|i| self.cv_f1_per_label[i])
    }

    /// Fits the deployable forest on all of `dataset`, gated by the
    /// dataset's cross-validation `report`.
    pub fn fit(
        device_name: &'static str,
        dataset: &Dataset,
        report: &CrossValReport,
        forest: &RandomForestConfig,
    ) -> Self {
        TrainedDeviceModel {
            device_name,
            label_names: report.label_names.clone(),
            forest: RandomForest::fit(dataset, forest),
            cv_macro_f1: report.macro_f1,
            cv_f1_per_label: report.f1_per_class.clone(),
        }
    }
}

/// The activity-kind groups of a device's experiment `labels`, sorted and
/// deduplicated: a device's labels give Table 10's denominators, and its
/// inferrable labels ([`CrossValReport::inferrable_classes`]) its counts.
pub fn activity_kinds<'a>(
    device: &str,
    labels: impl IntoIterator<Item = &'a str>,
) -> Vec<ActivityKind> {
    let mut kinds: Vec<ActivityKind> = labels
        .into_iter()
        .filter_map(|label| label_activity_kind(device, label))
        .collect();
    kinds.sort();
    kinds.dedup();
    kinds
}

/// The §6.3 corpus of one device at one egress: its experiments from the
/// training campaign, as a labeled dataset.
pub fn device_dataset(
    db: &iot_geodb::registry::GeoDb,
    campaign: &Campaign,
    device: &DeviceInstance,
    vpn: bool,
) -> Dataset {
    let mut experiments = Vec::new();
    campaign.run_device(db, device, vpn, |exp| experiments.push(exp));
    build_dataset(&experiments)
}

/// Runs the §6.3 protocol for one device at one egress: generate its
/// experiment corpus, extract features, cross-validate, then fit the
/// deployable forest on all of it.
pub fn train_device_model(
    db: &iot_geodb::registry::GeoDb,
    campaign: &Campaign,
    device: &DeviceInstance,
    vpn: bool,
    config: &InferenceConfig,
) -> TrainedDeviceModel {
    let dataset = device_dataset(db, campaign, device, vpn);
    let report = cross_validate(&dataset, &config.forest, config.cv_repeats);
    TrainedDeviceModel::fit(device.spec().name, &dataset, &report, &config.forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_features;
    use iot_geodb::registry::GeoDb;
    use iot_ml::stats::STATS_PER_DISTRIBUTION;
    use iot_net::pcap::Capture;
    use iot_testbed::lab::{Lab, LabSite};
    use iot_testbed::schedule::CampaignConfig;

    fn quick_campaign() -> Campaign {
        Campaign::new(CampaignConfig {
            automated_reps: 12,
            manual_reps: 8,
            power_reps: 8,
            idle_hours: 0.2,
            include_vpn: false,
        })
    }

    #[test]
    fn camera_is_inferrable() {
        let db = GeoDb::new();
        let campaign = quick_campaign();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("Wansview Cam").unwrap();
        let model = train_device_model(&db, &campaign, dev, false, &InferenceConfig::quick());
        assert!(
            model.cv_macro_f1 > 0.6,
            "camera activities are distinctive, macro F1 {}",
            model.cv_macro_f1
        );
        // Power and video bursts must individually be recognizable.
        let inferrable = model
            .label_names
            .iter()
            .zip(&model.cv_f1_per_label)
            .filter(|&(_, &f1)| f1 > 0.6)
            .map(|(label, _)| label.as_str());
        let kinds = activity_kinds(model.device_name, inferrable);
        assert!(kinds.contains(&ActivityKind::Power), "{kinds:?}");
    }

    #[test]
    fn plug_on_off_confusable() {
        let db = GeoDb::new();
        let campaign = quick_campaign();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("TP-Link Plug").unwrap();
        let model = train_device_model(&db, &campaign, dev, false, &InferenceConfig::quick());
        // on vs off have identical traffic shapes: per-label F1 for the
        // actuation labels should be mediocre even if power is clean.
        let onoff_f1: Vec<f64> = model
            .label_names
            .iter()
            .zip(&model.cv_f1_per_label)
            .filter(|(l, _)| l.ends_with("_on") || l.ends_with("_off"))
            .map(|(_, &f)| f)
            .collect();
        assert!(!onoff_f1.is_empty());
        let mean = onoff_f1.iter().sum::<f64>() / onoff_f1.len() as f64;
        assert!(mean < 0.85, "on/off should be confusable, mean F1 {mean}");
    }

    #[test]
    fn label_kind_mapping() {
        assert_eq!(
            label_activity_kind("Wansview Cam", "power"),
            Some(ActivityKind::Power)
        );
        assert_eq!(
            label_activity_kind("Wansview Cam", "local_move"),
            Some(ActivityKind::Movement)
        );
        assert_eq!(
            label_activity_kind("Wansview Cam", "android_wan_record"),
            Some(ActivityKind::Video)
        );
        assert_eq!(label_activity_kind("Wansview Cam", "local_fly"), None);
        assert_eq!(label_activity_kind("Nonexistent", "local_on"), None);
    }

    #[test]
    fn label_kind_mapping_multi_segment_activity() {
        // `door_open` contains an underscore, so a last-`_` split would
        // look up the nonexistent activity `open` and report None.
        assert_eq!(
            label_activity_kind("Samsung Fridge", "local_door_open"),
            Some(ActivityKind::Other)
        );
    }

    #[test]
    fn dataset_built_per_label() {
        let db = GeoDb::new();
        let campaign = quick_campaign();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("Echo Dot").unwrap();
        let mut experiments = Vec::new();
        campaign.run_device(&db, dev, false, |e| experiments.push(e));
        let ds = build_dataset(&experiments);
        assert_eq!(ds.len(), experiments.len());
        assert!(ds.label_names.contains(&"power".to_string()));
        assert!(ds.label_names.contains(&"local_voice".to_string()));
        assert_eq!(ds.width(), crate::features::FEATURES_PER_SAMPLE);
    }

    /// Features read from views equal those of the materialized packets,
    /// including a snaplen-truncated record (its size is the captured
    /// length, not `orig_len`), a timestamp that runs backwards, and
    /// captures of one record and of none.
    #[test]
    fn dataset_from_views_matches_materialized_packets() {
        let frame = |len: usize| vec![0xa5u8; len];
        let mut mixed = Capture::new();
        mixed.push(1_000, &frame(60)).unwrap();
        mixed.push_record(4_500, 1_514, &frame(96)).unwrap();
        mixed.push(3_000, &frame(1_200)).unwrap();
        mixed.push(9_250, &frame(74)).unwrap();
        let mut single = Capture::new();
        single.push(7_000, &frame(342)).unwrap();
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Us);
        let template =
            iot_testbed::experiment::run_power(&db, lab.device("Echo Dot").unwrap(), false, 0, 0);
        let experiments: Vec<LabeledExperiment> = [
            ("mixed", mixed),
            ("single", single),
            ("empty", Capture::new()),
            ("mixed", template.capture.clone()),
        ]
        .into_iter()
        .map(|(label, capture)| LabeledExperiment {
            label: label.to_string(),
            capture,
            ..template.clone()
        })
        .collect();
        let ds = build_dataset(&experiments);
        assert_eq!(ds.label_names, ["mixed", "single", "empty"]);
        assert_eq!(ds.labels, [0, 1, 2, 0]);
        for (row, exp) in ds.features.iter().zip(&experiments) {
            let expected = extract_features(&exp.packets());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(row), bits(&expected), "{}", exp.label);
        }
        assert_eq!(ds.features[0][1], 1_200.0, "max size is a captured length");
        let iat_min = ds.features[0][STATS_PER_DISTRIBUTION];
        assert_eq!(iat_min, 0.0, "backwards timestamp");
    }

    #[test]
    fn trained_model_predicts_seen_patterns() {
        let db = GeoDb::new();
        let campaign = quick_campaign();
        let lab = Lab::deploy(LabSite::Us);
        let dev = lab.device("Ring Doorbell").unwrap();
        let model = train_device_model(&db, &campaign, dev, false, &InferenceConfig::quick());
        // A fresh capture of "watch" should predict a video-ish label.
        let spec = dev.spec();
        let act = spec.activity("watch").unwrap();
        let exp = iot_testbed::experiment::run_interaction(
            &db,
            dev,
            act,
            act.methods[0],
            false,
            99,
            0,
        );
        let (label, share) = model.predict(&extract_features(&exp.packets()));
        assert!(share > 0.3);
        assert!(
            label.ends_with("watch") || label.ends_with("record") || label.ends_with("move"),
            "predicted {label}"
        );
    }
}
