//! Permutation feature importance.
//!
//! §6.3 justifies the feature set ("timing statistics … with respect to
//! packet sizes and inter-arrival times") by robustness across deployment
//! locations; permutation importance quantifies which of those statistics
//! a fitted forest actually relies on, and backs the feature ablation in
//! `iot-bench`'s `tables ablation`.

use crate::dataset::Dataset;
use crate::forest::RandomForest;
use crate::metrics::ConfusionMatrix;
use iot_core::rng::{SliceRandom, StdRng};

/// Importance of one feature: the macro-F1 drop when that feature's column
/// is randomly permuted across the evaluation set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureImportance {
    /// Feature index.
    pub feature: usize,
    /// Baseline macro F1 minus permuted macro F1 (higher = more relied on;
    /// near zero or negative = ignorable).
    pub f1_drop: f64,
}

fn macro_f1(forest: &RandomForest, data: &Dataset) -> f64 {
    let mut cm = ConfusionMatrix::new(data.n_classes());
    for (row, &label) in data.features.iter().zip(&data.labels) {
        cm.record(label, forest.predict(row));
    }
    cm.macro_f1()
}

/// Computes permutation importance for every feature over `data`,
/// averaging `repeats` permutations per feature. Results are sorted by
/// descending drop.
///
/// # Panics
/// Panics on an empty dataset.
pub fn permutation_importance(
    forest: &RandomForest,
    data: &Dataset,
    repeats: usize,
    seed: u64,
) -> Vec<FeatureImportance> {
    assert!(!data.is_empty(), "importance over empty dataset");
    let baseline = macro_f1(forest, data);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(data.width());
    for feature in 0..data.width() {
        let mut drop_sum = 0.0;
        for _ in 0..repeats.max(1) {
            let mut shuffled = data.clone();
            let mut column: Vec<f64> =
                shuffled.features.iter().map(|row| row[feature]).collect();
            column.shuffle(&mut rng);
            for (row, v) in shuffled.features.iter_mut().zip(column) {
                row[feature] = v;
            }
            drop_sum += baseline - macro_f1(forest, &shuffled);
        }
        out.push(FeatureImportance {
            feature,
            f1_drop: drop_sum / repeats.max(1) as f64,
        });
    }
    out.sort_by(|a, b| b.f1_drop.partial_cmp(&a.f1_drop).expect("finite"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestConfig;

    /// Class depends only on feature 0; feature 1 is noise.
    fn dataset() -> Dataset {
        let mut d = Dataset::new(vec!["low".into(), "high".into()]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..80 {
            let signal: f64 = rng.gen_range(0.0..1.0);
            let noise: f64 = rng.gen_range(0.0..1.0);
            d.push(vec![signal, noise], usize::from(signal > 0.5));
        }
        d
    }

    #[test]
    fn signal_feature_outranks_noise() {
        let d = dataset();
        let forest = RandomForest::fit(&d, &RandomForestConfig::default());
        let imp = permutation_importance(&forest, &d, 5, 1);
        assert_eq!(imp.len(), 2);
        assert_eq!(imp[0].feature, 0, "{imp:?}");
        assert!(imp[0].f1_drop > 0.2, "{imp:?}");
        assert!(imp[1].f1_drop.abs() < 0.15, "{imp:?}");
    }

    #[test]
    fn deterministic_for_seed() {
        let d = dataset();
        let forest = RandomForest::fit(&d, &RandomForestConfig::default());
        let a = permutation_importance(&forest, &d, 3, 9);
        let b = permutation_importance(&forest, &d, 3, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        let d = Dataset::new(vec!["x".into()]);
        // A forest cannot be fit on empty data either; fabricate via a
        // one-row dataset, then importance over the empty one.
        let mut one = Dataset::new(vec!["x".into()]);
        one.push(vec![1.0], 0);
        let forest = RandomForest::fit(&one, &RandomForestConfig::default());
        permutation_importance(&forest, &d, 1, 0);
    }
}
