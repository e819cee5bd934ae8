//! Bootstrap-aggregated random forests (§6.3).
//!
//! A forest is fit from one column-major copy of its training rows: each
//! tree's bootstrap sample is a vector of row ids into it, not a copy of
//! the rows (see [`crate::tree`]).

use crate::dataset::{Columns, Dataset};
use crate::tree::{DecisionTree, TreeConfig};
use iot_core::rng::StdRng;

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Seed for bootstrap sampling and feature subsampling.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 30,
            max_depth: 12,
            min_samples_split: 2,
            seed: 0x5eed,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    pub(crate) trees: Vec<DecisionTree>,
    pub(crate) n_classes: usize,
}

impl RandomForest {
    /// Fits a forest: each tree sees a bootstrap resample of the data and
    /// √width candidate features per split.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, config: &RandomForestConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest to an empty dataset");
        let rows: Vec<usize> = (0..data.len()).collect();
        Self::fit_rows(&Columns::new(data), &rows, config)
    }

    /// Fits a forest to the rows `rows` of `columns`, as [`RandomForest::fit`]
    /// fits one to a dataset holding just those rows in that order.
    pub(crate) fn fit_rows(columns: &Columns, rows: &[usize], config: &RandomForestConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let max_features = (columns.width() as f64).sqrt().ceil() as usize;
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            max_features: Some(max_features.max(1)),
        };
        let mut sample = Vec::with_capacity(rows.len());
        let trees = (0..config.n_trees)
            .map(|_| {
                sample.clear();
                sample.extend((0..rows.len()).map(|_| rows[rng.gen_range(0..rows.len())]));
                DecisionTree::fit_rows(columns, &mut sample, &tree_config, &mut rng)
            })
            .collect();
        RandomForest {
            trees,
            n_classes: columns.n_classes(),
        }
    }

    /// Predicts by majority vote (ties break toward the lower class id).
    pub fn predict(&self, features: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(features)] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Fraction of trees voting for each class.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0f64; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(features)] += 1.0;
        }
        let n = self.trees.len() as f64;
        votes.iter_mut().for_each(|v| *v /= n);
        votes
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two Gaussian-ish blobs that a forest must separate.
    fn blobs(n_per_class: usize) -> Dataset {
        let mut d = Dataset::new(vec!["low".into(), "high".into()]);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..n_per_class {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            d.push(vec![x, y], 0);
            d.push(vec![x + 4.0, y + 4.0], 1);
        }
        d
    }

    #[test]
    fn separates_blobs() {
        let d = blobs(50);
        let forest = RandomForest::fit(&d, &RandomForestConfig::default());
        assert_eq!(forest.predict(&[0.0, 0.0]), 0);
        assert_eq!(forest.predict(&[4.0, 4.0]), 1);
    }

    #[test]
    fn proba_sums_to_one() {
        let d = blobs(30);
        let forest = RandomForest::fit(&d, &RandomForestConfig::default());
        let p = forest.predict_proba(&[2.0, 2.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn deterministic_for_seed() {
        let d = blobs(30);
        let cfg = RandomForestConfig::default();
        let f1 = RandomForest::fit(&d, &cfg);
        let f2 = RandomForest::fit(&d, &cfg);
        for row in &d.features {
            assert_eq!(f1.predict(row), f2.predict(row));
        }
    }

    #[test]
    fn different_seeds_may_differ_on_boundary() {
        let d = blobs(30);
        let f1 = RandomForest::fit(&d, &RandomForestConfig { seed: 1, ..Default::default() });
        let f2 = RandomForest::fit(&d, &RandomForestConfig { seed: 2, ..Default::default() });
        // Probabilities on a boundary point should not be byte-identical.
        let p1 = f1.predict_proba(&[2.0, 2.0]);
        let p2 = f2.predict_proba(&[2.0, 2.0]);
        assert!(p1 != p2 || f1.predict(&[1.9, 2.1]) == f2.predict(&[1.9, 2.1]));
    }

    #[test]
    fn n_trees_respected() {
        let d = blobs(10);
        let forest = RandomForest::fit(
            &d,
            &RandomForestConfig {
                n_trees: 7,
                ..Default::default()
            },
        );
        assert_eq!(forest.n_trees(), 7);
    }

    #[test]
    fn single_class_dataset_predicts_it() {
        let mut d = Dataset::new(vec!["only".into()]);
        for i in 0..10 {
            d.push(vec![f64::from(i)], 0);
        }
        let forest = RandomForest::fit(&d, &RandomForestConfig::default());
        assert_eq!(forest.predict(&[100.0]), 0);
    }
}
