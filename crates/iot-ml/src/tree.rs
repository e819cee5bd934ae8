//! CART decision trees with Gini impurity.
//!
//! Induction reads a rank-coded, column-major copy of the training data
//! (`dataset::Columns`) through a slice of row ids, so a bootstrap
//! sample or a train split is a row-id vector rather than a copy of the
//! rows. Split search sorts one 8-byte key per row, `rank << 32 |
//! label`, with a plain integer sort: rows of equal value share a rank,
//! and the threshold between two ranks is the midpoint of their stored
//! values. Children grow on an in-place stable partition of their
//! parent's row ids by `value <= threshold`, and each tree reuses one
//! set of scratch buffers at every node. The splits chosen are exactly
//! those of sorting each node's row copies by value: the same random
//! draws happen in the same order, a NaN panics where that sort compared
//! it, and every shortcut below provably leaves the chosen split
//! unchanged (DESIGN §13).

use crate::dataset::{Columns, Dataset, NAN_RANK};
use iot_core::rng::{SliceRandom, StdRng};

/// A node of a fitted tree.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Internal split: go left when `features[feature] <= threshold`.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf predicting a class.
    Leaf { class: usize },
}

/// Hyperparameters for tree induction.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 16,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

/// A fitted CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fits a tree to `data`. `rng` drives feature subsampling (pass a
    /// seeded RNG for determinism).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, config: &TreeConfig, rng: &mut StdRng) -> Self {
        assert!(!data.is_empty(), "cannot fit a tree to an empty dataset");
        let mut rows: Vec<usize> = (0..data.len()).collect();
        Self::fit_rows(&Columns::new(data), &mut rows, config, rng)
    }

    /// Fits a tree to the rows `rows` of `columns`; a row id may repeat,
    /// as in a bootstrap sample. Leaves `rows` reordered.
    pub(crate) fn fit_rows(
        columns: &Columns,
        rows: &mut [usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        let n_classes = columns.n_classes();
        let mut grower = Grower {
            columns,
            config,
            nodes: Vec::new(),
            candidates: Vec::with_capacity(columns.width()),
            keys: Vec::with_capacity(rows.len()),
            counts: vec![0; n_classes],
            present: Vec::with_capacity(n_classes),
            left: vec![0; n_classes],
            right: vec![0; n_classes],
            spill: Vec::with_capacity(rows.len()),
        };
        grower.grow(rows, 0, rng);
        DecisionTree {
            nodes: grower.nodes,
        }
    }

    /// Predicts the class of one feature row.
    pub fn predict(&self, features: &[f64]) -> usize {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// One tree's induction state: the nodes grown so far and the scratch
/// buffers every node reuses.
struct Grower<'a> {
    columns: &'a Columns<'a>,
    config: &'a TreeConfig,
    nodes: Vec<Node>,
    /// The node's candidate features.
    candidates: Vec<usize>,
    /// The node's `rank << 32 | label` keys for one feature, sorted.
    keys: Vec<u64>,
    /// The node's class counts.
    counts: Vec<usize>,
    /// The classes present in the node, ascending.
    present: Vec<usize>,
    /// Class counts left and right of the scanned threshold.
    left: Vec<usize>,
    right: Vec<usize>,
    /// Right-hand row ids during a partition.
    spill: Vec<usize>,
}

impl Grower<'_> {
    /// Grows the subtree for `rows` depth-first, left before right;
    /// returns its node index.
    fn grow(&mut self, rows: &mut [usize], depth: usize, rng: &mut StdRng) -> usize {
        self.counts.fill(0);
        for &r in rows.iter() {
            self.counts[self.columns.label(r)] += 1;
        }
        self.present.clear();
        self.present
            .extend((0..self.counts.len()).filter(|&c| self.counts[c] > 0));
        let majority = argmax(&self.counts);
        let leaf = self.present.len() <= 1
            || depth >= self.config.max_depth
            || rows.len() < self.config.min_samples_split;
        let split = if leaf {
            None
        } else {
            self.best_split(rows, rng)
        };
        let node = self.nodes.len();
        // A split node's slot is reserved before its children grow.
        self.nodes.push(Node::Leaf { class: majority });
        if let Some((feature, threshold)) = split {
            let n_left = self.partition(rows, feature, threshold);
            let (left_rows, right_rows) = rows.split_at_mut(n_left);
            let left = self.grow(left_rows, depth + 1, rng);
            let right = self.grow(right_rows, depth + 1, rng);
            self.nodes[node] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
        }
        node
    }

    /// Finds the (feature, threshold) minimizing weighted Gini impurity
    /// over a random subset of features, given the node's `counts` and
    /// `present` classes. Returns `None` when no split separates the rows.
    fn best_split(&mut self, rows: &[usize], rng: &mut StdRng) -> Option<(usize, f64)> {
        let Grower {
            columns,
            config,
            candidates,
            keys,
            counts,
            present,
            left,
            right,
            ..
        } = self;
        let width = columns.width();
        candidates.clear();
        candidates.extend(0..width);
        if let Some(k) = config.max_features {
            candidates.shuffle(rng);
            candidates.truncate(k.max(1).min(width));
        }
        // Tie-break deterministically but without bias toward low feature ids.
        let jitter: u64 = rng.gen();

        let total = rows.len();
        let n = total as f64;
        let node_squares: usize = present.iter().map(|&c| counts[c] * counts[c]).sum();
        let mut best: Option<(f64, usize, f64)> = None;
        for &f in candidates.iter() {
            let (ranks, values) = (columns.ranks(f), columns.values(f));
            keys.clear();
            keys.extend(
                rows.iter()
                    .map(|&r| (u64::from(ranks[r]) << 32) | columns.label(r) as u64),
            );
            // Equal ranks may land in any order: a split is only scored
            // between distinct ranks, where the left side is the same set.
            keys.sort_unstable();
            // NaN's rank sorts last, and a sort by value would have
            // compared it.
            if keys[total - 1] >> 32 == u64::from(NAN_RANK) {
                panic!("non-finite feature");
            }
            // Only the present classes' slots are read below.
            for &c in present.iter() {
                left[c] = 0;
                right[c] = counts[c];
            }
            // Sums of squared class counts on each side.
            let (mut left_squares, mut right_squares) = (0usize, node_squares);
            for w in 0..total - 1 {
                let label = keys[w] as u32 as usize;
                left_squares += 2 * left[label] + 1;
                left[label] += 1;
                right[label] -= 1;
                right_squares -= 2 * right[label] + 1;
                let (rank, next) = (keys[w] >> 32, keys[w + 1] >> 32);
                if rank == next {
                    continue; // cannot split between equal values
                }
                let n_left = w + 1;
                let n_right = total - n_left;
                if let Some((s, _, _)) = best {
                    // The weighted Gini is (n − Σl²/n_left − Σr²/n_right) / n;
                    // from integer sums this is within 1e-13 of the exact
                    // score, so a candidate this far above the best cannot
                    // come within the 1e-12 tie rule.
                    let bound = (n
                        - left_squares as f64 / n_left as f64
                        - right_squares as f64 / n_right as f64)
                        / n;
                    if bound > s + 1e-9 {
                        continue;
                    }
                }
                let score = (n_left as f64 * gini(left, present, n_left)
                    + n_right as f64 * gini(right, present, n_right))
                    / n;
                let better = match best {
                    None => true,
                    Some((s, bf, _)) => {
                        score < s - 1e-12
                            || (score < s + 1e-12 && (f ^ jitter as usize) < (bf ^ jitter as usize))
                    }
                };
                if better {
                    let (v, v_next) = (values[rank as usize], values[next as usize]);
                    best = Some((score, f, (v + v_next) / 2.0));
                }
            }
        }
        // Accept any split that does not increase impurity: zero-gain splits
        // are required to eventually separate XOR-like interactions (both
        // children are strictly smaller, and depth is bounded).
        let parent = gini(counts, present, total);
        best.filter(|&(score, _, _)| score <= parent + 1e-12)
            .map(|(_, f, t)| (f, t))
    }

    /// Stable in-place partition of `rows` by `feature <= threshold`: left
    /// rows first, each side in its original order. Returns the left count.
    /// It compares values, not ranks: the midpoint of two adjacent floats
    /// can round onto the upper one, which then goes left. No row here is
    /// NaN in `feature`, or `best_split` would have panicked.
    fn partition(&mut self, rows: &mut [usize], feature: usize, threshold: f64) -> usize {
        let (ranks, values) = (self.columns.ranks(feature), self.columns.values(feature));
        self.spill.clear();
        let mut n_left = 0;
        for i in 0..rows.len() {
            let r = rows[i];
            if values[ranks[r] as usize] <= threshold {
                rows[n_left] = r;
                n_left += 1;
            } else {
                self.spill.push(r);
            }
        }
        rows[n_left..].copy_from_slice(&self.spill);
        n_left
    }
}

/// The last class with the highest count (0 when there are no classes).
fn argmax(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Gini impurity of `counts` over `total` rows. Only the `present`
/// classes (ascending) are summed: an absent class adds exactly `+0.0`,
/// which leaves any sum of squares unchanged.
fn gini(counts: &[usize], present: &[usize], total: usize) -> f64 {
    let t = total as f64;
    1.0 - present
        .iter()
        .map(|&c| {
            let p = counts[c] as f64 / t;
            p * p
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn xor_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for _ in 0..5 {
            d.push(vec![0.0, 0.0], 0);
            d.push(vec![1.0, 1.0], 0);
            d.push(vec![0.0, 1.0], 1);
            d.push(vec![1.0, 0.0], 1);
        }
        d
    }

    #[test]
    fn fits_linearly_separable() {
        let mut d = Dataset::new(vec!["small".into(), "large".into()]);
        for i in 0..20 {
            d.push(vec![f64::from(i)], usize::from(i >= 10));
        }
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[3.0]), 0);
        assert_eq!(tree.predict(&[15.0]), 1);
    }

    #[test]
    fn fits_xor() {
        let d = xor_dataset();
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
    }

    #[test]
    fn perfect_training_accuracy_on_distinct_points() {
        let d = xor_dataset();
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        let correct = d
            .features
            .iter()
            .zip(&d.labels)
            .filter(|(f, &l)| tree.predict(f) == l)
            .count();
        assert_eq!(correct, d.len());
    }

    #[test]
    fn depth_zero_is_majority_classifier() {
        let d = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&d, &cfg, &mut rng());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn identical_features_yield_single_leaf() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(vec![1.0, 1.0], i % 2);
        }
        let tree = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.node_count(), 1, "no split possible on constant data");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = xor_dataset();
        let t1 = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        let t2 = DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
        for row in &d.features {
            assert_eq!(t1.predict(row), t2.predict(row));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        let d = Dataset::new(vec!["a".into()]);
        DecisionTree::fit(&d, &TreeConfig::default(), &mut rng());
    }
}
