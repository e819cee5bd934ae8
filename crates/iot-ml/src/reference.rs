//! The row-copying induction that the column-view induction replaced,
//! kept unchanged as the reference the property tests below compare
//! against: every bootstrap sample and train split is a cloned
//! [`Dataset`], and every node re-sorts freshly allocated index vectors.
//! The column-view code must grow the same trees node for node, consume
//! the same random draws, and produce the same cross-validation reports
//! bit for bit.

use crate::crossval::{stratified_split, CrossValReport};
use crate::dataset::Dataset;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::metrics::ConfusionMatrix;
use crate::tree::{DecisionTree, Node, TreeConfig};
use iot_core::rng::{SliceRandom, StdRng};

/// Rows `indices` of `data`, cloned.
fn subset(data: &Dataset, indices: &[usize]) -> Dataset {
    Dataset {
        features: indices.iter().map(|&i| data.features[i].clone()).collect(),
        labels: indices.iter().map(|&i| data.labels[i]).collect(),
        label_names: data.label_names.clone(),
    }
}

fn fit_tree(data: &Dataset, config: &TreeConfig, rng: &mut StdRng) -> DecisionTree {
    assert!(!data.is_empty(), "cannot fit a tree to an empty dataset");
    let mut nodes = Vec::new();
    let indices: Vec<usize> = (0..data.len()).collect();
    grow(&mut nodes, data, &indices, config, 0, rng);
    DecisionTree { nodes }
}

fn grow(
    nodes: &mut Vec<Node>,
    data: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
) -> usize {
    let counts = class_counts(data, indices, data.n_classes());
    let majority = argmax(&counts);
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || depth >= config.max_depth || indices.len() < config.min_samples_split {
        nodes.push(Node::Leaf { class: majority });
        return nodes.len() - 1;
    }
    match best_split(data, indices, config, rng) {
        None => {
            nodes.push(Node::Leaf { class: majority });
            nodes.len() - 1
        }
        Some((feature, threshold)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| data.features[i][feature] <= threshold);
            let node_index = nodes.len();
            nodes.push(Node::Leaf { class: majority }); // placeholder
            let left = grow(nodes, data, &left_idx, config, depth + 1, rng);
            let right = grow(nodes, data, &right_idx, config, depth + 1, rng);
            nodes[node_index] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            node_index
        }
    }
}

fn class_counts(data: &Dataset, indices: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &i in indices {
        counts[data.labels[i]] += 1;
    }
    counts
}

fn argmax(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn best_split(
    data: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut StdRng,
) -> Option<(usize, f64)> {
    let width = data.width();
    let n_classes = data.n_classes();
    let mut features: Vec<usize> = (0..width).collect();
    if let Some(k) = config.max_features {
        features.shuffle(rng);
        features.truncate(k.max(1).min(width));
    }
    let jitter: u64 = rng.gen();

    let mut best: Option<(f64, usize, f64)> = None;
    for &f in &features {
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| {
            data.features[a][f]
                .partial_cmp(&data.features[b][f])
                .expect("non-finite feature")
        });
        let total = order.len();
        let mut left_counts = vec![0usize; n_classes];
        let mut right_counts = class_counts(data, indices, n_classes);
        for w in 0..total - 1 {
            let i = order[w];
            left_counts[data.labels[i]] += 1;
            right_counts[data.labels[i]] -= 1;
            let v = data.features[i][f];
            let v_next = data.features[order[w + 1]][f];
            if v == v_next {
                continue;
            }
            let n_left = w + 1;
            let n_right = total - n_left;
            let score = (n_left as f64 * gini(&left_counts, n_left)
                + n_right as f64 * gini(&right_counts, n_right))
                / total as f64;
            let better = match best {
                None => true,
                Some((s, bf, _)) => {
                    score < s - 1e-12
                        || (score < s + 1e-12 && (f ^ jitter as usize) < (bf ^ jitter as usize))
                }
            };
            if better {
                best = Some((score, f, (v + v_next) / 2.0));
            }
        }
    }
    let parent = gini(&class_counts(data, indices, n_classes), indices.len());
    best.filter(|&(score, _, _)| score <= parent + 1e-12)
        .map(|(_, f, t)| (f, t))
}

fn fit_forest(data: &Dataset, config: &RandomForestConfig) -> RandomForest {
    assert!(!data.is_empty(), "cannot fit a forest to an empty dataset");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let max_features = (data.width() as f64).sqrt().ceil() as usize;
    let tree_config = TreeConfig {
        max_depth: config.max_depth,
        min_samples_split: config.min_samples_split,
        max_features: Some(max_features.max(1)),
    };
    let trees = (0..config.n_trees)
        .map(|_| {
            let sample: Vec<usize> = (0..data.len())
                .map(|_| rng.gen_range(0..data.len()))
                .collect();
            let boot = subset(data, &sample);
            fit_tree(&boot, &tree_config, &mut rng)
        })
        .collect();
    RandomForest {
        trees,
        n_classes: data.n_classes(),
    }
}

fn cross_validate(data: &Dataset, config: &RandomForestConfig, repeats: usize) -> CrossValReport {
    assert!(repeats > 0, "need at least one repeat");
    let n_classes = data.n_classes();
    let mut f1_sum = vec![0.0f64; n_classes];
    let mut support_sum = vec![0.0f64; n_classes];
    let mut macro_sum = 0.0;
    let mut acc_sum = 0.0;
    let mut effective = 0usize;
    for r in 0..repeats {
        let mut rng = StdRng::seed_from_u64(config.seed ^ (r as u64).wrapping_mul(0x9e37_79b9));
        let (train_idx, test_idx) = stratified_split(data, 0.7, &mut rng);
        if train_idx.is_empty() || test_idx.is_empty() {
            continue;
        }
        let train = subset(data, &train_idx);
        let forest = fit_forest(
            &train,
            &RandomForestConfig {
                seed: config.seed ^ (r as u64),
                ..*config
            },
        );
        let mut cm = ConfusionMatrix::new(n_classes);
        for &i in &test_idx {
            cm.record(data.labels[i], forest.predict(&data.features[i]));
        }
        for c in 0..n_classes {
            f1_sum[c] += cm.f1(c);
            support_sum[c] += cm.support(c) as f64;
        }
        macro_sum += cm.macro_f1();
        acc_sum += cm.accuracy();
        effective += 1;
    }
    let n = effective.max(1) as f64;
    CrossValReport {
        label_names: data.label_names.clone(),
        f1_per_class: f1_sum.iter().map(|s| s / n).collect(),
        support_per_class: support_sum.iter().map(|s| s / n).collect(),
        macro_f1: macro_sum / n,
        accuracy: acc_sum / n,
        repeats: effective,
    }
}

/// Seeded property tests, in the style of `tests/prop_ml.rs`.
mod prop {
    use super::*;
    use crate::crossval;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const CASES: usize = 64;

    /// Values that stress the split rules: signed zeros (equal, so never
    /// split apart), adjacent floats whose midpoint rounds onto the upper
    /// one (a right child can be empty), pairs whose midpoint overflows
    /// to infinity, and plain values.
    const PALETTE: [f64; 9] = [
        -0.0,
        0.0,
        1.0,
        1.0 + f64::EPSILON,
        1.0 + 2.0 * f64::EPSILON,
        -2.5,
        1e308,
        -1e308,
        7.0,
    ];

    /// A dataset with 1–12 classes (the last, when there are several,
    /// with a single member), widths 1–30, columns that are continuous,
    /// drawn from [`PALETTE`] (runs of equal values), or constant, and
    /// repeated rows.
    fn random_dataset(rng: &mut StdRng) -> Dataset {
        let n_classes = rng.gen_range(1usize..13);
        let width = rng.gen_range(1usize..31);
        let n_rows = rng.gen_range(1usize..48);
        // 0 = continuous, 1 = palette, 2 = constant.
        let kinds: Vec<u32> = (0..width).map(|_| rng.gen_range(0u32..3)).collect();
        let mut d = Dataset::new((0..n_classes).map(|i| format!("c{i}")).collect());
        let common = n_classes.saturating_sub(1).max(1);
        for _ in 0..n_rows {
            if !d.is_empty() && rng.gen_bool(0.2) {
                let j = rng.gen_range(0..d.len());
                let row = d.features[j].clone();
                let label = if rng.gen_bool(0.5) {
                    d.labels[j]
                } else {
                    rng.gen_range(0..common)
                };
                d.push(row, label);
                continue;
            }
            let row = kinds
                .iter()
                .map(|kind| match kind {
                    0 => rng.gen_range(-100.0f64..100.0),
                    1 => PALETTE[rng.gen_range(0..PALETTE.len())],
                    _ => 3.0,
                })
                .collect();
            d.push(row, rng.gen_range(0..common));
        }
        if n_classes > 1 {
            let row = d.features[rng.gen_range(0..d.len())].clone();
            d.push(row, n_classes - 1);
        }
        d
    }

    fn random_tree_config(rng: &mut StdRng, width: usize) -> TreeConfig {
        TreeConfig {
            max_depth: rng.gen_range(0usize..20),
            min_samples_split: rng.gen_range(0usize..6),
            max_features: if rng.gen_bool(0.5) {
                None
            } else {
                Some(rng.gen_range(0..width + 3))
            },
        }
    }

    fn random_forest_config(rng: &mut StdRng) -> RandomForestConfig {
        RandomForestConfig {
            n_trees: rng.gen_range(1usize..6),
            max_depth: rng.gen_range(0usize..16),
            min_samples_split: rng.gen_range(0usize..6),
            seed: rng.gen(),
        }
    }

    /// Feature, threshold bits, children and leaf class of every node.
    fn shape(tree: &DecisionTree) -> Vec<(usize, u64, usize, usize)> {
        tree.nodes
            .iter()
            .map(|node| match *node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature, threshold.to_bits(), left, right),
                Node::Leaf { class } => (usize::MAX, 0, class, 0),
            })
            .collect()
    }

    fn forest_shape(forest: &RandomForest) -> Vec<Vec<(usize, u64, usize, usize)>> {
        forest.trees.iter().map(shape).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_reports_equal(a: &CrossValReport, b: &CrossValReport, case: usize) {
        assert_eq!(a.label_names, b.label_names, "case {case}");
        assert_eq!(bits(&a.f1_per_class), bits(&b.f1_per_class), "case {case}");
        assert_eq!(
            bits(&a.support_per_class),
            bits(&b.support_per_class),
            "case {case}"
        );
        assert_eq!(a.macro_f1.to_bits(), b.macro_f1.to_bits(), "case {case}");
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "case {case}");
        assert_eq!(a.repeats, b.repeats, "case {case}");
    }

    #[test]
    fn tree_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xC001);
        for case in 0..CASES {
            let d = random_dataset(&mut rng);
            let cfg = random_tree_config(&mut rng, d.width());
            let seed: u64 = rng.gen();
            let (mut new_rng, mut ref_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let new = DecisionTree::fit(&d, &cfg, &mut new_rng);
            let reference = fit_tree(&d, &cfg, &mut ref_rng);
            assert_eq!(shape(&new), shape(&reference), "case {case}: {cfg:?}");
            assert_eq!(new_rng.next_u64(), ref_rng.next_u64(), "case {case}: rng");
        }
    }

    #[test]
    fn forest_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xC002);
        for case in 0..CASES {
            let d = random_dataset(&mut rng);
            let cfg = random_forest_config(&mut rng);
            let new = RandomForest::fit(&d, &cfg);
            let reference = fit_forest(&d, &cfg);
            assert_eq!(new.n_classes, reference.n_classes);
            assert_eq!(forest_shape(&new), forest_shape(&reference), "case {case}");
        }
    }

    #[test]
    fn cross_validation_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xC003);
        for case in 0..CASES {
            let d = random_dataset(&mut rng);
            let cfg = random_forest_config(&mut rng);
            let repeats = rng.gen_range(1usize..5);
            let new = crossval::cross_validate(&d, &cfg, repeats);
            let reference = cross_validate(&d, &cfg, repeats);
            assert_reports_equal(&new, &reference, case);
        }
    }

    /// The panic message of a caught unwind.
    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// At 1, 2, 3 and `repeats + 1` workers, cross-validation reports the
    /// serial reference's figures bit for bit, and on every other case,
    /// which holds one NaN, it panics with "non-finite feature" exactly
    /// when the reference does, whichever repeat meets the NaN.
    #[test]
    fn parallel_repeats_match_reference_at_every_worker_count() {
        let mut rng = StdRng::seed_from_u64(0xC005);
        let (mut panicked, mut only_later_repeats) = (0, 0);
        for case in 0..CASES {
            let mut d = random_dataset(&mut rng);
            let cfg = random_forest_config(&mut rng);
            let repeats = rng.gen_range(1usize..6);
            if case % 2 == 1 {
                let (row, col) = (rng.gen_range(0..d.len()), rng.gen_range(0..d.width()));
                d.features[row][col] = f64::NAN;
            }
            let reference = catch_unwind(AssertUnwindSafe(|| cross_validate(&d, &cfg, repeats)));
            if reference.is_err() {
                panicked += 1;
                let columns = crate::dataset::Columns::new(&d);
                let meets = |r| {
                    catch_unwind(AssertUnwindSafe(|| {
                        crossval::run_repeat(&d, &columns, &cfg, r)
                    }))
                    .is_err()
                };
                if !meets(0) {
                    only_later_repeats += 1;
                }
            }
            for workers in [1, 2, 3, repeats + 1] {
                let new = catch_unwind(AssertUnwindSafe(|| {
                    crossval::cross_validate_on(&d, &cfg, repeats, workers)
                }));
                match (new, &reference) {
                    (Ok(a), Ok(b)) => assert_reports_equal(&a, b, case),
                    (Err(payload), Err(_)) => {
                        let msg = message(payload.as_ref());
                        assert!(msg.contains("non-finite feature"), "case {case}: {msg}");
                    }
                    (new, _) => panic!(
                        "case {case}, {workers} workers: new panicked {}, reference panicked {}",
                        new.is_err(),
                        reference.is_err()
                    ),
                }
            }
        }
        assert!(panicked > CASES / 8, "only {panicked} NaN cases panicked");
        assert!(only_later_repeats > 0, "no NaN met only by a later repeat");
    }

    /// A NaN feature panics with "non-finite feature" exactly when the
    /// reference does, in trees and forests alike.
    #[test]
    fn nan_panics_where_reference_panics() {
        let mut rng = StdRng::seed_from_u64(0xC004);
        let mut panicked = 0;
        for case in 0..CASES {
            let mut d = random_dataset(&mut rng);
            let (row, col) = (rng.gen_range(0..d.len()), rng.gen_range(0..d.width()));
            d.features[row][col] = f64::NAN;
            let tree_cfg = random_tree_config(&mut rng, d.width());
            let forest_cfg = random_forest_config(&mut rng);
            let seed: u64 = rng.gen();
            let tree = |fit: fn(&Dataset, &TreeConfig, &mut StdRng) -> DecisionTree| {
                catch_unwind(AssertUnwindSafe(|| {
                    vec![shape(&fit(&d, &tree_cfg, &mut StdRng::seed_from_u64(seed)))]
                }))
            };
            let forest = |fit: fn(&Dataset, &RandomForestConfig) -> RandomForest| {
                catch_unwind(AssertUnwindSafe(|| forest_shape(&fit(&d, &forest_cfg))))
            };
            let outcomes = [
                (tree(DecisionTree::fit), tree(fit_tree)),
                (forest(RandomForest::fit), forest(fit_forest)),
            ];
            for (new, reference) in outcomes {
                match (new, reference) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}"),
                    (Err(a), Err(b)) => {
                        for payload in [a, b] {
                            let msg = payload
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_default();
                            assert!(msg.contains("non-finite feature"), "case {case}: {msg}");
                        }
                        panicked += 1;
                    }
                    (a, b) => panic!(
                        "case {case}: new panicked {}, reference panicked {}",
                        a.is_err(),
                        b.is_err()
                    ),
                }
            }
        }
        assert!(panicked > CASES / 4, "only {panicked} NaN cases panicked");
    }
}
