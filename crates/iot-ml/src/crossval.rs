//! The paper's validation protocol: stratified 70/30 hold-out, repeated 10
//! times, metrics averaged across repeats (§6.3).
//!
//! One rank-coded, column-major copy of the dataset serves every repeat:
//! a train split is a vector of row ids into it, not a copy of the rows.
//!
//! The repeats run on `min(available_parallelism, repeats)` threads, the
//! calling thread one of them, which pull repeat indices from one
//! counter. Repeat `r` draws from generators seeded by `r` alone (split
//! `seed ^ r·0x9e37_79b9`, forest `seed ^ r`), and the per-repeat
//! confusion matrices are folded in ascending `r`, so the report is the
//! serial loop's bit for bit at any thread count. A panic inside a
//! repeat (a NaN feature's "non-finite feature") resurfaces with its own
//! payload.

use crate::dataset::{Columns, Dataset};
use crate::forest::{RandomForest, RandomForestConfig};
use crate::metrics::ConfusionMatrix;
use iot_core::rng::{SliceRandom, StdRng};
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Aggregated cross-validation results.
#[derive(Debug, Clone)]
pub struct CrossValReport {
    /// Class names, aligned with per-class vectors.
    pub label_names: Vec<String>,
    /// Mean per-class F1 across repeats.
    pub f1_per_class: Vec<f64>,
    /// Mean per-class support (test samples per repeat).
    pub support_per_class: Vec<f64>,
    /// Mean macro-F1 across repeats (the per-device score).
    pub macro_f1: f64,
    /// Mean accuracy across repeats.
    pub accuracy: f64,
    /// Number of repeats actually run.
    pub repeats: usize,
}

impl CrossValReport {
    /// Classes with F1 above `threshold` — "inferrable" activities.
    pub fn inferrable_classes(&self, threshold: f64) -> Vec<&str> {
        self.label_names
            .iter()
            .zip(&self.f1_per_class)
            .filter(|&(_, &f1)| f1 > threshold)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Splits sample indices stratified by class: `train_frac` of each class
/// into the train set, the rest into test. Classes with a single sample go
/// to the train set.
pub fn stratified_split(
    data: &Dataset,
    train_frac: f64,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); data.n_classes()];
    for (i, &l) in data.labels.iter().enumerate() {
        per_class[l].push(i);
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    for mut members in per_class {
        members.shuffle(rng);
        if members.len() < 2 {
            train.extend(members);
            continue;
        }
        // At least one sample on each side.
        let n_train = ((members.len() as f64 * train_frac).round() as usize)
            .clamp(1, members.len() - 1);
        train.extend_from_slice(&members[..n_train]);
        test.extend_from_slice(&members[n_train..]);
    }
    (train, test)
}

/// Runs the §6.3 protocol: `repeats` random stratified 70/30 splits, a
/// fresh forest per split, metrics averaged over repeats. The repeats
/// share the host's cores (see the module docs); the report does not
/// depend on how many there are.
pub fn cross_validate(
    data: &Dataset,
    config: &RandomForestConfig,
    repeats: usize,
) -> CrossValReport {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cross_validate_on(data, config, repeats, workers)
}

/// [`cross_validate`] on at most `workers` threads, the calling thread
/// one of them, so one worker spawns nothing.
pub(crate) fn cross_validate_on(
    data: &Dataset,
    config: &RandomForestConfig,
    repeats: usize,
    workers: usize,
) -> CrossValReport {
    assert!(repeats > 0, "need at least one repeat");
    let columns = Columns::new(data);
    // Hands out repeat indices; `Relaxed` suffices, since it publishes no
    // data: each result comes back through `join` or the caller's stack.
    let next = AtomicUsize::new(0);
    // Runs the next unclaimed repeat until none is left.
    let work = || {
        let mut done = Vec::new();
        loop {
            let r = next.fetch_add(1, Ordering::Relaxed);
            if r >= repeats {
                return done;
            }
            done.push((r, run_repeat(data, &columns, config, r)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(repeats)).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    // Folded in repeat order, the sums round as the serial loop's do.
    done.sort_unstable_by_key(|&(r, _)| r);

    let n_classes = data.n_classes();
    let mut f1_sum = vec![0.0f64; n_classes];
    let mut support_sum = vec![0.0f64; n_classes];
    let mut macro_sum = 0.0;
    let mut acc_sum = 0.0;
    let mut effective = 0usize;
    for cm in done.into_iter().filter_map(|(_, cm)| cm) {
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

/// Repeat `r`: its split, a forest fit to the train side, and the
/// confusion matrix over the test side; `None` when either side is empty.
pub(crate) fn run_repeat(
    data: &Dataset,
    columns: &Columns,
    config: &RandomForestConfig,
    r: usize,
) -> Option<ConfusionMatrix> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (r as u64).wrapping_mul(0x9e37_79b9));
    let (train_idx, test_idx) = stratified_split(data, 0.7, &mut rng);
    if train_idx.is_empty() || test_idx.is_empty() {
        return None;
    }
    let forest = RandomForest::fit_rows(
        columns,
        &train_idx,
        &RandomForestConfig {
            seed: config.seed ^ (r as u64),
            ..*config
        },
    );
    let mut cm = ConfusionMatrix::new(data.n_classes());
    for &i in &test_idx {
        cm.record(data.labels[i], forest.predict(&data.features[i]));
    }
    Some(cm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n_per_class: usize, n_classes: usize, noise: f64, seed: u64) -> Dataset {
        let names = (0..n_classes).map(|i| format!("class{i}")).collect();
        let mut d = Dataset::new(names);
        let mut rng = StdRng::seed_from_u64(seed);
        for c in 0..n_classes {
            for _ in 0..n_per_class {
                let base = c as f64 * 10.0;
                d.push(
                    vec![
                        base + rng.gen_range(-noise..noise),
                        base * 0.5 + rng.gen_range(-noise..noise),
                    ],
                    c,
                );
            }
        }
        d
    }

    #[test]
    fn separable_data_scores_high() {
        let d = separable(30, 3, 1.0, 1);
        let report = cross_validate(&d, &RandomForestConfig::default(), 10);
        assert!(report.macro_f1 > 0.95, "macro F1 {}", report.macro_f1);
        assert_eq!(report.repeats, 10);
        assert_eq!(report.inferrable_classes(0.75).len(), 3);
    }

    #[test]
    fn overlapping_data_scores_low() {
        // Same distribution for every class: F1 ≈ chance.
        let names = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        let mut d = Dataset::new(names);
        let mut rng = StdRng::seed_from_u64(2);
        for c in 0..4 {
            for _ in 0..30 {
                d.push(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)], c);
            }
        }
        let report = cross_validate(&d, &RandomForestConfig::default(), 10);
        assert!(report.macro_f1 < 0.5, "macro F1 {}", report.macro_f1);
        assert!(report.inferrable_classes(0.75).is_empty());
    }

    #[test]
    fn stratified_split_preserves_classes() {
        let d = separable(20, 4, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let (train, test) = stratified_split(&d, 0.7, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        let count = |rows: &[usize], c: usize| rows.iter().filter(|&&i| d.labels[i] == c).count();
        for c in 0..4 {
            assert_eq!(count(&train, c), 14, "class {c} train");
            assert_eq!(count(&test, c), 6, "class {c} test");
        }
    }

    #[test]
    fn singleton_class_goes_to_train() {
        let mut d = separable(10, 2, 0.5, 4);
        d.label_names.push("rare".into());
        d.push(vec![100.0, 50.0], 2);
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) = stratified_split(&d, 0.7, &mut rng);
        assert!(train.iter().any(|&i| d.labels[i] == 2));
        assert!(!test.iter().any(|&i| d.labels[i] == 2));
    }

    #[test]
    fn deterministic_for_seed() {
        let d = separable(20, 3, 2.0, 6);
        let cfg = RandomForestConfig::default();
        let a = cross_validate(&d, &cfg, 5);
        let b = cross_validate(&d, &cfg, 5);
        assert_eq!(a.macro_f1, b.macro_f1);
        assert_eq!(a.f1_per_class, b.f1_per_class);
    }

    #[test]
    fn support_reported() {
        let d = separable(20, 2, 1.0, 7);
        let report = cross_validate(&d, &RandomForestConfig::default(), 5);
        for &s in &report.support_per_class {
            assert!((s - 6.0).abs() < 1.5, "support {s}");
        }
    }
}
