//! Labeled feature matrices, and the rank-coded column copy that tree
//! induction reads.
//!
//! A [`Dataset`] is row-major, as features are extracted. Induction
//! reads `Columns`, built once per fit or cross-validation call: per
//! feature, each row's dense rank under the `partial_cmp` order and each
//! rank's value, so split search sorts integers and still takes its
//! thresholds from values (DESIGN §13, "Forest induction over row ids").

/// A labeled dataset: row-major feature matrix plus integer class labels.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows; all rows share the same width.
    pub features: Vec<Vec<f64>>,
    /// Class label per row, indexing [`Dataset::label_names`].
    pub labels: Vec<usize>,
    /// Human-readable class names.
    pub label_names: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with the given class names.
    pub fn new(label_names: Vec<String>) -> Self {
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            label_names,
        }
    }

    /// Appends one labeled sample.
    ///
    /// # Panics
    /// Panics if the label is out of range or the row width differs from
    /// existing rows.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        assert!(label < self.label_names.len(), "label {label} out of range");
        if let Some(first) = self.features.first() {
            assert_eq!(first.len(), features.len(), "inconsistent feature width");
        }
        self.features.push(features);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features per sample (0 when empty).
    pub fn width(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.label_names.len()
    }

    /// Samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

/// The rank [`Columns`] gives a NaN: above every real rank, so a sorted
/// run of keys ends with it, and never an index into a rank's values.
pub(crate) const NAN_RANK: u32 = u32::MAX;

/// A column-major, rank-coded copy of a [`Dataset`] for tree induction.
/// Per feature it holds two tables: each row's dense rank under the
/// feature's `partial_cmp` order, and the value of each rank. Equal
/// values share a rank (`-0.0` and `0.0` included), ranks run from 0
/// without gaps, and a NaN gets [`NAN_RANK`]. Split search sorts integer
/// keys built from ranks, and a split's threshold is still the midpoint
/// of two values. Built once per fit or cross-validation call, so
/// bootstrap samples and train splits are row-id vectors instead of
/// copies of the rows.
pub(crate) struct Columns<'a> {
    /// `ranks[f * rows + r]` is the rank of feature `f` of row `r`.
    ranks: Vec<u32>,
    /// `values[starts[f] + k]` is the value of feature `f`'s rank `k`.
    values: Vec<f64>,
    /// Where each feature's values begin in `values`, then the total.
    starts: Vec<usize>,
    labels: &'a [usize],
    n_classes: usize,
    width: usize,
}

impl<'a> Columns<'a> {
    /// Ranks every column of `data`.
    ///
    /// # Panics
    /// Panics when a row count or a class id would not fit a key's 32
    /// bits (see [`crate::tree`]).
    pub(crate) fn new(data: &'a Dataset) -> Self {
        let (rows, width) = (data.len(), data.width());
        assert!(
            rows < NAN_RANK as usize && data.n_classes() <= u32::MAX as usize,
            "dataset too large to rank"
        );
        let mut ranks = vec![NAN_RANK; width * rows];
        // At most one value per cell: one allocation, as large as a plain
        // column copy, where growing by pushes would allocate about twice.
        let mut values = Vec::with_capacity(width * rows);
        let mut starts = Vec::with_capacity(width + 1);
        let mut order = Vec::with_capacity(rows);
        for f in 0..width {
            let start = values.len();
            starts.push(start);
            let value = |r: usize| data.features[r][f];
            order.clear();
            order.extend((0..rows).filter(|&r| !value(r).is_nan()));
            // Off NaN, `total_cmp` is the `partial_cmp` order except that
            // it puts `-0.0` just below `0.0`; `!=` merges the two.
            order.sort_unstable_by(|&a, &b| value(a).total_cmp(&value(b)));
            let column = &mut ranks[f * rows..(f + 1) * rows];
            for &r in &order {
                let v = value(r);
                if values.len() == start || values[values.len() - 1] != v {
                    values.push(v);
                }
                column[r] = (values.len() - 1 - start) as u32;
            }
        }
        starts.push(values.len());
        Columns {
            ranks,
            values,
            starts,
            labels: &data.labels,
            n_classes: data.n_classes(),
            width,
        }
    }

    /// Feature `f`'s rank of every row, indexed by row id.
    pub(crate) fn ranks(&self, f: usize) -> &[u32] {
        let rows = self.labels.len();
        &self.ranks[f * rows..(f + 1) * rows]
    }

    /// Feature `f`'s value of every rank, ascending.
    pub(crate) fn values(&self, f: usize) -> &[f64] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }

    /// The label of row `r`.
    pub(crate) fn label(&self, r: usize) -> usize {
        self.labels[r]
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["on".into(), "off".into()]);
        d.push(vec![1.0, 2.0], 0);
        d.push(vec![3.0, 4.0], 1);
        d.push(vec![5.0, 6.0], 1);
        d
    }

    #[test]
    fn basic_accessors() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.width(), 2);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(), vec![1, 2]);
        assert!(!d.is_empty());
    }

    #[test]
    fn columns_address_ranks_by_row() {
        let d = sample();
        let c = Columns::new(&d);
        assert_eq!(c.width(), 2);
        assert_eq!(c.n_classes(), 2);
        assert_eq!(c.ranks(0), &[0, 1, 2]);
        assert_eq!(c.values(0), &[1.0, 3.0, 5.0]);
        assert_eq!(c.values(1), &[2.0, 4.0, 6.0]);
        assert_eq!((0..3).map(|r| c.label(r)).collect::<Vec<_>>(), d.labels);
    }

    /// The rank tables of one column per case: signed zeros, adjacent
    /// floats, the extremes, a constant column and NaN.
    #[test]
    fn rank_tables_follow_the_partial_order() {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let columns: [(&[f64], &[u32], &[f64]); 5] = [
            (&[0.0, -0.0, 2.0, -0.0], &[0, 0, 1, 0], &[0.0, 2.0]),
            (
                &[up(1.0), 1.0, up(up(1.0))],
                &[1, 0, 2],
                &[1.0, up(1.0), up(up(1.0))],
            ),
            (
                &[1e308, -1e308, 0.0, f64::MAX, -f64::MAX],
                &[3, 1, 2, 4, 0],
                &[-f64::MAX, -1e308, 0.0, 1e308, f64::MAX],
            ),
            (&[7.5, 7.5, 7.5], &[0, 0, 0], &[7.5]),
            (
                &[f64::NAN, 2.0, -f64::NAN, 1.0],
                &[NAN_RANK, 1, NAN_RANK, 0],
                &[1.0, 2.0],
            ),
        ];
        for (case, (column, ranks, values)) in columns.into_iter().enumerate() {
            let mut d = Dataset::new(vec!["a".into()]);
            for &v in column {
                d.push(vec![v, v], 0);
            }
            let c = Columns::new(&d);
            for f in 0..2 {
                assert_eq!(c.ranks(f), ranks, "case {case}");
                assert_eq!(c.values(f), values, "case {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let mut d = sample();
        d.push(vec![0.0, 0.0], 9);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature width")]
    fn bad_width_panics() {
        let mut d = sample();
        d.push(vec![0.0], 0);
    }
}
