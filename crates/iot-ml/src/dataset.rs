//! Labeled feature matrices.

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

/// A column-major copy of a [`Dataset`] for tree induction: each
/// feature's values are contiguous and addressed by row id, with the
/// labels beside them. Built once per fit or cross-validation call, so
/// bootstrap samples and train splits are row-id vectors instead of
/// copies of the rows.
pub(crate) struct Columns<'a> {
    /// `values[f * rows + r]` is feature `f` of row `r`.
    values: Vec<f64>,
    labels: &'a [usize],
    n_classes: usize,
    width: usize,
}

impl<'a> Columns<'a> {
    pub(crate) fn new(data: &'a Dataset) -> Self {
        let width = data.width();
        let mut values = Vec::with_capacity(width * data.len());
        for f in 0..width {
            values.extend(data.features.iter().map(|row| row[f]));
        }
        Columns {
            values,
            labels: &data.labels,
            n_classes: data.n_classes(),
            width,
        }
    }

    /// Feature `f` of every row, indexed by row id.
    pub(crate) fn column(&self, f: usize) -> &[f64] {
        let rows = self.labels.len();
        &self.values[f * rows..(f + 1) * rows]
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
    fn columns_address_values_by_row() {
        let d = sample();
        let c = Columns::new(&d);
        assert_eq!(c.width(), 2);
        assert_eq!(c.n_classes(), 2);
        assert_eq!(c.column(0), &[1.0, 3.0, 5.0]);
        assert_eq!(c.column(1), &[2.0, 4.0, 6.0]);
        assert_eq!((0..3).map(|r| c.label(r)).collect::<Vec<_>>(), d.labels);
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
