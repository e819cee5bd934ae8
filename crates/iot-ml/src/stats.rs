//! Distribution statistics used as classifier features (§6.3).
//!
//! "The statistical properties we consider as features are the following:
//! min, max, mean, deciles of the distribution, skewness, and kurtosis."

/// The feature statistics of one empirical distribution: min, max, mean,
/// the nine inner deciles (10%…90%), skewness, and excess kurtosis —
/// 14 values total.
pub const STATS_PER_DISTRIBUTION: usize = 14;

/// Computes the paper's feature statistics for a sample, appending them to
/// `out`. Degenerate samples (empty, or constant) produce well-defined
/// values: an empty sample yields all zeros; a constant sample yields zero
/// skewness/kurtosis.
pub fn append_distribution_stats(sample: &[f64], out: &mut Vec<f64>) {
    if sample.is_empty() {
        out.extend(std::iter::repeat_n(0.0, STATS_PER_DISTRIBUTION));
        return;
    }
    let n = sample.len() as f64;
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite feature value"));
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let mean = sorted.iter().sum::<f64>() / n;
    out.push(min);
    out.push(max);
    out.push(mean);
    for d in 1..=9 {
        out.push(quantile(&sorted, d as f64 / 10.0));
    }
    let m2 = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if m2 <= f64::EPSILON {
        out.push(0.0); // skewness of a constant
        out.push(0.0); // kurtosis of a constant
    } else {
        let m3 = sorted.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4 = sorted.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        out.push(m3 / m2.powf(1.5));
        out.push(m4 / (m2 * m2) - 3.0);
    }
}

/// Linear-interpolated quantile of a pre-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(sample: &[f64]) -> Vec<f64> {
        let mut v = Vec::new();
        append_distribution_stats(sample, &mut v);
        v
    }

    #[test]
    fn length_is_fourteen() {
        assert_eq!(stats(&[1.0, 2.0, 3.0]).len(), STATS_PER_DISTRIBUTION);
        assert_eq!(stats(&[]).len(), STATS_PER_DISTRIBUTION);
    }

    #[test]
    fn empty_all_zero() {
        assert!(stats(&[]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn min_max_mean() {
        let s = stats(&[4.0, 1.0, 7.0]);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[1], 7.0);
        assert!((s[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn deciles_of_uniform_ramp() {
        let sample: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = stats(&sample);
        // Deciles occupy indices 3..12; for 0..=100 they are 10,20,…,90.
        for (i, expected) in (10..=90).step_by(10).enumerate() {
            assert!((s[3 + i] - f64::from(expected)).abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_sample_zero_skew() {
        let s = stats(&[-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert!(s[12].abs() < 1e-12, "skewness {}", s[12]);
    }

    #[test]
    fn right_skewed_sample_positive_skew() {
        let s = stats(&[1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(s[12] > 0.5, "skewness {}", s[12]);
    }

    #[test]
    fn constant_sample_finite_moments() {
        let s = stats(&[5.0; 20]);
        assert_eq!(s[12], 0.0);
        assert_eq!(s[13], 0.0);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn normal_like_kurtosis_near_zero() {
        // A triangular-ish distribution has negative excess kurtosis;
        // heavy-tailed has positive. Check signs rather than magnitudes.
        let uniform: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        let s = stats(&uniform);
        assert!(s[13] < 0.0, "uniform kurtosis {}", s[13]);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.0), 0.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }
}
