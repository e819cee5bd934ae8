//! Timing summary for `bench_pipeline`'s paired overhead series.
//!
//! A sample of wall-clock times reduced to median / p95 / min / max and
//! serialized into the in-tree JSON type, so `obs_check` can read the
//! overhead ratios back.

use iot_core::json::{Json, ToJson};

/// Timing summary of one benchmarked operation.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Timed iterations.
    pub iters: usize,
    /// Per-iteration wall-clock times, milliseconds, in run order.
    pub times_ms: Vec<f64>,
    /// `times_ms` sorted ascending, computed once at construction so
    /// every quantile query is a plain index.
    sorted_ms: Vec<f64>,
}

impl BenchResult {
    /// Builds a result, pre-sorting the sample for quantile queries.
    pub fn new(name: String, iters: usize, times_ms: Vec<f64>) -> Self {
        let mut sorted_ms = times_ms.clone();
        sorted_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        BenchResult {
            name,
            iters,
            times_ms,
            sorted_ms,
        }
    }

    /// q-th quantile (0–1) of the recorded times, nearest-rank on the
    /// sorted sample.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let sorted = &self.sorted_ms;
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Median wall-clock time.
    pub fn median_ms(&self) -> f64 {
        self.quantile_ms(0.5)
    }

    /// 95th-percentile wall-clock time.
    pub fn p95_ms(&self) -> f64 {
        self.quantile_ms(0.95)
    }

    /// Fastest iteration.
    pub fn min_ms(&self) -> f64 {
        self.sorted_ms.first().copied().unwrap_or(f64::INFINITY)
    }

    /// Slowest iteration.
    pub fn max_ms(&self) -> f64 {
        self.sorted_ms.last().copied().unwrap_or(0.0)
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("name", self.name.to_json());
        j.set("iters", self.iters.to_json());
        j.set("median_ms", self.median_ms().to_json());
        j.set("p95_ms", self.p95_ms().to_json());
        j.set("min_ms", self.min_ms().to_json());
        j.set("max_ms", self.max_ms().to_json());
        j.set("times_ms", self.times_ms.to_json());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_sample() {
        let r = BenchResult::new("x".into(), 4, vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(r.median_ms(), 2.0);
        assert_eq!(r.p95_ms(), 4.0);
        assert_eq!(r.min_ms(), 1.0);
        assert_eq!(r.max_ms(), 4.0);
        // Run order is preserved alongside the sorted view.
        assert_eq!(r.times_ms, vec![4.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn result_serializes() {
        let r = BenchResult::new("x".into(), 1, vec![1.5]);
        let s = r.to_json().dump();
        assert!(s.contains("\"median_ms\":1.5"), "{s}");
    }
}
