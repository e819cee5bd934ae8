//! Normalized Shannon byte entropy.
//!
//! Two implementations coexist:
//!
//! - [`normalized_entropy`]: the naive per-byte histogram + per-class
//!   `log2` reference. Simple, allocation-free, and the semantic ground
//!   truth.
//! - [`EntropyScratch`]: the hot-path version. It counts bytes into one
//!   reused table and replaces the per-symbol-class `p·log2(p)` calls
//!   with a per-length cached term table, whose entries are computed
//!   with *exactly* the reference's floating-point expression. The fold
//!   subtracts the term of every one of the 256 bins, in the reference's
//!   index order, with no branch on the count: an absent byte reads the
//!   table's `+0.0` at index 0, and `x - (+0.0)` is `x` for every `x`,
//!   so skipping it or not leaves the same bits. The result is 0 ulps
//!   from the reference; tests in this crate pin that.

/// Computes the normalized Shannon entropy of a byte sequence.
///
/// The result is `H / 8 ∈ [0, 1]`: 0 for a constant sequence, approaching 1
/// for long uniform-random sequences. Finite samples cap the achievable
/// value at `log2(n)/8` for `n < 256` distinct bytes, which is why real
/// ciphertext measured per-packet (a few hundred bytes) lands near 0.85
/// rather than 1.0 — exactly the band the paper reports for TLS payloads.
///
/// Returns 0.0 for an empty slice.
pub fn normalized_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[usize::from(b)] += 1;
    }
    let n = data.len() as f64;
    let mut h = 0.0;
    for &c in counts.iter().filter(|&&c| c > 0) {
        let p = c as f64 / n;
        h -= p * p.log2();
    }
    h / 8.0
}

/// Mean per-packet entropy across a flow's payloads, the unit the paper's
/// classifier uses (empty payloads are skipped).
pub fn mean_packet_entropy<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for p in payloads {
        if !p.is_empty() {
            sum += normalized_entropy(p);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Payload lengths up to this get a cached `p·log2(p)` term table; longer
/// inputs fall back to the reference implementation (they are rare — the
/// pipeline measures 160-byte pseudo-packets — and the fallback is
/// bit-identical by definition).
const MAX_CACHED_N: usize = 8192;

/// Reusable state for the entropy fast path: one byte-count table plus
/// per-length term tables. One scratch per worker/analysis — it is
/// deliberately not `Sync`, mirroring the shard-local design of the rest
/// of the pipeline.
pub struct EntropyScratch {
    /// Byte counts of the current input; the fold re-zeroes every bin,
    /// so the table is all zeros between calls.
    counts: Box<[u32; 256]>,
    /// `terms[n][c] = (c/n)·log2(c/n)` for `1 ≤ c ≤ n`, and `+0.0` at
    /// `c = 0`, built lazily per distinct payload length `n`; an empty
    /// slice means "not built yet".
    terms: Vec<Box<[f64]>>,
}

impl Default for EntropyScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropyScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        EntropyScratch {
            counts: Box::new([0; 256]),
            terms: Vec::new(),
        }
    }

    fn term_table(terms: &mut Vec<Box<[f64]>>, n: usize) -> &[f64] {
        if terms.len() <= n {
            terms.resize_with(n + 1, || Box::from([]));
        }
        if terms[n].is_empty() {
            let nf = n as f64;
            let table: Vec<f64> = (0..=n)
                .map(|c| {
                    if c == 0 {
                        0.0
                    } else {
                        // Exactly the reference expression, term by term.
                        let p = c as f64 / nf;
                        p * p.log2()
                    }
                })
                .collect();
            terms[n] = table.into_boxed_slice();
        }
        &terms[n]
    }

    /// Table-driven [`normalized_entropy`]. Bit-identical to the
    /// reference for every input.
    pub fn normalized_entropy(&mut self, data: &[u8]) -> f64 {
        let n = data.len();
        if n == 0 {
            return 0.0;
        }
        if n > MAX_CACHED_N {
            return normalized_entropy(data);
        }
        let EntropyScratch { counts, terms } = self;
        for &b in data {
            counts[usize::from(b)] += 1;
        }
        let table = Self::term_table(terms, n);
        let mut h = 0.0;
        for c in counts.iter_mut() {
            // No `c > 0` branch: `table[0]` is `+0.0`, which leaves `h`
            // unchanged, so this is the reference's sum in its order.
            h -= table[*c as usize];
            *c = 0;
        }
        h / 8.0
    }

    /// Scratch-backed [`mean_packet_entropy`]; same skip-empty semantics,
    /// bit-identical result.
    pub fn mean_packet_entropy<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for p in payloads {
            if !p.is_empty() {
                sum += self.normalized_entropy(p);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Summary statistics (mean, population σ, min, max) over a set of entropy
/// measurements, as reported in the paper's §5.1 calibration tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyStats {
    /// Mean entropy.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

impl EntropyStats {
    /// Computes statistics over a non-empty set of measurements.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "EntropyStats over empty set");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        EntropyStats {
            mean,
            stddev: var.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sequence_is_zero() {
        assert_eq!(normalized_entropy(&[0x41; 1000]), 0.0);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(normalized_entropy(&[]), 0.0);
    }

    #[test]
    fn all_256_values_equally_is_one() {
        let data: Vec<u8> = (0..=255).collect();
        assert!((normalized_entropy(&data) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_symbols_is_one_eighth() {
        let data: Vec<u8> = (0..100).map(|i| if i % 2 == 0 { 0 } else { 1 }).collect();
        assert!((normalized_entropy(&data) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn finite_sample_caps_entropy() {
        // 128 distinct bytes once each: H = log2(128)/8 = 0.875.
        let data: Vec<u8> = (0..128).collect();
        assert!((normalized_entropy(&data) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn mean_packet_entropy_skips_empty() {
        let a = [0u8; 16];
        let b: Vec<u8> = (0..=255).collect();
        let payloads: Vec<&[u8]> = vec![&a, &[], &b];
        let m = mean_packet_entropy(payloads);
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean_packet_entropy(std::iter::empty()), 0.0);
    }

    #[test]
    fn stats_computed() {
        let s = EntropyStats::from_values(&[0.2, 0.4, 0.6]);
        assert!((s.mean - 0.4).abs() < 1e-12);
        assert!((s.min - 0.2).abs() < 1e-12);
        assert!((s.max - 0.6).abs() < 1e-12);
        assert!(s.stddev > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn stats_empty_panics() {
        EntropyStats::from_values(&[]);
    }

    #[test]
    fn scratch_matches_reference_on_fixed_edges() {
        let mut s = EntropyScratch::new();
        let uniform: Vec<u8> = (0..=255).collect();
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x00],
            vec![0xff],
            vec![0x41; 7],      // odd length, constant
            vec![0x41; 1000],
            uniform,
            (0..128).collect(), // finite-sample cap
            b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec(),
        ];
        for data in &cases {
            let naive = normalized_entropy(data);
            let fast = s.normalized_entropy(data);
            assert_eq!(
                naive.to_bits(),
                fast.to_bits(),
                "len {}: {naive} vs {fast}",
                data.len()
            );
        }
    }

    /// Property test (tentpole contract): the table-driven fast path is
    /// 0 ulps from the naive reference across ≥64 seeded random cases,
    /// including empty, 1-byte, odd-length, and larger-than-cache inputs.
    #[test]
    fn scratch_matches_reference_bit_for_bit_seeded() {
        let mut rng = iot_core::rng::StdRng::seed_from_u64(0x5EED_E17E0);
        let mut s = EntropyScratch::new();
        for case in 0..96u32 {
            let len = match case % 8 {
                0 => 0,
                1 => 1,
                2 => usize::from(rng.gen::<u8>()) | 1, // odd
                3 => 160,                              // the pipeline's chunk size
                4 => MAX_CACHED_N + 1 + usize::from(rng.gen::<u8>()), // fallback path
                _ => rng.gen_range(2usize..4096),
            };
            let mut data = vec![0u8; len];
            match case % 3 {
                0 => rng.fill(&mut data),                    // uniform-random
                1 => data.fill(rng.gen::<u8>()),             // constant
                _ => {
                    // Low-cardinality text-like distribution.
                    for b in &mut data {
                        *b = b'a' + (rng.gen::<u8>() % 7);
                    }
                }
            }
            let naive = normalized_entropy(&data);
            let fast = s.normalized_entropy(&data);
            assert_eq!(
                naive.to_bits(),
                fast.to_bits(),
                "case {case} len {len}: {naive} vs {fast}"
            );
            // And the flow-level mean over 160-byte pseudo-packets.
            let naive_mean = mean_packet_entropy(data.chunks(160));
            let fast_mean = s.mean_packet_entropy(data.chunks(160));
            assert_eq!(naive_mean.to_bits(), fast_mean.to_bits(), "case {case} mean");
        }
    }

    /// One scratch across every chunk length the pipeline can hand it:
    /// 0..=160, just past a chunk, and both sides of the term-table cache
    /// bound, in a seeded shuffled order so each call follows a different
    /// length and input than it would in sequence. Every call must match
    /// the reference bit for bit, which fails if the fold leaves a stale
    /// count behind or reads the term table of another length.
    #[test]
    fn one_scratch_matches_reference_at_every_chunk_length() {
        use crate::generators::{text_like, TextStyle};
        use iot_core::rng::SliceRandom;
        let mut rng = iot_core::rng::StdRng::seed_from_u64(0xC4_0A7E);
        let mut cases: Vec<(usize, u8)> = (0..=160)
            .chain([161, 1024, MAX_CACHED_N, MAX_CACHED_N + 1])
            .flat_map(|len| (0..4).map(move |input| (len, input)))
            .collect();
        cases.shuffle(&mut rng);
        let mut s = EntropyScratch::new();
        for (len, input) in cases {
            let data: Vec<u8> = match input {
                0 => {
                    let mut v = vec![0u8; len];
                    rng.fill(&mut v);
                    v
                }
                1 => vec![rng.gen::<u8>(); len],
                2 => {
                    let pair: [u8; 2] = [rng.gen(), rng.gen()];
                    (0..len)
                        .map(|_| pair[usize::from(rng.gen::<bool>())])
                        .collect()
                }
                _ => text_like(&mut rng, len, TextStyle::Telemetry),
            };
            let naive = normalized_entropy(&data);
            let fast = s.normalized_entropy(&data);
            assert_eq!(naive.to_bits(), fast.to_bits(), "input {input} len {len}");
            let naive_mean = mean_packet_entropy(data.chunks(160));
            let fast_mean = s.mean_packet_entropy(data.chunks(160));
            assert_eq!(
                naive_mean.to_bits(),
                fast_mean.to_bits(),
                "input {input} len {len} mean"
            );
        }
    }
}
