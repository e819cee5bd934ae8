//! Deterministic, seedable PRNG: xoshiro256** with SplitMix64 seeding.
//!
//! This replaces the external `rand` crate for the whole workspace. The
//! API mirrors the subset of `rand` the call sites use (`seed_from_u64`,
//! `gen`, `gen_range`, `gen_bool`, `fill`, slice `shuffle`) so ports are
//! one-line import changes. Determinism is the contract: the same seed
//! must produce the same stream on every platform and every run, because
//! experiment generation, report bytes, and the regression tests all
//! depend on it.

use std::ops::{Range, RangeInclusive};

/// Splittable 64-bit generator used only to expand a `u64` seed into the
/// 256-bit xoshiro state (the reference seeding procedure).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — the workspace's standard generator.
///
/// Named `StdRng` so call sites keep reading naturally after the switch
/// from `rand::rngs::StdRng`.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Build a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// Next 64 raw bits (xoshiro256** scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value of any [`FromRng`] type, driven by type inference
    /// exactly like `rand::Rng::gen`.
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform value from a half-open or inclusive range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Fill `dest` with uniform bytes.
    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform integer in `[0, bound)`; `bound` must be non-zero.
    /// Fixed-point multiply keeps the map deterministic and branch-free.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait FromRng {
    fn from_rng(rng: &mut StdRng) -> Self;
}

macro_rules! from_rng_uint {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng(rng: &mut StdRng) -> Self {
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}
from_rng_uint!(u8, u16, u32, usize);

impl FromRng for u64 {
    fn from_rng(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

impl FromRng for i64 {
    fn from_rng(rng: &mut StdRng) -> Self {
        rng.next_u64() as i64
    }
}

impl FromRng for f64 {
    fn from_rng(rng: &mut StdRng) -> Self {
        rng.gen_f64()
    }
}

impl FromRng for bool {
    fn from_rng(rng: &mut StdRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Types with a uniform sampler over `[start, end)` / `[start, end]`.
/// The per-type half of range sampling; the blanket [`SampleRange`]
/// impls below tie the range's element type to the sampled type so that
/// integer-literal inference works exactly as with `rand::Rng::gen_range`.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_half_open(start: Self, end: Self, rng: &mut StdRng) -> Self;
    fn sample_inclusive(start: Self, end: Self, rng: &mut StdRng) -> Self;
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(start: Self, end: Self, rng: &mut StdRng) -> Self {
                assert!(start < end, "empty range");
                let span = (end as i128 - start as i128) as u64;
                (start as i128 + rng.bounded_u64(span) as i128) as $t
            }
            fn sample_inclusive(start: Self, end: Self, rng: &mut StdRng) -> Self {
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.bounded_u64(span as u64) as i128) as $t
            }
        }
    )*};
}
sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open(start: Self, end: Self, rng: &mut StdRng) -> Self {
        assert!(start < end, "empty range");
        start + rng.gen_f64() * (end - start)
    }
    fn sample_inclusive(start: Self, end: Self, rng: &mut StdRng) -> Self {
        assert!(start <= end, "empty range");
        start + rng.gen_f64() * (end - start)
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    fn sample_from(self, rng: &mut StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from(self, rng: &mut StdRng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from(self, rng: &mut StdRng) -> T {
        let (start, end) = self.into_inner();
        T::sample_inclusive(start, end, rng)
    }
}

/// In-place Fisher–Yates shuffle, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_is_pinned() {
        // Regression pin: report bytes depend on this exact stream. If the
        // generator changes, every golden value downstream shifts too.
        let mut r = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5u64..=5);
            assert_eq!(w, 5);
            let x = r.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&x));
            let f = r.gen_range(-1.5f64..1.5);
            assert!((-1.5..1.5).contains(&f));
            let g = r.gen_f64();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits = {hits}");
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn fill_covers_every_byte() {
        let mut r = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 37];
        r.fill(&mut buf);
        // 37 random bytes are essentially never all zero.
        assert!(buf.iter().any(|&b| b != 0));
        let mut r2 = StdRng::seed_from_u64(5);
        let mut buf2 = [0u8; 37];
        r2.fill(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn gen_infers_each_type() {
        let mut r = StdRng::seed_from_u64(13);
        let _: u8 = r.gen();
        let _: u32 = r.gen();
        let _: u64 = r.gen();
        let _: f64 = r.gen();
        let _: bool = r.gen();
    }
}
