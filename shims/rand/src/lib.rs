//! In-tree stand-in for the `rand` crate.
//!
//! Provides the subset this workspace uses: the [`Rng`]/[`RngCore`] traits
//! (`gen`, `gen_range`), [`SeedableRng::seed_from_u64`], a deterministic
//! [`rngs::StdRng`] (xoshiro256++ seeded via SplitMix64 — not the real
//! crate's ChaCha12, so streams differ from upstream but are stable across
//! runs and platforms), and [`seq::SliceRandom::shuffle`].

#![forbid(unsafe_code)]

use std::ops::Range;

/// The low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly over their full domain (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types usable as `gen_range` bounds.
pub trait SampleUniform: Sized {
    /// A uniform draw from `[lo, hi)`; panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range called with empty range");
                let span = (hi as u64) - (lo as u64);
                // Multiply-shift rejection-free mapping; span is tiny
                // relative to 2^64 everywhere this workspace samples, so
                // modulo bias is negligible — use 128-bit multiply to keep
                // it uniform anyway.
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo + draw as $t
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range called with empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                ((lo as i64).wrapping_add(draw as i64)) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "gen_range called with empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "gen_range called with empty range");
        lo + f32::draw(rng) * (hi - lo)
    }
}

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw over `T`'s standard domain (`[0,1)` for floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform draw from the half-open `range`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(range.start, range.end, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, mirroring the real crate's trait.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step — used to expand seeds into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic standard generator: xoshiro256++.
    ///
    /// Statistically strong and fast; unlike the real crate's `StdRng`
    /// it makes no cryptographic claims, which nothing here needs.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling (Fisher–Yates), mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Uniformly permutes the slice in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

pub mod distributions {
    use super::RngCore;

    /// A parameterized distribution samplable with any generator.
    pub trait Distribution<T> {
        /// Draws one value from the distribution.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_uniformish() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        assert_eq!(xs, ys);

        let mut rng = StdRng::seed_from_u64(7);
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean of U[0,1) draws was {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0usize..3);
            assert!(y < 3);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left slice unchanged");
    }
}
