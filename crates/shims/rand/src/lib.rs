//! Offline stand-in for the `rand` crate (see `crates/shims/`).
//!
//! Implements the slice of the rand 0.8 API the workspace uses:
//! `rngs::StdRng` + `SeedableRng::seed_from_u64`, and `Rng::{gen_range,
//! gen_bool}` over integer `Range` / `RangeInclusive` bounds. The
//! generator is xoshiro256++ seeded through splitmix64 — deterministic
//! for a given seed, which is all the workload generators rely on (the
//! stream is fixed per seed, not bit-identical to upstream rand).

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a small seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types with a uniform sampler; the generic [`SampleRange`] impls key
/// off this so integer-literal bounds unify with the use site's type
/// (e.g. `ts + rng.gen_range(0..100)` infers `i64`), as upstream does.
pub trait SampleUniform: Sized + Copy {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open(lo: Self, hi: Self, rng: &mut dyn RngCore) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive(lo: Self, hi: Self, rng: &mut dyn RngCore) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(lo: $t, hi: $t, rng: &mut dyn RngCore) -> $t {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
            fn sample_inclusive(lo: $t, hi: $t, rng: &mut dyn RngCore) -> $t {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Bounds usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value in the range using `rng`.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// User-facing sampling methods, blanket-implemented for any core.
pub trait Rng: RngCore {
    /// Draws a value uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        // 53 high bits give a uniform float in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The default seedable generator: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; splitmix64 never
            // produces four zero words from any seed, but keep the guard.
            if s == [0; 4] {
                s[0] = 1;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(-50i64..50);
            assert!((-50..50).contains(&v));
            let w = r.gen_range(1u8..=255);
            assert!(w >= 1);
            let u = r.gen_range(3usize..4);
            assert_eq!(u, 3);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }
}
