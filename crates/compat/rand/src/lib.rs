//! Offline shim for the subset of `rand` 0.8 used by this workspace.
//!
//! The build environment has no network access and no vendored
//! registry, so the workspace replaces crates.io `rand` with this
//! path dependency. It implements exactly the API surface the
//! planners and generators use — `SmallRng`, `SeedableRng::seed_from_u64`,
//! and `Rng::gen_range` over half-open / inclusive ranges of the
//! numeric types that appear in the codebase — with a deterministic
//! xoshiro256++ generator so seeded scenarios stay reproducible.
//!
//! Determinism contract: `SmallRng::seed_from_u64(s)` produces the
//! same stream on every platform and every run. Nothing here reads
//! entropy from the OS; there is deliberately no `thread_rng`.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

use std::ops::{Range, RangeInclusive};

/// Seedable generator constructors (shim of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling from a range, used by [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Raw 64-bit generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// User-facing generator interface (shim of `rand::Rng`).
pub trait Rng: RngCore {
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore> Rng for R {}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end,
            "gen_range called with empty range {:?}..{:?}",
            self.start,
            self.end
        );
        let u = unit_f64(rng.next_u64());
        let v = self.start + u * (self.end - self.start);
        // Floating rounding can land exactly on `end`; clamp back inside.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(
            lo <= hi,
            "gen_range called with empty range {lo:?}..={hi:?}"
        );
        lo + unit_f64(rng.next_u64()) * (hi - lo)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "gen_range called with empty range {:?}..{:?}", self.start, self.end
                );
                let span = (self.end - self.start) as u64;
                self.start + (reduce(rng.next_u64(), span)) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range called with empty range {lo:?}..={hi:?}");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + (reduce(rng.next_u64(), span + 1)) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8, i64, i32);

/// Map a raw word to `[0, span)` (simple modulo; bias is negligible for
/// the small spans used by scenario generation and GRASP perturbation).
#[inline]
fn reduce(word: u64, span: u64) -> u64 {
    word % span
}

/// 53-bit mantissa to `[0, 1)`.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (shim of `rand::rngs::SmallRng`).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed with splitmix64, as rand does.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
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
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0usize..1_000_000),
                b.gen_range(0usize..1_000_000)
            );
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(-3.0..7.5);
            assert!((-3.0..7.5).contains(&x), "{x} out of range");
            let y = rng.gen_range(2.0..=2.0);
            assert_eq!(y, 2.0);
        }
    }

    #[test]
    fn integer_ranges_cover_and_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let i = rng.gen_range(0usize..5);
            seen[i] = true;
            let j = rng.gen_range(10u64..=12);
            assert!((10..=12).contains(&j));
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }
}
