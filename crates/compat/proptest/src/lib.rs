//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! The build environment has no network access, so the workspace
//! replaces crates.io `proptest` with this path dependency. It keeps
//! the call sites unchanged: the `proptest!` macro, range strategies
//! (`0.0f64..100.0`, `5usize..40`, `0u64..1000`), tuple strategies,
//! `proptest::collection::vec`, `.prop_map`, `Just`, weighted
//! `prop_oneof!`, `prop_assert!`, `prop_assert_eq!`, `prop_assume!`,
//! and `ProptestConfig::with_cases(n)`.
//!
//! Differences from real proptest, by design:
//! - No shrinking: a failing case panics with the sampled inputs via
//!   the normal assert message instead of minimising them.
//! - Deterministic: the RNG is seeded from the test function's name,
//!   so a failure reproduces on every run and every machine.
//! - `prop_assume!` skips the current case (`continue`) rather than
//!   tracking a rejection quota.

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

pub mod test_runner {
    /// Shim of `proptest::test_runner::Config` (re-exported from the
    /// prelude as `ProptestConfig`).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps the brute-force
            // oracle comparisons in this suite fast while still
            // exercising a meaningful spread of instances.
            Config { cases: 64 }
        }
    }

    /// Deterministic splitmix64 stream used to sample strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name so each property gets an independent
        /// but reproducible stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Shim of `proptest::strategy::Strategy`: anything that can
    /// produce a sampled value from the deterministic test RNG.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let v = self.start + rng.unit_f64() * (self.end - self.start);
            if v >= self.end && self.start < self.end {
                self.start
            } else {
                v
            }
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.unit_f64() * (self.end() - self.start())
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return lo + rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(usize, u64, u32, u16, u8, i64, i32);

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
        type Value = (A::Value, B::Value, C::Value, D::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (
                self.0.sample(rng),
                self.1.sample(rng),
                self.2.sample(rng),
                self.3.sample(rng),
            )
        }
    }

    /// Shim of `proptest::strategy::Just`.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// One weighted, type-erased sampling arm of a [`Union`].
    pub type WeightedArm<T> = (u32, Box<dyn Fn(&mut TestRng) -> T>);

    /// Strategy built by [`prop_oneof!`]: picks one of several weighted
    /// arms per sample. Arms are type-erased sampling closures so
    /// heterogeneous strategy types can share one value type.
    pub struct Union<T> {
        arms: Vec<WeightedArm<T>>,
        total: u64,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<WeightedArm<T>>) -> Self {
            let total = arms.iter().map(|&(w, _)| u64::from(w)).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.next_u64() % self.total;
            // The pick always lands inside an arm (weights sum to the
            // sampled modulus); the last arm doubles as the fallback so
            // the loop needs no unreachable tail.
            let mut chosen = self.arms.len() - 1;
            for (i, (w, _)) in self.arms.iter().enumerate() {
                let w = u64::from(*w);
                if pick < w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            (self.arms[chosen].1)(rng)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Shim of `proptest::collection::vec`: a vector whose length is
    /// drawn from `len` and whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Shim of `proptest!`: expands each `#[test] fn name(args in strategies)`
/// to a plain test that samples the strategies `cases` times from a
/// deterministic per-test RNG and runs the body on each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::test_runner::Config as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Shim of `prop_oneof!`: a strategy that samples one of several arms,
/// optionally weighted (`weight => strategy`). All arms must produce the
/// same value type; unweighted arms get weight 1.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $({
                let __s = $strat;
                (
                    $weight,
                    ::std::boxed::Box::new(
                        move |__rng: &mut $crate::test_runner::TestRng| {
                            $crate::strategy::Strategy::sample(&__s, __rng)
                        },
                    ) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>,
                )
            }),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1u32 => $strat),+)
    };
}

/// Shim of `prop_assert!`: plain `assert!` (panics instead of
/// returning a `TestCaseError`; there is no shrinking to feed).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Shim of `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Shim of `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Shim of `prop_assume!`: skip the current sampled case when the
/// precondition fails. Expands to `continue` targeting the case loop,
/// so it must appear at the top level of the property body (which is
/// how every call site in this workspace uses it).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_sample_in_bounds(
            x in 0.0f64..10.0,
            n in 3usize..9,
            s in 0u64..100,
        ) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((3..9).contains(&n));
            prop_assert!(s < 100);
        }

        #[test]
        fn oneof_respects_arm_set(
            v in prop_oneof![
                3 => (0u32..10).prop_map(|x| x as i64),
                1 => Just(-1i64),
            ],
        ) {
            prop_assert!(v == -1i64 || (0i64..10).contains(&v));
        }

        #[test]
        fn vec_and_map_compose(
            pts in crate::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..5)
                .prop_map(|mut v| { v.push((0.5, 0.5)); v })
        ) {
            prop_assert!(!pts.is_empty());
            prop_assume!(pts.len() > 1);
            prop_assert!(pts.len() <= 5);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::deterministic("abc");
        let mut b = crate::test_runner::TestRng::deterministic("abc");
        let mut c = crate::test_runner::TestRng::deterministic("abd");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
