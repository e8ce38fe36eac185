//! Seeded travel-energy disturbance ("wind") for robustness studies.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Multiplicative noise on travel power, drawn independently per leg.
///
/// A factor of `1.0` is calm air; `1.2` means that leg costs 20% more
/// energy than the planner budgeted. Hover power is unaffected (hovering
/// power draw varies far less with wind than translational flight).
#[derive(Clone, Debug)]
pub struct WindModel {
    rng: SmallRng,
    lo: f64,
    hi: f64,
}

impl WindModel {
    /// Uniform per-leg factor in `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `0 < lo <= hi` and both are finite.
    pub fn uniform(lo: f64, hi: f64, seed: u64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi,
            "wind factors must satisfy 0 < lo <= hi, got [{lo}, {hi}]"
        );
        WindModel {
            rng: SmallRng::seed_from_u64(seed),
            lo,
            hi,
        }
    }

    /// Calm air: every leg costs exactly its nominal energy.
    pub fn calm() -> Self {
        WindModel::uniform(1.0, 1.0, 0)
    }

    /// Draws the factor for the next leg.
    ///
    /// **Stream contract:** every call consumes exactly one RNG value,
    /// whatever the range, so the k-th draw's RNG value is a function of
    /// `(seed, k)` alone. Degenerate ranges (`lo == hi`) return exactly
    /// `lo` — the underlying inclusive-range sampler computes
    /// `lo + u·(hi−lo)` which is exact for `hi == lo` — so calm air still
    /// yields `1.0` bit-for-bit.
    pub fn next_leg_factor(&mut self) -> f64 {
        self.rng.gen_range(self.lo..=self.hi)
    }

    /// The largest factor a leg can draw — what a safe controller must
    /// budget for.
    pub fn max_factor(&self) -> f64 {
        self.hi
    }
}

/// Multiplicative noise on the uplink bandwidth, drawn independently per
/// hover stop.
///
/// A factor below `1.0` models interference/fading: devices upload slower
/// than the planner assumed, so a strict-policy mission brings home less
/// than planned even though the tour itself completes.
#[derive(Clone, Debug)]
pub struct LinkModel {
    rng: SmallRng,
    lo: f64,
    hi: f64,
}

impl LinkModel {
    /// Uniform per-stop factor in `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `0 < lo <= hi <= 1` (a link never beats its nominal
    /// bandwidth) and both are finite.
    pub fn uniform(lo: f64, hi: f64, seed: u64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi && hi <= 1.0,
            "link factors must satisfy 0 < lo <= hi <= 1, got [{lo}, {hi}]"
        );
        LinkModel {
            rng: SmallRng::seed_from_u64(seed),
            lo,
            hi,
        }
    }

    /// Nominal link: every stop gets the full bandwidth.
    pub fn nominal() -> Self {
        LinkModel {
            rng: SmallRng::seed_from_u64(0),
            lo: 1.0,
            hi: 1.0,
        }
    }

    /// Draws the factor for the next stop.
    ///
    /// Same stream contract as [`WindModel::next_leg_factor`]: one RNG
    /// value per call unconditionally, degenerate ranges return exactly
    /// `lo`.
    pub fn next_stop_factor(&mut self) -> f64 {
        self.rng.gen_range(self.lo..=self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_link_is_always_one() {
        let mut l = LinkModel::nominal();
        for _ in 0..10 {
            assert_eq!(l.next_stop_factor(), 1.0);
        }
    }

    #[test]
    fn link_factors_stay_in_range_and_are_seeded() {
        let mut a = LinkModel::uniform(0.4, 0.9, 3);
        let mut b = LinkModel::uniform(0.4, 0.9, 3);
        for _ in 0..50 {
            let f = a.next_stop_factor();
            assert!((0.4..=0.9).contains(&f));
            assert_eq!(f, b.next_stop_factor());
        }
    }

    #[test]
    #[should_panic(expected = "link factors")]
    fn link_above_one_rejected() {
        let _ = LinkModel::uniform(0.5, 1.5, 0);
    }

    #[test]
    fn calm_is_always_one() {
        let mut w = WindModel::calm();
        for _ in 0..10 {
            assert_eq!(w.next_leg_factor(), 1.0);
        }
    }

    #[test]
    fn factors_stay_in_range_and_are_seeded() {
        let mut a = WindModel::uniform(1.0, 1.5, 42);
        let mut b = WindModel::uniform(1.0, 1.5, 42);
        for _ in 0..100 {
            let fa = a.next_leg_factor();
            assert!((1.0..=1.5).contains(&fa));
            assert_eq!(fa, b.next_leg_factor(), "same seed must give same draws");
        }
    }

    #[test]
    #[should_panic(expected = "wind factors")]
    fn bad_range_rejected() {
        let _ = WindModel::uniform(1.5, 1.0, 0);
    }

    /// Seed-stability golden values: the exact bit patterns of the first
    /// draws for a fixed seed. Any change to the sampler, the seeding, or
    /// the draw-per-call contract flips these bits and must be a
    /// deliberate, baseline-refreshing decision (committed BENCH_*.json
    /// artefacts embed outcomes of these streams).
    #[test]
    fn seed_stability_golden_draws() {
        let mut w = WindModel::uniform(1.0, 1.5, 42);
        let got: Vec<u64> = (0..4).map(|_| w.next_leg_factor().to_bits()).collect();
        let want = [
            0x3ff683b26a7a23b3u64,
            0x3ff28cf20ba2bb7a,
            0x3ff7df03e7d86127,
            0x3ff59becfb0066c2,
        ];
        assert_eq!(got, want, "wind draw stream changed for seed 42");
    }

    #[test]
    fn max_factor_exposes_the_range() {
        assert_eq!(WindModel::uniform(1.0, 1.5, 0).max_factor(), 1.5);
        assert_eq!(WindModel::calm().max_factor(), 1.0);
    }
}
