//! Seeded, deterministic fault injection for mission execution.
//!
//! [`FaultPlan`] is the runtime half of `uavdc-net`'s pure-data
//! [`FaultConfig`]: it owns the RNG and draws gust bursts, upload
//! failures and device dropout on demand, in the fixed order the mission
//! consumes them. It composes *multiplicatively* with the existing
//! noise models — gust factors stack on top of `WindModel` leg factors,
//! upload failures eat into the hover window that `LinkModel`-degraded
//! bandwidth then fills — and it keeps its own RNG, so enabling faults
//! never perturbs the wind/link streams of an existing experiment.
//!
//! An inert plan ([`FaultPlan::none`], or any config where
//! [`FaultConfig::is_none`] holds) draws no randomness and returns exact
//! identities (`1.0` factors, zero waste), so the default `SimConfig`
//! behaviour is bit-identical to the pre-fault simulator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc_net::units::Seconds;
use uavdc_net::FaultConfig;

/// Outcome of the fault draw for one `(stop, device)` upload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UploadFault {
    /// Hover time wasted on failed attempts before the transfer could
    /// start (or before it was abandoned).
    pub wasted: Seconds,
    /// False when every attempt failed and the transfer was abandoned.
    pub delivered: bool,
}

impl UploadFault {
    /// The no-fault outcome: transfer starts immediately.
    pub const CLEAN: UploadFault = UploadFault {
        wasted: Seconds::ZERO,
        delivered: true,
    };
}

/// Deterministic fault injector for one mission.
///
/// Cloning a `FaultPlan` clones its RNG state, so a cloned plan replays
/// the identical fault sequence — this is how the property harness
/// proves bit-identical mission replay.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SmallRng,
    active: bool,
    burst_legs_left: u32,
    burst_severity: f64,
}

impl FaultPlan {
    /// Builds an injector for `cfg`, drawing from `seed`.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`FaultConfig::validate`].
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor contract violation, mirrors WindModel::uniform"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid FaultConfig: {e}");
        }
        let active = !cfg.is_none();
        FaultPlan {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            active,
            burst_legs_left: 0,
            burst_severity: 1.0,
        }
    }

    /// The inert injector: no faults, no RNG consumption, exact
    /// identity factors.
    pub fn none() -> Self {
        FaultPlan::new(FaultConfig::none(), 0)
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The largest travel multiplier any leg can suffer — what a safe
    /// controller must budget for ([`FaultConfig::worst_leg_severity`]).
    pub fn worst_leg_factor(&self) -> f64 {
        if self.active {
            self.cfg.worst_leg_severity()
        } else {
            1.0
        }
    }

    /// Draws the gust multiplier for the next leg (exactly `1.0` when
    /// calm or inert). Burst state machine: in calm state, one onset
    /// draw per leg; an onset additionally draws a duration and a
    /// severity that then apply to the following legs without further
    /// RNG consumption.
    pub fn next_leg_factor(&mut self) -> f64 {
        if !self.active || self.cfg.gust_onset <= 0.0 {
            return 1.0;
        }
        if self.burst_legs_left > 0 {
            self.burst_legs_left -= 1;
            return self.burst_severity;
        }
        if self.rng.gen_range(0.0..=1.0) < self.cfg.gust_onset {
            let (llo, lhi) = self.cfg.gust_legs;
            let legs = self.rng.gen_range(llo..=lhi);
            let (slo, shi) = self.cfg.gust_severity;
            self.burst_severity = self.rng.gen_range(slo..=shi);
            // This leg is the first of the burst.
            self.burst_legs_left = legs.saturating_sub(1);
            return self.burst_severity;
        }
        1.0
    }

    /// Decides, once at launch, which of `n` devices dropped out for
    /// the whole mission. Inert plans return all-false without touching
    /// the RNG.
    pub fn draw_dropouts(&mut self, n: usize) -> Vec<bool> {
        if !self.active || self.cfg.dropout <= 0.0 {
            return vec![false; n];
        }
        (0..n)
            .map(|_| self.rng.gen_range(0.0..=1.0) < self.cfg.dropout)
            .collect()
    }

    /// Draws the retry/backoff outcome for the next `(stop, device)`
    /// upload. Each attempt fails independently with the configured
    /// probability; each failure wastes one backoff interval; after
    /// `max_retries` retries the transfer is abandoned.
    pub fn next_upload_outcome(&mut self) -> UploadFault {
        if !self.active || self.cfg.upload_fail <= 0.0 {
            return UploadFault::CLEAN;
        }
        let mut wasted = 0.0f64;
        for _ in 0..=self.cfg.max_retries {
            if self.rng.gen_range(0.0..=1.0) >= self.cfg.upload_fail {
                return UploadFault {
                    wasted: Seconds(wasted),
                    delivered: true,
                };
            }
            wasted += self.cfg.retry_backoff.value();
        }
        UploadFault {
            wasted: Seconds(wasted),
            delivered: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gusty() -> FaultConfig {
        FaultConfig {
            gust_onset: 0.5,
            gust_legs: (2, 4),
            gust_severity: (1.2, 1.5),
            ..FaultConfig::none()
        }
    }

    #[test]
    fn inert_plan_is_exactly_identity() {
        let mut f = FaultPlan::none();
        assert_eq!(f.worst_leg_factor(), 1.0);
        for _ in 0..5 {
            assert_eq!(f.next_leg_factor(), 1.0);
            assert_eq!(f.next_upload_outcome(), UploadFault::CLEAN);
        }
        assert_eq!(f.draw_dropouts(4), vec![false; 4]);
    }

    #[test]
    fn same_seed_replays_identically() {
        let cfg = FaultConfig {
            upload_fail: 0.3,
            max_retries: 2,
            retry_backoff: Seconds(0.5),
            dropout: 0.2,
            ..gusty()
        };
        let mut a = FaultPlan::new(cfg.clone(), 9);
        let mut b = FaultPlan::new(cfg, 9);
        assert_eq!(a.draw_dropouts(10), b.draw_dropouts(10));
        for _ in 0..40 {
            assert_eq!(a.next_leg_factor(), b.next_leg_factor());
            assert_eq!(a.next_upload_outcome(), b.next_upload_outcome());
        }
    }

    #[test]
    fn clone_resumes_the_same_stream() {
        let mut a = FaultPlan::new(gusty(), 3);
        let _ = a.next_leg_factor();
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(a.next_leg_factor(), b.next_leg_factor());
        }
    }

    #[test]
    fn gusts_stay_in_range_and_persist_for_the_burst() {
        let mut f = FaultPlan::new(gusty(), 17);
        assert_eq!(f.worst_leg_factor(), 1.5);
        let mut saw_burst = false;
        let mut i = 0;
        while i < 200 {
            let factor = f.next_leg_factor();
            if factor > 1.0 {
                saw_burst = true;
                assert!((1.2..=1.5).contains(&factor));
                // The drawn severity repeats for every remaining burst leg.
                let remaining = f.burst_legs_left;
                assert!(remaining <= 3, "bursts last at most 4 legs");
                for _ in 0..remaining {
                    assert_eq!(f.next_leg_factor(), factor);
                    i += 1;
                }
            } else {
                assert_eq!(factor, 1.0);
            }
            i += 1;
        }
        assert!(saw_burst, "onset 0.5 over 200 legs must fire");
    }

    #[test]
    fn retries_waste_bounded_backoff() {
        let cfg = FaultConfig {
            upload_fail: 0.9,
            max_retries: 3,
            retry_backoff: Seconds(0.25),
            ..FaultConfig::none()
        };
        let mut f = FaultPlan::new(cfg, 1);
        let mut saw_abandon = false;
        for _ in 0..100 {
            let u = f.next_upload_outcome();
            // At most (max_retries + 1) failures worth of backoff.
            assert!(u.wasted.value() <= 4.0 * 0.25 + 1e-12);
            if !u.delivered {
                saw_abandon = true;
                assert!((u.wasted.value() - 1.0).abs() < 1e-12);
            }
        }
        assert!(saw_abandon, "fail prob 0.9^4 over 100 stops must abandon");
    }

    #[test]
    fn dropout_marks_a_plausible_fraction() {
        let cfg = FaultConfig {
            dropout: 0.3,
            ..FaultConfig::none()
        };
        let mask = FaultPlan::new(cfg, 5).draw_dropouts(1000);
        let count = mask.iter().filter(|&&d| d).count();
        assert!((200..=400).contains(&count), "got {count} dropouts of 1000");
    }

    #[test]
    #[should_panic(expected = "invalid FaultConfig")]
    fn invalid_config_rejected() {
        let _ = FaultPlan::new(
            FaultConfig {
                gust_onset: 2.0,
                ..FaultConfig::none()
            },
            0,
        );
    }
}
