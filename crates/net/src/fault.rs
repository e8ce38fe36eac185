//! Fault-injection configuration for robustness studies.
//!
//! [`FaultConfig`] is *pure data*: it describes a disturbance regime
//! (gust bursts, upload failures, device dropout) without owning any
//! randomness or reading ambient state. The runtime injector that draws
//! from it (`uavdc-sim`'s `FaultPlan`) is constructed explicitly from a
//! config plus a seed, so two missions with the same `(config, seed)`
//! replay bit-identically and clippy's `disallowed_methods` ban on env
//! reads (root `clippy.toml`) stays satisfied —
//! fault intensity is always passed in by the caller, never pulled from
//! the environment.

use crate::units::Seconds;

/// A disturbance regime for the closed-loop simulator.
///
/// The three fault families compose with the existing `WindModel` /
/// `LinkModel` noise rather than replacing it:
///
/// * **Gust bursts** multiply travel energy *on top of* the per-leg wind
///   factor: with probability [`gust_onset`](Self::gust_onset) a burst
///   starts on a leg, lasts a drawn number of legs, and applies a drawn
///   severity factor to each of them.
/// * **Upload failures** hit each `(stop, device)` transfer: every
///   attempt fails independently with probability
///   [`upload_fail`](Self::upload_fail), each failure wastes
///   [`retry_backoff`](Self::retry_backoff) of the hover window, and
///   after [`max_retries`](Self::max_retries) retries the transfer is
///   abandoned for that stop.
/// * **Device dropout** removes a device for the whole mission (decided
///   once at launch with probability [`dropout`](Self::dropout) each).
///
/// [`FaultConfig::none`] (also `Default`) disables everything; an inert
/// config draws no randomness at all, so enabling faults never perturbs
/// the wind/link streams of an existing experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a gust burst starts on a leg flown in calm state
    /// (`0` disables gusts).
    pub gust_onset: f64,
    /// Inclusive range of burst durations, in legs (`lo >= 1`).
    pub gust_legs: (u32, u32),
    /// Inclusive range of the extra travel-energy multiplier applied to
    /// every leg of a burst (`1 <= lo <= hi`).
    pub gust_severity: (f64, f64),
    /// Per-attempt upload failure probability for each `(stop, device)`
    /// transfer (`0` disables upload faults).
    pub upload_fail: f64,
    /// Number of retries after a failed upload attempt before the
    /// transfer is abandoned at this stop.
    pub max_retries: u32,
    /// Hover time wasted by each failed attempt (sensing the failure and
    /// backing off) before the next attempt may start.
    pub retry_backoff: Seconds,
    /// Probability that a device has dropped out for the whole mission,
    /// decided once at launch (`0` disables dropout).
    pub dropout: f64,
}

impl FaultConfig {
    /// The inert regime: no gusts, no upload failures, no dropout.
    pub fn none() -> Self {
        FaultConfig {
            gust_onset: 0.0,
            gust_legs: (1, 1),
            gust_severity: (1.0, 1.0),
            upload_fail: 0.0,
            max_retries: 0,
            retry_backoff: Seconds::ZERO,
            dropout: 0.0,
        }
    }

    /// True when this config can never perturb a mission.
    pub fn is_none(&self) -> bool {
        self.gust_onset <= 0.0 && self.upload_fail <= 0.0 && self.dropout <= 0.0
    }

    /// The largest travel-energy multiplier a single leg can suffer
    /// under this regime — the factor a safe controller must budget for.
    pub fn worst_leg_severity(&self) -> f64 {
        if self.gust_onset > 0.0 {
            self.gust_severity.1
        } else {
            1.0
        }
    }

    /// Checks internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| -> Result<(), String> {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
            Ok(())
        };
        prob("gust_onset", self.gust_onset)?;
        prob("upload_fail", self.upload_fail)?;
        prob("dropout", self.dropout)?;
        let (llo, lhi) = self.gust_legs;
        if llo < 1 || llo > lhi {
            return Err(format!(
                "gust_legs must satisfy 1 <= lo <= hi, got ({llo}, {lhi})"
            ));
        }
        let (slo, shi) = self.gust_severity;
        if !(slo.is_finite() && shi.is_finite() && 1.0 <= slo && slo <= shi) {
            return Err(format!(
                "gust_severity must satisfy 1 <= lo <= hi, got ({slo}, {shi})"
            ));
        }
        let backoff = self.retry_backoff.value();
        if !(backoff.is_finite() && backoff >= 0.0) {
            return Err(format!("retry_backoff must be >= 0, got {backoff}"));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_valid() {
        let c = FaultConfig::none();
        assert!(c.is_none());
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.worst_leg_severity(), 1.0);
        assert_eq!(c, FaultConfig::default());
    }

    #[test]
    fn worst_severity_tracks_gusts() {
        let c = FaultConfig {
            gust_onset: 0.1,
            gust_severity: (1.2, 1.5),
            ..FaultConfig::none()
        };
        assert!(!c.is_none());
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.worst_leg_severity(), 1.5);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let bad_prob = FaultConfig {
            gust_onset: 1.5,
            ..FaultConfig::none()
        };
        assert!(bad_prob.validate().unwrap_err().contains("gust_onset"));
        let bad_legs = FaultConfig {
            gust_legs: (0, 3),
            ..FaultConfig::none()
        };
        assert!(bad_legs.validate().unwrap_err().contains("gust_legs"));
        let bad_sev = FaultConfig {
            gust_severity: (0.9, 1.2),
            ..FaultConfig::none()
        };
        assert!(bad_sev.validate().unwrap_err().contains("gust_severity"));
        let bad_backoff = FaultConfig {
            retry_backoff: Seconds(-1.0),
            ..FaultConfig::none()
        };
        assert!(bad_backoff
            .validate()
            .unwrap_err()
            .contains("retry_backoff"));
    }
}
