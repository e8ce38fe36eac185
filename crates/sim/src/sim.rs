//! The mission simulator.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes plan stops and devices the plan names; `open_loop_props` and `planner_simulator_agreement` check it"
)]

use crate::event::{SimEvent, SimTrace};
use crate::fault::FaultPlan;
use crate::wind::{LinkModel, WindModel};
use uavdc_core::{CollectionPlan, HoverStop};
use uavdc_geom::Point2;
use uavdc_net::units::{Joules, MegaBytes, Seconds};
use uavdc_net::{DeviceId, Scenario};

/// What the UAV collects while hovering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CollectionPolicy {
    /// Collect exactly what the plan scheduled at each stop (capped by
    /// physics). The mode used to validate planner accounting.
    #[default]
    PlanStrict,
    /// Collect from *every* device within coverage at each stop for the
    /// planned sojourn, bandwidth-capped — what an opportunistic UAV
    /// radio would actually do. Never collects less than `PlanStrict`.
    Opportunistic,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Collection behaviour while hovering.
    pub policy: CollectionPolicy,
    /// Travel-energy disturbance.
    pub wind: WindModel,
    /// Per-stop uplink-bandwidth disturbance.
    pub link: LinkModel,
    /// Seeded fault injection (gust bursts, upload failures, device
    /// dropout); [`FaultPlan::none`] by default, which is bit-identical
    /// to the fault-free simulator.
    pub fault: FaultPlan,
    /// Record per-device upload events (disable for big sweeps).
    pub record_uploads: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: CollectionPolicy::PlanStrict,
            wind: WindModel::calm(),
            link: LinkModel::nominal(),
            fault: FaultPlan::none(),
            record_uploads: true,
        }
    }
}

/// Result of a simulated mission.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Volume brought back to the depot.
    pub collected: MegaBytes,
    /// Per-device collected volumes.
    pub per_device: Vec<MegaBytes>,
    /// Energy consumed.
    pub energy_used: Joules,
    /// Portion of `energy_used` spent hovering (the rest is travel).
    pub hover_energy_used: Joules,
    /// Mission duration (until completion or battery depletion).
    pub mission_time: Seconds,
    /// True when the UAV made it back to the depot.
    pub completed: bool,
    /// Chronological event log.
    pub trace: SimTrace,
}

impl SimOutcome {
    /// Checks that this (strict-policy, calm-wind) outcome matches the
    /// plan's own accounting: completed, same collected volume (1e-6 MB
    /// tolerance), same energy (1e-6 J relative tolerance).
    pub fn agrees_with_plan(&self, plan: &CollectionPlan, scenario: &Scenario) -> bool {
        if !self.completed {
            return false;
        }
        let claimed = plan.collected_volume();
        let energy = plan.total_energy(scenario);
        (self.collected.value() - claimed.value()).abs() < 1e-6 * (1.0 + claimed.value())
            && (self.energy_used.value() - energy.value()).abs() < 1e-6 * (1.0 + energy.value())
    }
}

/// Simulates flying `plan` over `scenario` under `config`.
///
/// The mission aborts the moment the battery would go negative; partial
/// legs and hovers consume exactly the energy available.
pub fn simulate(scenario: &Scenario, plan: &CollectionPlan, config: &SimConfig) -> SimOutcome {
    let mut wind = config.wind.clone();
    let mut link = config.link.clone();
    let mut fault = config.fault.clone();
    let dropped_devices = fault.draw_dropouts(scenario.num_devices());
    let speed = scenario.uav.speed.value();
    let eta_h = scenario.uav.hover_power.value();
    let per_m_nominal = scenario.uav.travel_energy_per_meter().value();
    let capacity = scenario.uav.capacity.value();
    let b = scenario.radio.bandwidth.value();
    let r0 = scenario.coverage_radius().value();

    let mut residual: Vec<f64> = scenario.devices.iter().map(|d| d.data.value()).collect();
    let mut per_device = vec![0.0f64; scenario.num_devices()];
    let mut trace = SimTrace::default();
    let mut t = 0.0f64;
    let mut energy = 0.0f64;
    let mut hover_used = 0.0f64;
    let mut pos = scenario.depot;

    // Waypoints: every stop, then back to the depot.
    let mut aborted = false;
    'mission: {
        for stop in &plan.stops {
            // --- Fly to the stop -------------------------------------
            if !fly_leg(
                &mut t,
                &mut energy,
                &mut pos,
                stop.pos,
                speed,
                per_m_nominal * wind.next_leg_factor() * fault.next_leg_factor(),
                capacity,
                &mut trace,
            ) {
                aborted = true;
                break 'mission;
            }
            // --- Hover and collect ------------------------------------
            let sojourn = stop.sojourn.value();
            let affordable = ((capacity - energy) / eta_h).max(0.0);
            let actual_sojourn = sojourn.min(affordable);
            let truncated = actual_sojourn + 1e-12 < sojourn;

            // Determine the upload schedule for this hover. Devices
            // upload concurrently, so their finish times are unordered;
            // buffer and sort before logging. Link noise degrades this
            // stop's effective bandwidth.
            let eff_b = b * link.next_stop_factor();
            let mut uploads = collect_uploads(
                config.policy,
                stop,
                scenario,
                r0,
                eff_b,
                actual_sojourn,
                &mut residual,
                &mut per_device,
                &dropped_devices,
                &mut fault,
            );
            if config.record_uploads {
                uploads.sort_by(|a, b2| uavdc_geom::cmp_f64(a.0, b2.0));
                for (dt, dev, got) in uploads {
                    trace.push(SimEvent::Uploaded {
                        t: Seconds(t + dt),
                        device: dev,
                        amount: MegaBytes(got),
                    });
                }
            }
            t += actual_sojourn;
            energy += actual_sojourn * eta_h;
            hover_used += actual_sojourn * eta_h;
            if truncated {
                trace.push(SimEvent::BatteryDepleted {
                    t: Seconds(t),
                    pos: stop.pos,
                });
                aborted = true;
                break 'mission;
            }
            trace.push(SimEvent::HoverEnded {
                t: Seconds(t),
                pos: stop.pos,
                energy_used: Joules(energy),
            });
        }
        // --- Return to depot ------------------------------------------
        if !fly_leg(
            &mut t,
            &mut energy,
            &mut pos,
            scenario.depot,
            speed,
            per_m_nominal * wind.next_leg_factor() * fault.next_leg_factor(),
            capacity,
            &mut trace,
        ) {
            aborted = true;
            break 'mission;
        }
        trace.push(SimEvent::ReturnedToDepot {
            t: Seconds(t),
            energy_used: Joules(energy),
        });
    }

    // Data only counts if it made it home.
    let (collected, per_device) = if aborted {
        (
            MegaBytes::ZERO,
            vec![MegaBytes::ZERO; scenario.num_devices()],
        )
    } else {
        (
            MegaBytes(per_device.iter().sum()),
            per_device.into_iter().map(MegaBytes).collect(),
        )
    };
    SimOutcome {
        collected,
        per_device,
        energy_used: Joules(energy),
        hover_energy_used: Joules(hover_used),
        mission_time: Seconds(t),
        completed: !aborted,
        trace,
    }
}

/// Collects uploads for one hover: applies the policy, the effective
/// bandwidth, device dropout and per-transfer retry/backoff faults, and
/// returns `(finish-offset, device, volume)` triples (unordered — the
/// caller sorts before logging). Mutates `residual`/`per_device`.
///
/// With an inert `fault` and no dropouts this computes bit-identically
/// to the fault-free simulator: zero waste subtracts exactly nothing
/// from the hover window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_uploads(
    policy: CollectionPolicy,
    stop: &HoverStop,
    scenario: &Scenario,
    r0: f64,
    eff_b: f64,
    actual_sojourn: f64,
    residual: &mut [f64],
    per_device: &mut [f64],
    dropped_devices: &[bool],
    fault: &mut FaultPlan,
) -> Vec<(f64, DeviceId, f64)> {
    let mut uploads: Vec<(f64, DeviceId, f64)> = Vec::new();
    let attempt = |dev: DeviceId,
                   want: f64,
                   residual: &mut [f64],
                   per_device: &mut [f64],
                   fault: &mut FaultPlan,
                   uploads: &mut Vec<(f64, DeviceId, f64)>| {
        if dropped_devices[dev.index()] {
            return;
        }
        let outcome = fault.next_upload_outcome();
        if !outcome.delivered {
            return;
        }
        let usable = (actual_sojourn - outcome.wasted.value()).max(0.0);
        let can = (eff_b * usable).min(residual[dev.index()]);
        let got = want.min(can);
        if got > 0.0 {
            residual[dev.index()] -= got;
            per_device[dev.index()] += got;
            let finished = (outcome.wasted.value() + got / eff_b).min(actual_sojourn);
            uploads.push((finished, dev, got));
        }
    };
    match policy {
        CollectionPolicy::PlanStrict => {
            // Per-device totals scheduled at this stop.
            let mut scheduled: Vec<(DeviceId, f64)> = Vec::new();
            for &(dev, amount) in &stop.collected {
                match scheduled.iter_mut().find(|(d, _)| *d == dev) {
                    Some((_, a)) => *a += amount.value(),
                    None => scheduled.push((dev, amount.value())),
                }
            }
            for (dev, want) in scheduled {
                attempt(dev, want, residual, per_device, fault, &mut uploads);
            }
        }
        CollectionPolicy::Opportunistic => {
            for (i, dev) in scenario.devices.iter().enumerate() {
                if dev.pos.distance(stop.pos) <= r0 + 1e-9 {
                    let want = residual[i];
                    attempt(
                        DeviceId(i as u32),
                        want,
                        residual,
                        per_device,
                        fault,
                        &mut uploads,
                    );
                }
            }
        }
    }
    uploads
}

/// Flies one leg; returns false when the battery dies en route (position
/// is interpolated to the point of depletion).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fly_leg(
    t: &mut f64,
    energy: &mut f64,
    pos: &mut Point2,
    to: Point2,
    speed: f64,
    per_m: f64,
    capacity: f64,
    trace: &mut SimTrace,
) -> bool {
    let dist = pos.distance(to);
    if dist <= 0.0 {
        // Already at the target (distance is non-negative).
        return true;
    }
    trace.push(SimEvent::Departed {
        t: Seconds(*t),
        from: *pos,
        to,
    });
    let cost = dist * per_m;
    let budget = capacity - *energy;
    if cost > budget + 1e-9 {
        // Battery dies after travelling `budget / per_m` metres.
        let reach = if per_m > 0.0 {
            (budget / per_m).max(0.0)
        } else {
            dist
        };
        let frac = (reach / dist).clamp(0.0, 1.0);
        let died_at = pos.lerp(to, frac);
        *t += reach / speed;
        *energy += reach * per_m;
        *pos = died_at;
        trace.push(SimEvent::BatteryDepleted {
            t: Seconds(*t),
            pos: died_at,
        });
        return false;
    }
    *t += dist / speed;
    *energy += cost;
    *pos = to;
    trace.push(SimEvent::Arrived {
        t: Seconds(*t),
        pos: to,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_core::validate::{check_plan, Profile};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64) -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(30.0, 40.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(33.0, 40.0),
                    data: MegaBytes(600.0),
                },
            ],
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_default()
            },
        }
    }

    fn one_stop_plan() -> CollectionPlan {
        CollectionPlan {
            stops: vec![HoverStop {
                pos: Point2::new(30.0, 40.0),
                sojourn: Seconds(4.0), // 600 MB / 150 MB/s
                collected: vec![
                    (DeviceId(0), MegaBytes(300.0)),
                    (DeviceId(1), MegaBytes(600.0)),
                ],
            }],
        }
    }

    /// Simulate and assert the trace grammar — every sim test goes
    /// through this so `SimTrace::check_well_formed` guards them all.
    fn checked(s: &Scenario, plan: &CollectionPlan, cfg: &SimConfig) -> SimOutcome {
        let out = simulate(s, plan, cfg);
        out.trace.check_well_formed().expect("well-formed trace");
        out
    }

    #[test]
    fn nominal_mission_matches_plan_accounting() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        check_plan(&s, &plan, Profile::P3Partial).unwrap();
        let out = checked(&s, &plan, &SimConfig::default());
        assert!(out.completed);
        assert!(out.agrees_with_plan(&plan, &s));
        // Out-and-back 50 m legs at 10 J/m, plus 4 s at 150 J/s.
        assert!((out.energy_used.value() - (1000.0 + 600.0)).abs() < 1e-6);
        assert!((out.mission_time.value() - (10.0 + 4.0)).abs() < 1e-9);
        assert_eq!(out.collected, MegaBytes(900.0));
    }

    #[test]
    fn trace_tells_the_story() {
        let s = scenario(10_000.0);
        let out = checked(&s, &one_stop_plan(), &SimConfig::default());
        let kinds: Vec<&str> = out
            .trace
            .events
            .iter()
            .map(|e| match e {
                SimEvent::Departed { .. } => "dep",
                SimEvent::Arrived { .. } => "arr",
                SimEvent::Uploaded { .. } => "up",
                SimEvent::HoverEnded { .. } => "hov",
                SimEvent::BatteryDepleted { .. } => "dead",
                SimEvent::ReturnedToDepot { .. } => "home",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["dep", "arr", "up", "up", "hov", "dep", "arr", "home"]
        );
    }

    #[test]
    fn battery_dies_mid_leg() {
        // 50 m to the stop costs 500 J; give it 300 J.
        let s = scenario(300.0);
        let out = checked(&s, &one_stop_plan(), &SimConfig::default());
        assert!(!out.completed);
        assert_eq!(
            out.collected,
            MegaBytes::ZERO,
            "data must not count if the UAV is lost"
        );
        assert!((out.energy_used.value() - 300.0).abs() < 1e-9);
        // Died 30 m along the 50 m leg.
        let dead = out.trace.events.iter().find_map(|e| match e {
            SimEvent::BatteryDepleted { pos, .. } => Some(*pos),
            _ => None,
        });
        let p = dead.expect("depletion event");
        assert!((p.distance(Point2::ORIGIN) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn battery_dies_mid_hover() {
        // Reach the stop (500 J) then hover: 4 s would need 600 J; give
        // 500 + 150 = 650 J total → 1 s of hover.
        let s = scenario(650.0);
        let out = checked(&s, &one_stop_plan(), &SimConfig::default());
        assert!(!out.completed);
        assert!((out.energy_used.value() - 650.0).abs() < 1e-9);
        assert!((out.mission_time.value() - (5.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn strict_policy_never_exceeds_plan() {
        let s = scenario(10_000.0);
        let mut plan = one_stop_plan();
        plan.stops[0].collected = vec![(DeviceId(0), MegaBytes(100.0))]; // partial
        plan.stops[0].sojourn = Seconds(1.0);
        let out = checked(&s, &plan, &SimConfig::default());
        assert!(out.completed);
        assert_eq!(out.collected, MegaBytes(100.0));
    }

    #[test]
    fn opportunistic_collects_at_least_strict() {
        let s = scenario(10_000.0);
        let mut plan = one_stop_plan();
        // Plan only claims device 0, but device 1 is also in range.
        plan.stops[0].collected = vec![(DeviceId(0), MegaBytes(300.0))];
        plan.stops[0].sojourn = Seconds(2.0);
        let strict = checked(&s, &plan, &SimConfig::default());
        let opp = checked(
            &s,
            &plan,
            &SimConfig {
                policy: CollectionPolicy::Opportunistic,
                ..SimConfig::default()
            },
        );
        assert!(opp.collected.value() >= strict.collected.value());
        // Device 1 uploads 2 s * 150 MB/s = 300 MB opportunistically.
        assert_eq!(opp.collected, MegaBytes(600.0));
    }

    #[test]
    fn headwind_costs_more_energy() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        let calm = checked(&s, &plan, &SimConfig::default());
        let windy = checked(
            &s,
            &plan,
            &SimConfig {
                wind: WindModel::uniform(1.3, 1.3, 1),
                ..SimConfig::default()
            },
        );
        assert!(windy.energy_used.value() > calm.energy_used.value());
        // Exactly 30% more on travel: 1300 vs 1000 J, hover unchanged.
        assert!((windy.energy_used.value() - (1300.0 + 600.0)).abs() < 1e-6);
    }

    #[test]
    fn windy_mission_can_fail_where_calm_succeeds() {
        let s = scenario(1650.0); // calm needs 1600 J
        let plan = one_stop_plan();
        assert!(checked(&s, &plan, &SimConfig::default()).completed);
        let windy = checked(
            &s,
            &plan,
            &SimConfig {
                wind: WindModel::uniform(1.5, 1.5, 2),
                ..SimConfig::default()
            },
        );
        assert!(!windy.completed);
    }

    #[test]
    fn degraded_link_collects_less_but_flies_the_same() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        let nominal = checked(&s, &plan, &SimConfig::default());
        let degraded = checked(
            &s,
            &plan,
            &SimConfig {
                link: crate::wind::LinkModel::uniform(0.5, 0.5, 9),
                ..SimConfig::default()
            },
        );
        assert!(degraded.completed, "link noise must not affect flight");
        assert_eq!(degraded.energy_used.value(), nominal.energy_used.value());
        // Half bandwidth for the 4 s sojourn: each device uploads at
        // 75 MB/s, so 300 MB device 0 and 600 MB device 1 both truncate.
        assert!(degraded.collected.value() < nominal.collected.value());
        assert!((degraded.collected.value() - (300.0 + 300.0)).abs() < 1e-6);
    }

    #[test]
    fn empty_plan_is_a_noop_mission() {
        let s = scenario(100.0);
        let out = checked(&s, &CollectionPlan::empty(), &SimConfig::default());
        assert!(out.completed);
        assert_eq!(out.energy_used, Joules::ZERO);
        assert_eq!(out.mission_time, Seconds::ZERO);
        assert_eq!(out.trace.events.len(), 1); // ReturnedToDepot
    }

    #[test]
    fn per_device_totals_match_aggregate() {
        let s = scenario(10_000.0);
        let out = checked(&s, &one_stop_plan(), &SimConfig::default());
        let sum: f64 = out.per_device.iter().map(|v| v.value()).sum();
        assert!((sum - out.collected.value()).abs() < 1e-9);
    }

    #[test]
    fn inert_fault_plan_is_bit_identical() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        let base = checked(&s, &plan, &SimConfig::default());
        let with_inert = checked(
            &s,
            &plan,
            &SimConfig {
                fault: FaultPlan::new(uavdc_net::FaultConfig::none(), 123),
                ..SimConfig::default()
            },
        );
        assert_eq!(
            base.energy_used.value().to_bits(),
            with_inert.energy_used.value().to_bits()
        );
        assert_eq!(
            base.mission_time.value().to_bits(),
            with_inert.mission_time.value().to_bits()
        );
        assert_eq!(
            base.collected.value().to_bits(),
            with_inert.collected.value().to_bits()
        );
        assert_eq!(base.trace.fingerprint(), with_inert.trace.fingerprint());
    }

    #[test]
    fn dropout_suppresses_a_device() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        // dropout = 1: every device is gone; the tour still flies.
        let out = checked(
            &s,
            &plan,
            &SimConfig {
                fault: FaultPlan::new(
                    uavdc_net::FaultConfig {
                        dropout: 1.0,
                        ..uavdc_net::FaultConfig::none()
                    },
                    7,
                ),
                ..SimConfig::default()
            },
        );
        assert!(out.completed);
        assert_eq!(out.collected, MegaBytes::ZERO);
        assert_eq!(out.trace.uploads().count(), 0);
    }

    #[test]
    fn upload_failures_waste_hover_time() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        // Certain failure with zero retries: nothing is delivered, but
        // the mission itself (travel + hover energy) is unchanged.
        let out = checked(
            &s,
            &plan,
            &SimConfig {
                fault: FaultPlan::new(
                    uavdc_net::FaultConfig {
                        upload_fail: 1.0,
                        max_retries: 0,
                        retry_backoff: Seconds(0.5),
                        ..uavdc_net::FaultConfig::none()
                    },
                    7,
                ),
                ..SimConfig::default()
            },
        );
        assert!(out.completed);
        assert_eq!(out.collected, MegaBytes::ZERO);
        let nominal = checked(&s, &plan, &SimConfig::default());
        assert_eq!(out.energy_used.value(), nominal.energy_used.value());
    }

    #[test]
    fn gusts_compose_with_wind() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        // Deterministic gust (onset 1, severity exactly 1.2) on top of a
        // constant 1.3 wind: travel costs 1.3 * 1.2 = 1.56x nominal.
        let out = checked(
            &s,
            &plan,
            &SimConfig {
                wind: WindModel::uniform(1.3, 1.3, 1),
                fault: FaultPlan::new(
                    uavdc_net::FaultConfig {
                        gust_onset: 1.0,
                        gust_legs: (1, 1),
                        gust_severity: (1.2, 1.2),
                        ..uavdc_net::FaultConfig::none()
                    },
                    7,
                ),
                ..SimConfig::default()
            },
        );
        assert!(out.completed);
        // 100 m round trip at 10 J/m * 1.56, plus the 600 J hover.
        assert!((out.energy_used.value() - (1560.0 + 600.0)).abs() < 1e-6);
    }

    #[test]
    fn fault_replay_is_deterministic() {
        let s = scenario(2_500.0);
        let plan = one_stop_plan();
        let cfg = SimConfig {
            wind: WindModel::uniform(1.0, 1.4, 5),
            link: LinkModel::uniform(0.6, 1.0, 6),
            fault: FaultPlan::new(
                uavdc_net::FaultConfig {
                    gust_onset: 0.5,
                    gust_legs: (1, 3),
                    gust_severity: (1.1, 1.6),
                    upload_fail: 0.4,
                    max_retries: 2,
                    retry_backoff: Seconds(0.3),
                    dropout: 0.2,
                },
                99,
            ),
            ..SimConfig::default()
        };
        let a = checked(&s, &plan, &cfg);
        let b = checked(&s, &plan, &cfg);
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
        assert_eq!(
            a.energy_used.value().to_bits(),
            b.energy_used.value().to_bits()
        );
        assert_eq!(a.collected.value().to_bits(), b.collected.value().to_bits());
    }
}
