//! Closed-loop mission execution with online plan repair.
//!
//! The open-loop simulator flies a plan blind: a gust that overdraws the
//! budget simply kills the mission mid-air. [`MissionController`] wraps
//! the same physics in a decision loop that keeps the safe-return
//! invariant
//!
//! ```text
//! energy_left  >=  wc · d(pos, depot) · η_per_m  +  reserve
//! ```
//!
//! at every decision point, where `wc` is the *worst-case* travel
//! multiplier (`WindModel::max_factor() × FaultPlan::worst_leg_factor()`).
//! The invariant holds at launch (the UAV is at the depot), and each
//! action re-establishes it:
//!
//! * **Leg commitment** — the leg to stop `s` is flown only if
//!   `energy_left >= wc·(d(pos,s) + d(s,depot))·η + reserve`; since the
//!   realised leg factor never exceeds `wc`, arrival re-establishes the
//!   invariant at `s`. Otherwise the stop is dropped.
//! * **Hover trimming** — the sojourn at `s` is truncated so the hover
//!   cannot eat into `wc·d(s,depot)·η + reserve`; collection degrades to
//!   the P2-style fraction the shortened window allows.
//! * **Direct return** — with no stops left, the return leg costs at
//!   most `wc·d(pos,depot)·η`, which the invariant has kept affordable.
//!
//! By induction `BatteryDepleted` is unreachable whenever the depot is
//! physically reachable at decision time — the property-test harness
//! (`crates/sim/tests/controller_props.rs`) drives thousands of seeded
//! (scenario × plan × fault) triples through this argument.
//!
//! Separately from the (worst-case priced) safety gates, the controller
//! *re-estimates* remaining mission cost from live consumption: an EWMA
//! of observed leg factors prices the nominal remainder of the plan, and
//! when it no longer fits the remaining budget the plan is repaired
//! online by [`uavdc_core::repair::drop_to_fit`] — the lazy-greedy
//! insertion deltas run in reverse, dropping the lowest-value stops in
//! O(1) each. Repairs are economics, not safety: a mission that never
//! repairs is still safe, it just wastes energy flying toward stops it
//! must then abandon at the commitment gate.

use crate::event::{SimEvent, SimTrace};
use crate::sim::{collect_uploads, fly_leg, SimConfig, SimOutcome};
use uavdc_core::repair::{drop_to_fit, RepairStop};
use uavdc_core::{CollectionPlan, HoverStop};
use uavdc_geom::Point2;
use uavdc_net::units::{Joules, JoulesPerMeter, MegaBytes, Seconds};
use uavdc_net::Scenario;

/// Reserve-margin policy for [`MissionController`].
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Fraction of battery capacity kept as an untouchable reserve on
    /// top of the worst-case return cost. Clamped to `[0, 1]`; a small
    /// absolute floor (1e-6 J) is always kept so that accumulated
    /// floating-point slack in the decision gates can never outrun the
    /// reserve.
    pub reserve_frac: f64,
    /// EWMA weight of the newest observed leg factor in the live
    /// consumption estimate, in `[0, 1]`. The estimate only prices
    /// *repairs* (never the safety gates, which use the worst case).
    pub estimate_alpha: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            reserve_frac: 0.02,
            estimate_alpha: 0.5,
        }
    }
}

/// Result of a closed-loop mission.
#[derive(Clone, Debug)]
pub struct ControlOutcome {
    /// The physical outcome (trace, energy, volume). `completed` is true
    /// by construction except in the measure-zero case where the depot
    /// was unreachable within budget from the start.
    pub outcome: SimOutcome,
    /// The as-flown plan: stops actually hovered, with realised sojourns
    /// and collected volumes.
    pub executed: CollectionPlan,
    /// Times the live estimate said the nominal remainder no longer fits
    /// and the plan was repaired.
    pub replans: u64,
    /// Hovers truncated below their planned sojourn by the safety gate.
    pub trimmed_hovers: u64,
    /// Stops abandoned (by repair or by the commitment gate).
    pub dropped_stops: u64,
    /// The reserve the controller protected.
    pub reserve: Joules,
    /// Energy still in the battery at mission end.
    pub final_margin: Joules,
}

/// Closed-loop executor for a [`CollectionPlan`].
#[derive(Clone, Debug, Default)]
pub struct MissionController {
    cfg: ControllerConfig,
}

impl MissionController {
    /// A controller with the given reserve policy.
    pub fn new(cfg: ControllerConfig) -> Self {
        MissionController { cfg }
    }

    /// Flies `plan` closed-loop under `sim_config`'s disturbances.
    pub fn fly(
        &self,
        scenario: &Scenario,
        plan: &CollectionPlan,
        sim_config: &SimConfig,
    ) -> ControlOutcome {
        let mut wind = sim_config.wind.clone();
        let mut link = sim_config.link.clone();
        let mut fault = sim_config.fault.clone();
        let dropped_devices = fault.draw_dropouts(scenario.num_devices());

        let speed = scenario.uav.speed.value();
        let eta_h = scenario.uav.hover_power.value();
        let per_m = scenario.uav.travel_energy_per_meter().value();
        let capacity = scenario.uav.capacity.value();
        let b = scenario.radio.bandwidth.value();
        let r0 = scenario.coverage_radius().value();
        let depot = scenario.depot;

        // Worst-case travel multiplier: what the safety gates budget for.
        let wc = wind.max_factor() * fault.worst_leg_factor();
        let reserve = (self.cfg.reserve_frac.clamp(0.0, 1.0) * capacity)
            .max(1e-6)
            .min(capacity);
        let alpha = self.cfg.estimate_alpha.clamp(0.0, 1.0);
        // Economic-repair slack, matching check_plan's energy-budget
        // tolerance so a freshly checked plan is never repaired at
        // launch under calm conditions.
        let fit_slack = 1e-6 * capacity + 1e-6;

        let mut residual: Vec<f64> = scenario.devices.iter().map(|d| d.data.value()).collect();
        let mut per_device = vec![0.0f64; scenario.num_devices()];
        let mut trace = SimTrace::default();
        let mut t = 0.0f64;
        let mut energy = 0.0f64;
        let mut hover_used = 0.0f64;
        let mut pos = depot;
        let mut est = 1.0f64; // live estimate of the travel factor
        let mut pending: Vec<HoverStop> = plan.stops.clone();
        let mut executed: Vec<HoverStop> = Vec::new();

        let mut replans = 0u64;
        let mut trims = 0u64;
        let mut drops = 0u64;
        let mut aborted = false;

        loop {
            // --- Decision point: live re-estimate & repair ------------
            // Hovers are trimmable down to zero (partial collection), so
            // only the *travel* of the remaining route can force a drop:
            // a stop is worth keeping as long as its detour fits, however
            // short its hover window has become.
            let budget = capacity - energy - reserve;
            let projected = route_travel_cost(pos, &pending, depot, per_m * est);
            if projected > budget + fit_slack && !pending.is_empty() {
                replans += 1;
                let stops: Vec<RepairStop> = pending
                    .iter()
                    .map(|h| RepairStop {
                        pos: h.pos,
                        hover_energy: Joules::ZERO,
                        score: MegaBytes(h.collected.iter().map(|(_, v)| v.value()).sum()),
                    })
                    .collect();
                let repaired = drop_to_fit(
                    pos,
                    depot,
                    &stops,
                    JoulesPerMeter(per_m * est),
                    Joules(budget),
                );
                drops += repaired.dropped.len() as u64;
                let mut kept = repaired.kept.iter().peekable();
                pending = pending
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, h)| {
                        if kept.peek() == Some(&&i) {
                            kept.next();
                            Some(h)
                        } else {
                            None
                        }
                    })
                    .collect();
            }

            // --- Decision point: leg commitment (worst-case priced) ---
            let Some(next_stop) = pending.first() else {
                break;
            };
            let commit_cost =
                wc * per_m * (pos.distance(next_stop.pos) + next_stop.pos.distance(depot));
            if capacity - energy + 1e-9 < commit_cost + reserve {
                // Even reaching this stop would endanger the return.
                pending.remove(0);
                drops += 1;
                continue;
            }

            // --- Fly the leg ------------------------------------------
            let stop = pending.remove(0);
            // Same draw order and multiplication association as the
            // open-loop simulator, so calm missions replay bit-for-bit.
            let wind_factor = wind.next_leg_factor();
            let fault_factor = fault.next_leg_factor();
            let leg_factor = wind_factor * fault_factor;
            if !fly_leg(
                &mut t,
                &mut energy,
                &mut pos,
                stop.pos,
                speed,
                per_m * wind_factor * fault_factor,
                capacity,
                &mut trace,
            ) {
                // Unreachable under the commitment gate (the realised
                // factor is bounded by wc); kept as a defensive abort so
                // the controller is total even on adversarial inputs.
                aborted = true;
                break;
            }
            est = (alpha * leg_factor + (1.0 - alpha) * est).min(wc);

            // --- Hover, trimmed to protect the return -----------------
            let sojourn = stop.sojourn.value();
            let return_cost = wc * per_m * stop.pos.distance(depot);
            let hover_budget = capacity - energy - return_cost - reserve + 1e-9;
            let affordable = if eta_h > 0.0 {
                (hover_budget / eta_h).max(0.0)
            } else {
                sojourn
            };
            let actual_sojourn = sojourn.min(affordable);
            if actual_sojourn + 1e-12 < sojourn {
                trims += 1;
            }
            let eff_b = b * link.next_stop_factor();
            let mut uploads = collect_uploads(
                sim_config.policy,
                &stop,
                scenario,
                r0,
                eff_b,
                actual_sojourn,
                &mut residual,
                &mut per_device,
                &dropped_devices,
                &mut fault,
            );
            if sim_config.record_uploads {
                uploads.sort_by(|a, b2| uavdc_geom::cmp_f64(a.0, b2.0));
                for &(dt, dev, got) in &uploads {
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
            trace.push(SimEvent::HoverEnded {
                t: Seconds(t),
                pos: stop.pos,
                energy_used: Joules(energy),
            });
            executed.push(HoverStop {
                pos: stop.pos,
                sojourn: Seconds(actual_sojourn),
                collected: uploads
                    .iter()
                    .map(|&(_, dev, got)| (dev, MegaBytes(got)))
                    .collect(),
            });
        }

        // --- Direct return leg ------------------------------------------
        if !aborted {
            let wind_factor = wind.next_leg_factor();
            let fault_factor = fault.next_leg_factor();
            if fly_leg(
                &mut t,
                &mut energy,
                &mut pos,
                depot,
                speed,
                per_m * wind_factor * fault_factor,
                capacity,
                &mut trace,
            ) {
                trace.push(SimEvent::ReturnedToDepot {
                    t: Seconds(t),
                    energy_used: Joules(energy),
                });
            } else {
                aborted = true;
            }
        }

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
        ControlOutcome {
            outcome: SimOutcome {
                collected,
                per_device,
                energy_used: Joules(energy),
                hover_energy_used: Joules(hover_used),
                mission_time: Seconds(t),
                completed: !aborted,
                trace,
            },
            executed: CollectionPlan { stops: executed },
            replans,
            trimmed_hovers: trims,
            dropped_stops: drops,
            reserve: Joules(reserve),
            final_margin: Joules(capacity - energy),
        }
    }
}

/// Travel energy of the route `pos → stops… → depot` priced at
/// `per_m_priced` (hover costs are excluded: hovers trim, travel does
/// not).
fn route_travel_cost(pos: Point2, stops: &[HoverStop], depot: Point2, per_m_priced: f64) -> f64 {
    let mut cost = 0.0;
    let mut at = pos;
    for s in stops {
        cost += at.distance(s.pos) * per_m_priced;
        at = s.pos;
    }
    cost + at.distance(depot) * per_m_priced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, CollectionPolicy};
    use crate::wind::{LinkModel, WindModel};
    use crate::FaultPlan;
    use uavdc_geom::Aabb;
    use uavdc_net::units::{MegaBytesPerSecond, Meters};
    use uavdc_net::{DeviceId, FaultConfig, IotDevice, RadioModel, UavSpec};

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
                sojourn: Seconds(4.0),
                collected: vec![
                    (DeviceId(0), MegaBytes(300.0)),
                    (DeviceId(1), MegaBytes(600.0)),
                ],
            }],
        }
    }

    fn zero_reserve() -> MissionController {
        MissionController::new(ControllerConfig {
            reserve_frac: 0.0,
            ..ControllerConfig::default()
        })
    }

    #[test]
    fn calm_mission_matches_open_loop_bit_for_bit() {
        let s = scenario(10_000.0);
        let plan = one_stop_plan();
        let open = simulate(&s, &plan, &SimConfig::default());
        let ctrl = zero_reserve().fly(&s, &plan, &SimConfig::default());
        assert!(ctrl.outcome.completed);
        assert_eq!(ctrl.replans + ctrl.trimmed_hovers + ctrl.dropped_stops, 0);
        assert_eq!(
            ctrl.outcome.energy_used.value().to_bits(),
            open.energy_used.value().to_bits()
        );
        assert_eq!(
            ctrl.outcome.mission_time.value().to_bits(),
            open.mission_time.value().to_bits()
        );
        assert_eq!(ctrl.outcome.trace.fingerprint(), open.trace.fingerprint());
        assert!(ctrl.outcome.agrees_with_plan(&plan, &s));
    }

    #[test]
    fn survives_the_wind_that_kills_the_open_loop() {
        // Calm needs 1600 J; 1650 J dies open-loop under 1.5x wind but
        // the controller must come home.
        let s = scenario(1650.0);
        let plan = one_stop_plan();
        let cfg = SimConfig {
            wind: WindModel::uniform(1.5, 1.5, 2),
            ..SimConfig::default()
        };
        assert!(!simulate(&s, &plan, &cfg).completed);
        let ctrl = zero_reserve().fly(&s, &plan, &cfg);
        assert!(ctrl.outcome.completed);
        assert!(ctrl.outcome.energy_used.value() <= 1650.0 + 1e-9);
        assert_eq!(ctrl.outcome.trace.check_well_formed(), Ok(()));
        assert!(ctrl.dropped_stops > 0 || ctrl.trimmed_hovers > 0);
    }

    #[test]
    fn trims_the_hover_to_a_partial_collection() {
        // Enough to reach the stop and come home under calm air, but not
        // for the full 4 s hover: 1000 J travel + 600 J hover > 1300 J.
        let s = scenario(1300.0);
        let plan = one_stop_plan();
        let ctrl = zero_reserve().fly(&s, &plan, &SimConfig::default());
        assert!(ctrl.outcome.completed);
        assert_eq!(ctrl.trimmed_hovers, 1);
        assert!(ctrl.outcome.collected.value() > 0.0, "partial, not zero");
        assert!(ctrl.outcome.collected.value() < 900.0 - 1e-6);
        assert!(ctrl.outcome.energy_used.value() <= 1300.0 + 1e-9);
        // The executed plan records the truncated sojourn.
        assert!(ctrl.executed.stops[0].sojourn.value() < 4.0);
    }

    #[test]
    fn hopeless_stop_is_dropped_for_a_direct_return() {
        // Cannot even reach the stop: the commitment gate drops it and
        // the mission degenerates to staying at the depot.
        let s = scenario(300.0);
        let plan = one_stop_plan();
        let ctrl = zero_reserve().fly(&s, &plan, &SimConfig::default());
        assert!(ctrl.outcome.completed);
        assert_eq!(ctrl.dropped_stops, 1);
        assert_eq!(ctrl.outcome.collected, MegaBytes::ZERO);
        assert!(ctrl.outcome.energy_used.value() <= 1e-9);
        assert_eq!(ctrl.outcome.trace.events.len(), 1); // ReturnedToDepot
    }

    #[test]
    fn reserve_margin_is_protected() {
        let s = scenario(1650.0);
        let plan = one_stop_plan();
        let ctrl = MissionController::new(ControllerConfig {
            reserve_frac: 0.10,
            ..ControllerConfig::default()
        })
        .fly(&s, &plan, &SimConfig::default());
        assert!(ctrl.outcome.completed);
        assert!(
            ctrl.final_margin.value() >= ctrl.reserve.value() - 1e-9,
            "landed with {} J, promised reserve {} J",
            ctrl.final_margin.value(),
            ctrl.reserve.value()
        );
    }

    #[test]
    fn replay_is_bit_identical() {
        let s = scenario(1800.0);
        let plan = one_stop_plan();
        let cfg = SimConfig {
            wind: WindModel::uniform(1.0, 1.5, 11),
            link: LinkModel::uniform(0.5, 1.0, 12),
            fault: FaultPlan::new(
                FaultConfig {
                    gust_onset: 0.4,
                    gust_legs: (1, 2),
                    gust_severity: (1.1, 1.4),
                    upload_fail: 0.3,
                    max_retries: 1,
                    retry_backoff: Seconds(0.2),
                    dropout: 0.1,
                },
                13,
            ),
            ..SimConfig::default()
        };
        let ctl = MissionController::default();
        let a = ctl.fly(&s, &plan, &cfg);
        let b = ctl.fly(&s, &plan, &cfg);
        assert_eq!(a.outcome.trace.fingerprint(), b.outcome.trace.fingerprint());
        assert_eq!(
            a.outcome.energy_used.value().to_bits(),
            b.outcome.energy_used.value().to_bits()
        );
        assert_eq!(a.replans, b.replans);
        assert_eq!(a.dropped_stops, b.dropped_stops);
        assert_eq!(a.executed.fingerprint(), b.executed.fingerprint());
    }

    #[test]
    fn opportunistic_policy_flies_closed_loop_too() {
        let s = scenario(10_000.0);
        let mut plan = one_stop_plan();
        plan.stops[0].collected = vec![(DeviceId(0), MegaBytes(300.0))];
        plan.stops[0].sojourn = Seconds(2.0);
        let cfg = SimConfig {
            policy: CollectionPolicy::Opportunistic,
            ..SimConfig::default()
        };
        let ctrl = zero_reserve().fly(&s, &plan, &cfg);
        let open = simulate(&s, &plan, &cfg);
        assert_eq!(
            ctrl.outcome.collected.value().to_bits(),
            open.collected.value().to_bits()
        );
    }
}
