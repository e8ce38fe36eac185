//! The plan checker: every invariant a plan must keep, in one place.
//!
//! [`check_plan`] is the contract every planner meets. It checks the
//! plan's physics (closed tour, battery, coverage, bandwidth, per-device
//! data) and the structure Problems P1–P3 of Li et al. (IPPS 2020)
//! promise, and reports the first broken invariant as a [`PlanError`].
//! [`check_fleet`] does the same for a fleet. The checking functions are
//! always available (tests, the CLI and the benches call them directly);
//! the `debug_check_*` hooks at the planner exits fire only when the
//! crate is built with `--features validate` **and** `debug_assertions`
//! are on, so release binaries pay nothing.
//!
//! Invariants checked, per [`Profile`]:
//!
//! * **closed tour** — the tour starts and ends at the depot; every leg
//!   is re-derived independently and must reproduce
//!   [`CollectionPlan::travel_length`].
//! * **energy budget** — hovering + travel energy stays within the
//!   battery `E` (relative tolerance `1e-6`), and the slack `E − demand`
//!   is reported explicitly.
//! * **coverage** — every device a stop collects from lies within `R0`
//!   (plus `1e-6` m) of the stop.
//! * **conservation** — quantities are finite and non-negative, device
//!   ids exist, each stop's per-device haul respects `B · τ`, and summed
//!   over all (virtual) hovering locations no device yields more than it
//!   stores; both volume bounds allow `1e-6` MB of slack.
//! * **P1/P2 coverage completeness** — full-collection planners drain a
//!   device completely or not at all; P1 additionally never lists a
//!   device at two stops (its candidate coverage is disjoint).
//! * **auxiliary-graph metricity** — the Eq. 9 weights form a metric
//!   (paper Lemma 1), so orienteering budgets translate to tour energy.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes stops and devices after checking their ids against the scenario; `validate_props` checks it"
)]

use crate::auxgraph::AuxGraph;
use crate::multi::FleetPlan;
use crate::plan::CollectionPlan;
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

/// Relative tolerance for energy comparisons; also the absolute slack,
/// in metres and MB, of the coverage and volume bounds.
const REL_TOL: f64 = 1e-6;

/// Which of the paper's problems a plan claims to solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Problem P1 (Algorithm 1): full collection, each device drained at
    /// exactly one hovering location.
    P1FullDisjoint,
    /// Problem P2 (Algorithm 2): full collection with coverage overlap —
    /// a device may be *coverable* from several stops but is still
    /// drained completely at the stops that list it.
    P2FullOverlap,
    /// Problem P3 (Algorithm 3): partial collection across virtual
    /// hovering locations; only conservation is required.
    P3Partial,
}

/// Why a plan failed [`check_plan`]: the violated invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError {
    /// Short machine-stable name of the invariant (e.g. `energy-budget`).
    pub invariant: &'static str,
    /// Human-readable description of how it was violated.
    pub detail: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

impl std::error::Error for PlanError {}

fn violation(invariant: &'static str, detail: String) -> PlanError {
    PlanError { invariant, detail }
}

/// Facts established by a successful [`check_plan`].
#[derive(Clone, Copy, Debug)]
pub struct PlanCheck {
    /// Battery slack `E − (travel + hover)`; non-negative (within
    /// tolerance) for any accepted plan.
    pub energy_slack: Joules,
    /// Devices drained completely.
    pub devices_drained: usize,
    /// Devices the plan does not touch at all.
    pub devices_untouched: usize,
}

/// Checks every paper invariant of a single-UAV plan.
///
/// Returns the established facts, or the first [`PlanError`] found.
pub fn check_plan(
    scenario: &Scenario,
    plan: &CollectionPlan,
    profile: Profile,
) -> Result<PlanCheck, PlanError> {
    // --- Closed tour at the depot -----------------------------------
    // Re-derive the tour leg by leg, starting and ending at the depot,
    // and insist the plan's own accounting agrees.
    let mut legs = 0.0;
    let mut prev = scenario.depot;
    for (i, stop) in plan.stops.iter().enumerate() {
        if !stop.pos.is_finite() {
            return Err(violation(
                "closed-tour",
                format!("stop {i} position is not finite"),
            ));
        }
        legs += prev.distance(stop.pos);
        prev = stop.pos;
    }
    if !plan.stops.is_empty() {
        legs += prev.distance(scenario.depot);
    }
    // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
    let claimed = plan.travel_length(scenario).value();
    if (legs - claimed).abs() > REL_TOL * (1.0 + claimed.abs()) {
        return Err(violation(
            "closed-tour",
            format!("independent leg sum {legs} m disagrees with travel_length {claimed} m"),
        ));
    }

    // --- Energy budget with explicit slack --------------------------
    let demand = plan.total_energy(scenario);
    let capacity = scenario.uav.capacity;
    let slack = capacity - demand;
    // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
    if slack.value() < -REL_TOL * (1.0 + capacity.value()) {
        return Err(violation(
            "energy-budget",
            format!("demand {demand} exceeds battery {capacity} (slack {slack})"),
        ));
    }

    // --- Per-device conservation and per-stop bandwidth -------------
    let r0 = match scenario.try_coverage_radius() {
        // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
        Some(r) => r.value(),
        None => {
            return Err(violation(
                "coverage",
                "scenario altitude exceeds transmission range".to_string(),
            ))
        }
    };
    let n = scenario.num_devices();
    let mut per_device = vec![0.0f64; n];
    let mut stops_listing = vec![0usize; n];
    for (i, stop) in plan.stops.iter().enumerate() {
        // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
        if !stop.sojourn.is_finite() || stop.sojourn.value() < 0.0 {
            return Err(violation(
                "conservation",
                format!("stop {i} sojourn invalid"),
            ));
        }
        // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
        let allowance = (scenario.radio.bandwidth * stop.sojourn).value();
        let mut within_stop = vec![0.0f64; n];
        let mut listed = vec![false; n];
        for &(dev, amount) in &stop.collected {
            let d = dev.index();
            if d >= n {
                return Err(violation(
                    "conservation",
                    format!("stop {i} references unknown device {dev:?}"),
                ));
            }
            // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
            if !amount.is_finite() || amount.value() < 0.0 {
                return Err(violation(
                    "conservation",
                    format!("stop {i} collects invalid amount from {dev:?}"),
                ));
            }
            let dist = scenario.devices[d].pos.distance(stop.pos);
            if dist > r0 + REL_TOL {
                return Err(violation(
                    "coverage",
                    format!(
                        "stop {i} collects from device {dev:?} at {dist:.3} m > R0 = {r0:.3} m"
                    ),
                ));
            }
            // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
            within_stop[d] += amount.value();
            if within_stop[d] > allowance + REL_TOL {
                return Err(violation(
                    "conservation",
                    format!(
                        "stop {i} pulls {} MB from device {dev:?}, over B·τ = {allowance} MB",
                        within_stop[d]
                    ),
                ));
            }
            // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
            per_device[d] += amount.value();
            if !listed[d] {
                listed[d] = true;
                stops_listing[d] += 1;
            }
        }
    }

    let mut drained = 0;
    let mut untouched = 0;
    for (d, &got) in per_device.iter().enumerate() {
        // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
        let stored = scenario.devices[d].data.value();
        if got > stored + REL_TOL {
            return Err(violation(
                "conservation",
                format!("device {d} yields {got} MB across stops but stores {stored} MB"),
            ));
        }
        let is_drained = got >= stored - REL_TOL * (1.0 + stored);
        let is_untouched = got <= REL_TOL * (1.0 + stored);
        if is_drained && !is_untouched {
            drained += 1;
        } else if is_untouched {
            untouched += 1;
        } else {
            // Partially drained: legal only under P3.
            match profile {
                Profile::P3Partial => {}
                Profile::P1FullDisjoint | Profile::P2FullOverlap => {
                    return Err(violation(
                        "full-collection",
                        format!("device {d} only partially drained ({got} of {stored} MB) under a full-collection profile"),
                    ));
                }
            }
        }
        if profile == Profile::P1FullDisjoint && stops_listing[d] > 1 {
            return Err(violation(
                "disjoint-coverage",
                format!(
                    "device {d} is collected at {} stops; P1 drains each device at one location",
                    stops_listing[d]
                ),
            ));
        }
    }

    Ok(PlanCheck {
        energy_slack: slack.clamp_non_negative(),
        devices_drained: drained,
        devices_untouched: untouched,
    })
}

/// Checks a fleet plan: every member plan upholds `profile` (so each
/// UAV's battery is respected individually), and no device is collected
/// by two UAVs. With one collector per device, each device's fleet total
/// is its collector's total, which [`check_plan`] already bounds.
pub fn check_fleet(
    scenario: &Scenario,
    fleet: &FleetPlan,
    profile: Profile,
) -> Result<(), PlanError> {
    let mut owner = vec![usize::MAX; scenario.num_devices()];
    for (u, plan) in fleet.plans.iter().enumerate() {
        check_plan(scenario, plan, profile)
            .map_err(|v| violation(v.invariant, format!("UAV {u}: {}", v.detail)))?;
        for stop in &plan.stops {
            for &(dev, _) in &stop.collected {
                let d = dev.index();
                if owner[d] != usize::MAX && owner[d] != u {
                    return Err(violation(
                        "fleet-conservation",
                        format!("device {d} collected by both UAV {} and UAV {u}", owner[d]),
                    ));
                }
                owner[d] = u;
            }
        }
    }
    Ok(())
}

/// How many vertices [`check_aux_graph`] still checks with the full
/// O(n³) triple scan; larger graphs fall back to a deterministic strided
/// sample of triples.
const METRIC_FULL_CHECK: usize = 60;

/// Checks that the auxiliary graph's Eq. 9 weights form a metric (paper
/// Lemma 1): symmetric, zero diagonal, triangle inequality, and every
/// edge at least the half-sum of its endpoints' hovering energies.
pub fn check_aux_graph(aux: &AuxGraph) -> Result<(), PlanError> {
    let inst = &aux.instance;
    let n = inst.len();
    let scale = 1.0
        + inst.dist(0, 0).abs().max(
            aux.hover_energy
                .iter()
                .copied()
                .fold(Joules::ZERO, Joules::max)
                // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
                .value(),
        );
    let tol = REL_TOL * scale.max(1.0);
    for i in 0..n {
        if inst.dist(i, i).abs() > tol {
            return Err(violation(
                "aux-metricity",
                format!("non-zero diagonal at vertex {i}"),
            ));
        }
        for j in (i + 1)..n {
            let w = inst.dist(i, j);
            if (w - inst.dist(j, i)).abs() > tol {
                return Err(violation(
                    "aux-metricity",
                    format!("asymmetric weight between {i} and {j}"),
                ));
            }
            // lint:allow(unit-unwrap): independent validator cross-checks the unit-typed accounting in raw f64
            let half_sum = ((aux.hover_energy[i] + aux.hover_energy[j]) / 2.0).value();
            if w < half_sum - tol {
                return Err(violation(
                    "aux-metricity",
                    format!(
                        "edge ({i},{j}) weighs {w} J, below its hovering half-sum {half_sum} J"
                    ),
                ));
            }
        }
    }
    // Triangle inequality: full scan when affordable, strided otherwise.
    let stride = if n <= METRIC_FULL_CHECK {
        1
    } else {
        n / METRIC_FULL_CHECK + 1
    };
    let mut i = 0;
    while i < n {
        let mut j = 0;
        while j < n {
            let wij = inst.dist(i, j);
            for k in 0..n {
                if inst.dist(i, k) > wij + inst.dist(j, k) + tol {
                    return Err(violation(
                        "aux-metricity",
                        format!("triangle inequality fails on ({i},{j},{k})"),
                    ));
                }
            }
            j += stride;
        }
        i += stride;
    }
    Ok(())
}

/// Whether the planner-exit hooks are active in this build.
#[inline]
pub fn hooks_active() -> bool {
    cfg!(all(feature = "validate", debug_assertions))
}

/// Planner-exit hook: panics on a violated invariant when built with
/// `--features validate` in a debug profile, otherwise does nothing.
#[inline]
pub fn debug_check_plan(ctx: &str, scenario: &Scenario, plan: &CollectionPlan, profile: Profile) {
    if hooks_active() {
        #[expect(
            clippy::panic,
            reason = "aborting on a violated paper invariant is this hook's entire purpose"
        )]
        if let Err(v) = check_plan(scenario, plan, profile) {
            panic!("{ctx}: paper invariant violated: {v}");
        }
    }
}

/// Planner-exit hook for fleet planners; see [`debug_check_plan`].
#[inline]
pub fn debug_check_fleet(ctx: &str, scenario: &Scenario, fleet: &FleetPlan, profile: Profile) {
    if hooks_active() {
        #[expect(
            clippy::panic,
            reason = "aborting on a violated paper invariant is this hook's entire purpose"
        )]
        if let Err(v) = check_fleet(scenario, fleet, profile) {
            panic!("{ctx}: paper invariant violated: {v}");
        }
    }
}

/// Construction-exit hook for the auxiliary graph; see
/// [`debug_check_plan`].
#[inline]
pub fn debug_check_aux_graph(ctx: &str, aux: &AuxGraph) {
    if hooks_active() {
        #[expect(
            clippy::panic,
            reason = "aborting on a violated paper invariant is this hook's entire purpose"
        )]
        if let Err(v) = check_aux_graph(aux) {
            panic!("{ctx}: paper invariant violated: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::HoverStop;
    use uavdc_geom::{Aabb, Point2};
    use uavdc_net::units::{MegaBytes, MegaBytesPerSecond, Meters, Seconds, Watts};
    use uavdc_net::{DeviceId, IotDevice, RadioModel, UavSpec};

    fn scenario() -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(50.0, 50.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(150.0, 150.0),
                    data: MegaBytes(600.0),
                },
            ],
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(50.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(50_000.0),
                speed: uavdc_net::units::MetersPerSecond(10.0),
                hover_power: Watts(150.0),
                travel_power: Watts(100.0),
                altitude: Meters(0.0),
                travel_energy_override: None,
            },
        }
    }

    fn full_plan() -> CollectionPlan {
        CollectionPlan {
            stops: vec![
                HoverStop {
                    pos: Point2::new(50.0, 50.0),
                    sojourn: Seconds(2.0),
                    collected: vec![(DeviceId(0), MegaBytes(300.0))],
                },
                HoverStop {
                    pos: Point2::new(150.0, 150.0),
                    sojourn: Seconds(4.0),
                    collected: vec![(DeviceId(1), MegaBytes(600.0))],
                },
            ],
        }
    }

    #[test]
    fn full_plan_passes_all_profiles() {
        let s = scenario();
        let p = full_plan();
        for profile in [
            Profile::P1FullDisjoint,
            Profile::P2FullOverlap,
            Profile::P3Partial,
        ] {
            let check = check_plan(&s, &p, profile).unwrap();
            assert_eq!(check.devices_drained, 2);
            assert_eq!(check.devices_untouched, 0);
            assert!(check.energy_slack.value() > 0.0);
        }
    }

    #[test]
    fn empty_plan_passes() {
        let s = scenario();
        let check = check_plan(&s, &CollectionPlan::empty(), Profile::P1FullDisjoint).unwrap();
        assert_eq!(check.devices_untouched, 2);
        assert_eq!(check.energy_slack, s.uav.capacity);
    }

    #[test]
    fn energy_overrun_rejected_with_named_invariant() {
        let mut s = scenario();
        s.uav.capacity = Joules(100.0);
        let v = check_plan(&s, &full_plan(), Profile::P2FullOverlap).unwrap_err();
        assert_eq!(v.invariant, "energy-budget");
    }

    #[test]
    fn partial_drain_rejected_under_full_profiles_only() {
        let s = scenario();
        let mut p = full_plan();
        p.stops[0].collected[0].1 = MegaBytes(100.0); // of 300 stored
        assert_eq!(
            check_plan(&s, &p, Profile::P1FullDisjoint)
                .unwrap_err()
                .invariant,
            "full-collection"
        );
        assert_eq!(
            check_plan(&s, &p, Profile::P2FullOverlap)
                .unwrap_err()
                .invariant,
            "full-collection"
        );
        assert!(check_plan(&s, &p, Profile::P3Partial).is_ok());
    }

    #[test]
    fn split_collection_rejected_under_p1() {
        let s = scenario();
        let p = CollectionPlan {
            stops: vec![
                HoverStop {
                    pos: Point2::new(50.0, 50.0),
                    sojourn: Seconds(1.0),
                    collected: vec![(DeviceId(0), MegaBytes(150.0))],
                },
                HoverStop {
                    pos: Point2::new(52.0, 50.0),
                    sojourn: Seconds(1.0),
                    collected: vec![(DeviceId(0), MegaBytes(150.0))],
                },
            ],
        };
        assert_eq!(
            check_plan(&s, &p, Profile::P1FullDisjoint)
                .unwrap_err()
                .invariant,
            "disjoint-coverage"
        );
        // Splitting across stops is exactly what P2/P3 virtual locations
        // allow, provided the device-level total is conserved.
        assert!(check_plan(&s, &p, Profile::P2FullOverlap).is_ok());
        assert!(check_plan(&s, &p, Profile::P3Partial).is_ok());
    }

    #[test]
    fn over_collection_rejected() {
        let s = scenario();
        let mut p = full_plan();
        p.stops.push(p.stops[0].clone());
        let v = check_plan(&s, &p, Profile::P3Partial).unwrap_err();
        assert_eq!(v.invariant, "conservation");
    }

    #[test]
    fn bandwidth_overrun_rejected() {
        let s = scenario();
        let mut p = full_plan();
        p.stops[0].sojourn = Seconds(1.0); // allowance 150 MB < 300 MB claimed
        let v = check_plan(&s, &p, Profile::P3Partial).unwrap_err();
        assert_eq!(v.invariant, "conservation");
        assert!(v.detail.contains("B·τ"), "{v}");
    }

    /// A 1000 MB device drained at one stop whose `B · τ` allows 1500 MB.
    fn big_device(amount: f64) -> (Scenario, CollectionPlan) {
        let mut s = scenario();
        s.devices[0].data = MegaBytes(1000.0);
        let p = CollectionPlan {
            stops: vec![HoverStop {
                pos: Point2::new(50.0, 50.0),
                sojourn: Seconds(10.0),
                collected: vec![(DeviceId(0), MegaBytes(amount))],
            }],
        };
        (s, p)
    }

    #[test]
    fn per_device_bound_is_absolute() {
        let (s, p) = big_device(1000.0 + 1e-7);
        assert!(check_plan(&s, &p, Profile::P3Partial).is_ok());
        // 1e-4 MB over is inside a relative 1e-6·(1 + 1000) MB bound, but
        // past the absolute 1e-6 MB one.
        let (s, p) = big_device(1000.0 + 1e-4);
        let v = check_plan(&s, &p, Profile::P3Partial).unwrap_err();
        assert_eq!(v.invariant, "conservation");
        assert!(v.detail.contains("stores"), "{v}");
    }

    #[test]
    fn bandwidth_bound_is_absolute() {
        // B · τ = 150 MB/s · 2 s = 300 MB; the device stores 1000 MB.
        let (s, mut p) = big_device(300.0 + 1e-7);
        p.stops[0].sojourn = Seconds(2.0);
        assert!(check_plan(&s, &p, Profile::P3Partial).is_ok());
        p.stops[0].collected[0].1 = MegaBytes(300.0 + 1e-4);
        let v = check_plan(&s, &p, Profile::P3Partial).unwrap_err();
        assert_eq!(v.invariant, "conservation");
        assert!(v.detail.contains("B·τ"), "{v}");
    }

    #[test]
    fn malformed_plans_rejected() {
        let s = scenario();
        let reject = |edit: &dyn Fn(&mut CollectionPlan)| {
            let mut p = full_plan();
            edit(&mut p);
            check_plan(&s, &p, Profile::P3Partial)
                .unwrap_err()
                .invariant
        };
        assert_eq!(
            reject(&|p| p.stops[0].pos = Point2::new(f64::NAN, 50.0)),
            "closed-tour"
        );
        assert_eq!(
            reject(&|p| p.stops[0].sojourn = Seconds(-1.0)),
            "conservation"
        );
        assert_eq!(
            reject(&|p| p.stops[0].collected[0].0 = DeviceId(99)),
            "conservation"
        );
        assert_eq!(
            reject(&|p| p.stops[0].collected[0].1 = MegaBytes(f64::NAN)),
            "conservation"
        );
    }

    #[test]
    fn error_display_names_invariant() {
        let mut s = scenario();
        s.uav.capacity = Joules(100.0);
        let v = check_plan(&s, &full_plan(), Profile::P3Partial).unwrap_err();
        let text = v.to_string();
        assert!(text.starts_with("[energy-budget] "), "{text}");
        assert!(text.contains("exceeds battery"), "{text}");
    }

    #[test]
    fn out_of_coverage_rejected() {
        let s = scenario();
        let mut p = full_plan();
        p.stops[0].collected = vec![(DeviceId(1), MegaBytes(600.0))]; // ~141 m away
        let v = check_plan(&s, &p, Profile::P3Partial).unwrap_err();
        assert_eq!(v.invariant, "coverage");
    }

    #[test]
    fn fleet_double_collection_rejected() {
        let s = scenario();
        let one = CollectionPlan {
            stops: vec![full_plan().stops[0].clone()],
        };
        let fleet = FleetPlan {
            plans: vec![one.clone(), one],
        };
        let v = check_fleet(&s, &fleet, Profile::P2FullOverlap).unwrap_err();
        assert_eq!(v.invariant, "fleet-conservation");
    }

    #[test]
    fn fleet_of_disjoint_plans_passes() {
        let s = scenario();
        let a = CollectionPlan {
            stops: vec![full_plan().stops[0].clone()],
        };
        let b = CollectionPlan {
            stops: vec![full_plan().stops[1].clone()],
        };
        assert!(check_fleet(&s, &FleetPlan { plans: vec![a, b] }, Profile::P2FullOverlap).is_ok());
    }

    #[test]
    fn aux_graph_of_real_candidates_is_metric() {
        let s = scenario();
        let cs = crate::candidates::CandidateSet::build(&s, 10.0);
        let aux = AuxGraph::build(&s, &cs);
        assert!(check_aux_graph(&aux).is_ok());
    }

    #[test]
    fn hooks_report_build_configuration() {
        let expected = cfg!(all(feature = "validate", debug_assertions));
        assert_eq!(hooks_active(), expected);
    }
}
