//! Property tests of the paper-invariant validator
//! (`uavdc_core::validate`): every plan the planners emit must be
//! accepted, and corrupted plans must be rejected with the right
//! invariant.

use proptest::prelude::*;
use uavdc_core::validate::{check_fleet, check_plan, Profile};
use uavdc_core::{
    Alg1Planner, Alg2Planner, Alg3Planner, BenchmarkPlanner, CollectionPlan, FleetConfig,
    MultiUavPlanner, Planner, SweepPlanner,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

fn small_scenario(seed: u64, scale: f64) -> Scenario {
    uniform(&ScenarioParams::default().scaled(scale), seed)
}

fn planner_outputs(s: &Scenario) -> Vec<(CollectionPlan, Profile, &'static str)> {
    vec![
        (
            Alg1Planner::default().plan(s),
            Profile::P1FullDisjoint,
            "alg1",
        ),
        (
            Alg2Planner::default().plan(s),
            Profile::P2FullOverlap,
            "alg2",
        ),
        (Alg3Planner::default().plan(s), Profile::P3Partial, "alg3"),
        // Both baselines collect each device in full at its first
        // covering stop only.
        (
            BenchmarkPlanner.plan(s),
            Profile::P1FullDisjoint,
            "benchmark",
        ),
        (SweepPlanner.plan(s), Profile::P1FullDisjoint, "sweep"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance: across random scenarios and seeds, every plan the
    /// planners produce satisfies its problem's invariants.
    #[test]
    fn validator_accepts_all_planner_outputs(
        seed in 0u64..10_000,
        scale in 0.02f64..0.07,
    ) {
        let s = small_scenario(seed, scale);
        for (plan, profile, name) in planner_outputs(&s) {
            let check = check_plan(&s, &plan, profile)
                .unwrap_or_else(|v| panic!("{name} rejected on seed {seed}: {v}"));
            prop_assert!(check.energy_slack.value() >= 0.0);
            prop_assert!(
                check.devices_drained + check.devices_untouched <= s.num_devices()
            );
        }
    }

    /// Acceptance: fleet planning over the same scenarios.
    #[test]
    fn validator_accepts_fleet_plans(
        seed in 0u64..10_000,
        m in 2usize..4,
    ) {
        let s = small_scenario(seed, 0.04);
        let fleet = MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(m))
            .plan_fleet(&s);
        // The generic fleet lifter guarantees conservation (P3); each
        // inner Alg2 plan additionally satisfies full collection.
        prop_assert!(check_fleet(&s, &fleet, Profile::P3Partial).is_ok());
        for plan in &fleet.plans {
            prop_assert!(check_plan(&s, plan, Profile::P2FullOverlap).is_ok());
        }
    }

    /// Rejection — inflated budget: a plan made under a larger battery
    /// must be caught when judged against the real (smaller) one.
    #[test]
    fn validator_rejects_inflated_budget(
        seed in 0u64..10_000,
        derate in 0.1f64..0.8,
    ) {
        let s = small_scenario(seed, 0.04);
        let plan = Alg2Planner::default().plan(&s);
        let demand = plan.total_energy(&s).value();
        prop_assume!(demand > 1.0);
        let mut tight = s.clone();
        tight.uav.capacity = Joules(demand * derate);
        let v = check_plan(&tight, &plan, Profile::P2FullOverlap).unwrap_err();
        prop_assert_eq!(v.invariant, "energy-budget");
    }

    /// Rejection — dropped stop: removing a visit while re-attaching its
    /// collection to a far-away surviving stop must be caught (the
    /// devices are no longer inside the receiving stop's coverage disc).
    #[test]
    fn validator_rejects_dropped_stop(
        seed in 0u64..10_000,
    ) {
        let s = small_scenario(seed, 0.05);
        let plan = Alg2Planner::default().plan(&s);
        prop_assume!(plan.stops.len() >= 2);
        let r0 = s.coverage_radius().value();
        // Find a (dropped, receiver) pair where some dropped device lies
        // outside the receiver's coverage.
        let mut mutated = None;
        'outer: for drop_idx in 0..plan.stops.len() {
            for recv_idx in 0..plan.stops.len() {
                if recv_idx == drop_idx {
                    continue;
                }
                let recv_pos = plan.stops[recv_idx].pos;
                let escapes = plan.stops[drop_idx].collected.iter().any(|&(dev, _)| {
                    s.devices[dev.index()].pos.distance(recv_pos) > r0 + 1e-3
                });
                if escapes {
                    let mut m = plan.clone();
                    let dropped = m.stops.remove(drop_idx);
                    let recv = if recv_idx > drop_idx { recv_idx - 1 } else { recv_idx };
                    m.stops[recv].collected.extend(dropped.collected);
                    m.stops[recv].sojourn += dropped.sojourn;
                    mutated = Some(m);
                    break 'outer;
                }
            }
        }
        prop_assume!(mutated.is_some());
        let v = check_plan(&s, &mutated.unwrap(), Profile::P2FullOverlap).unwrap_err();
        prop_assert_eq!(v.invariant, "coverage");
    }

    /// Rejection — broken depot closure: a tour through a non-finite
    /// position cannot close at the depot.
    #[test]
    fn validator_rejects_broken_closure(
        seed in 0u64..10_000,
    ) {
        let s = small_scenario(seed, 0.04);
        let mut plan = Alg2Planner::default().plan(&s);
        prop_assume!(!plan.stops.is_empty());
        let last = plan.stops.len() - 1;
        plan.stops[last].pos = uavdc_geom::Point2::new(f64::NAN, 0.0);
        let v = check_plan(&s, &plan, Profile::P2FullOverlap).unwrap_err();
        prop_assert_eq!(v.invariant, "closed-tour");
    }

    /// Rejection — partial drain under a full-collection profile.
    #[test]
    fn validator_rejects_partial_drain_under_full_profiles(
        seed in 0u64..10_000,
        fraction in 0.05f64..0.9,
    ) {
        let s = small_scenario(seed, 0.04);
        let mut plan = Alg2Planner::default().plan(&s);
        let target = plan
            .stops
            .iter()
            .position(|st| st.collected.iter().any(|&(_, v)| v.value() > 1.0));
        prop_assume!(target.is_some());
        let stop = &mut plan.stops[target.unwrap()];
        for entry in &mut stop.collected {
            entry.1 = uavdc_net::units::MegaBytes(entry.1.value() * fraction);
        }
        let v = check_plan(&s, &plan, Profile::P2FullOverlap).unwrap_err();
        prop_assert_eq!(v.invariant, "full-collection");
        // The same mutation is legal partial collection under P3.
        prop_assert!(check_plan(&s, &plan, Profile::P3Partial).is_ok());
    }
}
