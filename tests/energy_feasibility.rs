//! Property-based integration tests: across random scenario parameters,
//! every planner stays within budget and behaves monotonically where the
//! problem structure demands it.

use proptest::prelude::*;
use uavdc::prelude::*;

fn make_scenario(devices: usize, capacity: f64, seed: u64) -> Scenario {
    let params = ScenarioParams {
        num_devices: devices,
        region_side: 400.0,
        ..ScenarioParams::default()
    };
    let mut s = uniform(&params, seed);
    s.uav.capacity = Joules(capacity);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_all_planners_respect_any_budget(
        devices in 5usize..40,
        capacity in 0.0f64..4.0e5,
        seed in 0u64..1000,
    ) {
        let scenario = make_scenario(devices, capacity, seed);
        let planners: Vec<(Box<dyn Planner>, Profile)> = vec![
            (Box::new(Alg1Planner::default()), Profile::P1FullDisjoint),
            (Box::new(Alg2Planner::default()), Profile::P2FullOverlap),
            (Box::new(Alg3Planner::with_k(2)), Profile::P3Partial),
            (Box::new(BenchmarkPlanner), Profile::P1FullDisjoint),
        ];
        for (planner, profile) in planners {
            let plan = planner.plan(&scenario);
            let checked = check_plan(&scenario, &plan, profile);
            prop_assert!(checked.is_ok(), "{}: {:?}", planner.name(), checked);
            prop_assert!(plan.total_energy(&scenario).value() <= capacity + 1e-6,
                "{} over budget", planner.name());
        }
    }

    #[test]
    fn prop_alg2_volume_monotone_in_budget(
        devices in 10usize..30,
        seed in 0u64..200,
    ) {
        let low = make_scenario(devices, 1.0e5, seed);
        let high = make_scenario(devices, 3.0e5, seed);
        let v_low = Alg2Planner::default().plan(&low).collected_volume().value();
        let v_high = Alg2Planner::default().plan(&high).collected_volume().value();
        // Greedy is not perfectly monotone, but tripling the budget must
        // not lose data.
        prop_assert!(v_high >= v_low - 1e-6, "budget x3 lost data: {v_low} -> {v_high}");
    }

    #[test]
    fn prop_alg3_more_partitions_never_invalid(
        devices in 5usize..25,
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        let scenario = make_scenario(devices, 2.0e5, seed);
        let plan = Alg3Planner::with_k(k).plan(&scenario);
        prop_assert!(check_plan(&scenario, &plan, Profile::P3Partial).is_ok());
        // Every stop's sojourn is non-negative and every amount is
        // bandwidth-feasible (check_plan checks this, but assert the
        // aggregate too).
        let b = scenario.radio.bandwidth.value();
        for stop in &plan.stops {
            let per_stop: f64 = stop.collected.iter().map(|&(_, v)| v.value()).sum();
            let covered = scenario
                .devices
                .iter()
                .filter(|d| d.pos.distance(stop.pos) <= scenario.coverage_radius().value() + 1e-9)
                .count();
            prop_assert!(per_stop <= b * stop.sojourn.value() * covered as f64 + 1e-6);
        }
    }

    #[test]
    fn prop_simulation_energy_never_exceeds_capacity(
        devices in 5usize..30,
        capacity in 1.0e4f64..3.0e5,
        seed in 0u64..500,
    ) {
        let scenario = make_scenario(devices, capacity, seed);
        let plan = Alg2Planner::default().plan(&scenario);
        let outcome = simulate(&scenario, &plan, &SimConfig::default());
        prop_assert!(outcome.energy_used.value() <= capacity + 1e-6);
        prop_assert!(outcome.completed);
    }
}
