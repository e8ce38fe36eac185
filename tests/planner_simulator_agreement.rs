//! Cross-crate integration: every planner's plan must survive independent
//! physical validation and discrete-event simulation, on every scenario
//! family.

use uavdc::net::generator;
use uavdc::net::units::Meters;
use uavdc::prelude::*;

fn planners() -> Vec<Box<dyn Planner>> {
    vec![
        Box::new(Alg1Planner::default()),
        Box::new(Alg2Planner::default()),
        Box::new(Alg3Planner::with_k(2)),
        Box::new(Alg3Planner::with_k(4)),
        Box::new(BenchmarkPlanner),
    ]
}

fn scenarios() -> Vec<(&'static str, Scenario)> {
    let params = ScenarioParams::default().scaled(0.12); // 60 devices
    vec![
        ("uniform", generator::uniform(&params, 11)),
        ("clustered", generator::clustered(&params, 4, 30.0, 12)),
        (
            "two_tier",
            generator::two_tier(&params, 200, Meters(60.0), 13),
        ),
    ]
}

#[test]
fn every_planner_validates_on_every_scenario_family() {
    for (family, scenario) in scenarios() {
        for planner in planners() {
            let plan = planner.plan(&scenario);
            check_plan(&scenario, &plan, Profile::P3Partial)
                .unwrap_or_else(|e| panic!("{} on {family}: {e}", planner.name()));
            assert!(
                plan.total_energy(&scenario) <= scenario.uav.capacity,
                "{} on {family}: over budget",
                planner.name()
            );
        }
    }
}

#[test]
fn zero_extent_regions_plan_and_check() {
    let base = generator::uniform(&ScenarioParams::default().scaled(0.01), 5);
    let regions = [
        (Point2::new(100.0, 100.0), Point2::new(100.0, 100.0)),
        (Point2::new(100.0, 100.0), Point2::new(100.0, 400.0)),
        (Point2::new(100.0, 100.0), Point2::new(400.0, 100.0)),
    ];
    let planners: Vec<Box<dyn Planner>> = vec![
        Box::new(Alg1Planner::default()),
        Box::new(Alg2Planner::default()),
        Box::new(Alg3Planner::with_k(2)),
        Box::new(BenchmarkPlanner),
    ];
    for (min, max) in regions {
        let scenario = Scenario {
            region: uavdc::geom::Aabb::new(min, max),
            devices: vec![IotDevice {
                pos: max,
                data: MegaBytes(50.0),
            }],
            ..base.clone()
        };
        scenario.validate().unwrap();
        for planner in &planners {
            let plan = planner.plan(&scenario);
            check_plan(&scenario, &plan, Profile::P3Partial)
                .unwrap_or_else(|e| panic!("{} on {min}-{max}: {e}", planner.name()));
            assert_eq!(
                plan.collected_volume(),
                MegaBytes(50.0),
                "{} on {min}-{max}",
                planner.name()
            );
        }
    }
}

#[test]
fn simulation_confirms_every_plan_end_to_end() {
    for (family, scenario) in scenarios() {
        for planner in planners() {
            let plan = planner.plan(&scenario);
            let outcome = simulate(&scenario, &plan, &SimConfig::default());
            assert!(
                outcome.completed,
                "{} on {family}: mission aborted",
                planner.name()
            );
            assert!(
                outcome.agrees_with_plan(&plan, &scenario),
                "{} on {family}: sim {} GB vs plan {} GB",
                planner.name(),
                megabytes_as_gb(outcome.collected),
                megabytes_as_gb(plan.collected_volume()),
            );
        }
    }
}

#[test]
fn opportunistic_policy_never_collects_less() {
    for (family, scenario) in scenarios() {
        for planner in planners() {
            let plan = planner.plan(&scenario);
            let strict = simulate(&scenario, &plan, &SimConfig::default());
            let opp = simulate(
                &scenario,
                &plan,
                &SimConfig {
                    policy: CollectionPolicy::Opportunistic,
                    ..SimConfig::default()
                },
            );
            assert!(
                opp.collected.value() >= strict.collected.value() - 1e-6,
                "{} on {family}: opportunistic {} < strict {}",
                planner.name(),
                opp.collected,
                strict.collected,
            );
        }
    }
}

#[test]
fn collected_never_exceeds_stored_total() {
    for (family, scenario) in scenarios() {
        let total = scenario.total_data();
        for planner in planners() {
            let plan = planner.plan(&scenario);
            assert!(
                plan.collected_volume().value() <= total.value() + 1e-6,
                "{} on {family}: collected more than stored",
                planner.name()
            );
        }
    }
}
