//! Reproducibility: everything in the pipeline is seeded, so identical
//! inputs must give bitwise-identical outputs across runs.

use std::sync::Barrier;
use uavdc::prelude::*;

fn plan_volume(planner: &dyn Planner, seed: u64) -> (usize, f64, f64) {
    let params = ScenarioParams::default().scaled(0.1);
    let scenario = uniform(&params, seed);
    let plan = planner.plan(&scenario);
    (
        plan.stops.len(),
        plan.collected_volume().value(),
        plan.total_energy(&scenario).value(),
    )
}

#[test]
fn planners_are_deterministic_per_seed() {
    let planners: Vec<Box<dyn Planner>> = vec![
        Box::new(Alg1Planner::default()),
        Box::new(Alg2Planner::default()),
        Box::new(Alg3Planner::with_k(3)),
        Box::new(BenchmarkPlanner),
    ];
    for planner in &planners {
        let a = plan_volume(planner.as_ref(), 5);
        let b = plan_volume(planner.as_ref(), 5);
        assert_eq!(a, b, "{} not deterministic", planner.name());
    }
}

#[test]
fn different_seeds_give_different_instances() {
    let a = plan_volume(&Alg2Planner::default(), 1);
    let b = plan_volume(&Alg2Planner::default(), 2);
    assert_ne!(a, b, "different seeds should not coincide exactly");
}

#[test]
fn concurrent_requests_match_serial_plans() {
    // Planners are serial; threads run only between requests. Planning
    // one scenario on four threads at once (released together by a
    // barrier) must hand every thread the serial plan, so no planner
    // shares mutable state across calls.
    let params = ScenarioParams::default().scaled(0.1);
    let scenario = uniform(&params, 9);
    let planners: Vec<Box<dyn Planner + Sync>> = vec![
        Box::new(Alg2Planner::default()),
        Box::new(Alg3Planner::with_k(2)),
        Box::new(BenchmarkPlanner),
    ];
    for planner in &planners {
        let serial = planner.plan(&scenario);
        let start = Barrier::new(4);
        let concurrent: Vec<CollectionPlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        planner.plan(&scenario)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("planning thread panicked"))
                .collect()
        });
        for plan in &concurrent {
            assert_eq!(plan, &serial, "{}: concurrent plan differs", planner.name());
        }
    }
}

#[test]
fn simulation_is_deterministic_including_wind() {
    let params = ScenarioParams::default().scaled(0.1);
    let scenario = uniform(&params, 3);
    let plan = Alg2Planner::default().plan(&scenario);
    let cfg = SimConfig {
        wind: WindModel::uniform(1.0, 1.4, 77),
        ..SimConfig::default()
    };
    let a = simulate(&scenario, &plan, &cfg);
    let b = simulate(&scenario, &plan, &cfg);
    assert_eq!(a.collected.value(), b.collected.value());
    assert_eq!(a.energy_used.value(), b.energy_used.value());
    assert_eq!(a.trace.len(), b.trace.len());
}
