//! Quickstart: generate the paper's default scenario (scaled down), plan
//! a tour with each algorithm, fly it in the simulator, and print a
//! comparison table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use uavdc::prelude::*;

fn main() {
    // 100 devices in a ~450 m square, paper radio/UAV parameters.
    let params = ScenarioParams::default().scaled(0.2);
    let scenario = uniform(&params, 7);
    println!(
        "scenario: {} devices, {:.0} m x {:.0} m region, {:.1} GB stored, battery {}",
        scenario.num_devices(),
        scenario.region.width(),
        scenario.region.height(),
        megabytes_as_gb(scenario.total_data()),
        scenario.uav.capacity,
    );

    // Each planner with the paper problem whose invariants its plans keep.
    let planners: Vec<(Box<dyn Planner>, Profile)> = vec![
        (Box::new(Alg1Planner::default()), Profile::P1FullDisjoint),
        (Box::new(Alg2Planner::default()), Profile::P2FullOverlap),
        (Box::new(Alg3Planner::with_k(4)), Profile::P3Partial),
        (Box::new(BenchmarkPlanner), Profile::P1FullDisjoint),
    ];

    println!(
        "\n{:<36} {:>10} {:>8} {:>12} {:>10}",
        "planner", "GB", "stops", "energy (J)", "sim ok"
    );
    for (planner, profile) in planners {
        let plan = planner.plan(&scenario);
        check_plan(&scenario, &plan, profile).expect("planner must produce a valid plan");
        let outcome = simulate(&scenario, &plan, &SimConfig::default());
        println!(
            "{:<36} {:>10.2} {:>8} {:>12.0} {:>10}",
            planner.name(),
            megabytes_as_gb(plan.collected_volume()),
            plan.stops.len(),
            plan.total_energy(&scenario).value(),
            outcome.agrees_with_plan(&plan, &scenario),
        );
    }

    // Inspect one mission's event log.
    let plan = Alg2Planner::default().plan(&scenario);
    let outcome = simulate(&scenario, &plan, &SimConfig::default());
    println!(
        "\nAlgorithm 2 mission: {:.0} s total, {} events, first five:",
        outcome.mission_time.value(),
        outcome.trace.len()
    );
    for event in outcome.trace.events.iter().take(5) {
        println!("  {event:?}");
    }
}
