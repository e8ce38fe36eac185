//! Robustness study: plans are budgeted in calm air, but real missions
//! fight headwind. How much battery margin does the operator need to
//! reserve for the UAV to make it home?
//!
//! For each reserve fraction we plan against a *derated* battery and then
//! simulate against the full battery under per-leg wind noise, measuring
//! completion rate and the data actually brought home (a crashed UAV
//! brings home nothing).
//!
//! ```text
//! cargo run --release --example windy_mission
//! ```

use uavdc::prelude::*;

fn main() {
    let gusty = (1.0, 1.5); // per-leg travel-energy factor range
    let trials = 20;
    println!(
        "wind: uniform per-leg factor in [{}, {}], {trials} missions per point",
        gusty.0, gusty.1
    );
    println!(
        "\n{:>10} {:>12} {:>14} {:>16}",
        "margin %", "planned GB", "completed %", "delivered GB"
    );
    for margin in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let mut planned = 0.0;
        let mut completed = 0;
        let mut delivered = 0.0;
        for seed in 0..trials {
            let params = ScenarioParams::default().scaled(0.2);
            let scenario = uniform(&params, seed);
            // Plan with a derated battery...
            let mut derated = scenario.clone();
            derated.uav.capacity = scenario.uav.capacity * (1.0 - margin);
            let plan = Alg2Planner::default().plan(&derated);
            check_plan(&derated, &plan, Profile::P2FullOverlap).unwrap();
            planned += megabytes_as_gb(plan.collected_volume());
            // ...fly with the full battery in gusty air.
            let cfg = SimConfig {
                wind: WindModel::uniform(gusty.0, gusty.1, seed ^ 0xabcd),
                ..SimConfig::default()
            };
            let outcome = simulate(&scenario, &plan, &cfg);
            if outcome.completed {
                completed += 1;
            }
            delivered += megabytes_as_gb(outcome.collected);
        }
        let n = trials as f64;
        println!(
            "{:>10.0} {:>12.2} {:>14.0} {:>16.2}",
            margin * 100.0,
            planned / n,
            100.0 * completed as f64 / n,
            delivered / n,
        );
    }
    println!(
        "\nReading: without margin most missions die mid-air and deliver\n\
         nothing; each 10% of reserved battery trades planned volume for\n\
         completion rate, and delivered volume peaks at a moderate margin."
    );
}
