//! Multi-UAV fleet planning: how collected volume scales with the number
//! of UAVs sharing one depot, under both partitioning strategies.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use uavdc::prelude::*;

fn main() {
    // A constrained instance: the paper's density, one battery cannot
    // come close to covering it.
    let params = ScenarioParams::default().scaled(0.4); // 200 devices
    let scenario = uniform(&params, 99);
    println!(
        "{} devices, {:.1} GB stored, battery {} per UAV\n",
        scenario.num_devices(),
        megabytes_as_gb(scenario.total_data()),
        scenario.uav.capacity,
    );
    println!(
        "{:>6} {:>18} {:>12} {:>18} {:>12}",
        "UAVs", "sectors (GB)", "busiest (J)", "k-means (GB)", "busiest (J)"
    );
    for m in [1, 2, 3, 4, 6] {
        let sectors = MultiUavPlanner::new(
            Alg2Planner::default(),
            FleetConfig {
                fleet_size: m,
                partition: FleetPartition::Sectors,
            },
        )
        .plan_fleet(&scenario);
        check_fleet(&scenario, &sectors, Profile::P2FullOverlap).expect("valid fleet plan");
        let kmeans = MultiUavPlanner::new(
            Alg2Planner::default(),
            FleetConfig {
                fleet_size: m,
                partition: FleetPartition::KMeans,
            },
        )
        .plan_fleet(&scenario);
        check_fleet(&scenario, &kmeans, Profile::P2FullOverlap).expect("valid fleet plan");
        println!(
            "{:>6} {:>18.2} {:>12.0} {:>18.2} {:>12.0}",
            m,
            megabytes_as_gb(sectors.collected_volume()),
            sectors.max_energy(&scenario).value(),
            megabytes_as_gb(kmeans.collected_volume()),
            kmeans.max_energy(&scenario).value(),
        );
    }
    println!(
        "\nEach UAV flies its own battery; disjoint device partitions\n\
         guarantee no device is collected twice (check_fleet)."
    );
}
