//! Smart-city scenario: thousands of raw IoT devices cluster around
//! facilities; aggregate nodes are elected and non-aggregate devices
//! forward their data to them (the paper's §III.A system model), then an
//! energy-constrained UAV collects from the aggregates.
//!
//! Demonstrates the two-tier topology pipeline plus planning over a
//! clustered (non-uniform) deployment.
//!
//! ```text
//! cargo run --release --example smart_city
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc::net::topology::{aggregate_network, RawDevice};
use uavdc::net::units::Meters as M;
use uavdc::prelude::*;

fn main() {
    // --- Raw deployment: 2000 devices around 8 facilities ------------
    let mut rng = SmallRng::seed_from_u64(2024);
    let side = 1000.0;
    let facilities: Vec<Point2> = (0..8)
        .map(|_| {
            Point2::new(
                rng.gen_range(100.0..side - 100.0),
                rng.gen_range(100.0..side - 100.0),
            )
        })
        .collect();
    let mut raw = Vec::new();
    while raw.len() < 2000 {
        let c = facilities[rng.gen_range(0..facilities.len())];
        let (u1, u2): (f64, f64) = (rng.gen_range(1e-9..1.0f64), rng.gen_range(0.0..1.0));
        let r = 60.0 * (-2.0 * u1.ln()).sqrt();
        let th = 2.0 * std::f64::consts::PI * u2;
        let p = Point2::new(c.x + r * th.cos(), c.y + r * th.sin());
        if p.x < 0.0 || p.x > side || p.y < 0.0 || p.y > side {
            continue;
        }
        raw.push(RawDevice {
            pos: p,
            data: MegaBytes(rng.gen_range(10.0..80.0)),
        });
    }
    let total_raw: f64 = raw.iter().map(|d| d.data.value()).sum();

    // --- Aggregate election + forwarding (comm range 40 m) -----------
    let outcome = aggregate_network(&raw, M(40.0));
    println!(
        "raw devices: {} ({:.1} GB) -> aggregates: {} ({:.1} GB), stranded: {}",
        raw.len(),
        total_raw / 1000.0,
        outcome.aggregates.len(),
        megabytes_as_gb(outcome.aggregated_data()),
        outcome.stranded.len(),
    );

    // --- Scenario over the aggregates ---------------------------------
    let scenario = Scenario {
        region: uavdc::geom::Aabb::square(side),
        devices: outcome.aggregates,
        depot: Point2::new(side / 2.0, side / 2.0),
        radio: RadioModel::with_ground_radius(M(50.0), M(0.0), MegaBytesPerSecond(150.0)),
        uav: UavSpec::paper_eval(),
    };
    scenario.validate().expect("valid scenario");

    // --- Plan and fly --------------------------------------------------
    for (planner, profile) in [
        (
            Box::new(Alg2Planner::default()) as Box<dyn Planner>,
            Profile::P2FullOverlap,
        ),
        (Box::new(Alg3Planner::with_k(4)), Profile::P3Partial),
        (Box::new(BenchmarkPlanner), Profile::P1FullDisjoint),
    ] {
        let plan = planner.plan(&scenario);
        check_plan(&scenario, &plan, profile).unwrap();
        let sim = simulate(&scenario, &plan, &SimConfig::default());
        assert!(sim.agrees_with_plan(&plan, &scenario));
        println!(
            "{:<36} collected {:>7.2} GB at {:>3} stops ({:.0}% of aggregated data)",
            planner.name(),
            megabytes_as_gb(plan.collected_volume()),
            plan.stops.len(),
            100.0 * plan.collected_volume().value() / scenario.total_data().value(),
        );
    }
}
