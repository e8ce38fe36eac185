//! Property tests tying the open-loop simulator to the planners'
//! accounting.
//!
//! Under undisturbed conditions (`WindModel::calm()` +
//! `LinkModel::nominal()` + `CollectionPolicy::PlanStrict`) the
//! simulator must reproduce the planner's accounting *bit-for-bit*. The
//! two sides fold floats in different orders (the plan sums tour length
//! before multiplying by η_t/v, the simulator accumulates leg by leg),
//! and float addition is not associative — so the bitwise oracle is a
//! **mission-order reference accountant**: the plan's own numbers
//! (distances, sojourns, scheduled volumes) folded in exactly the order
//! the mission executes them. The simulator shares no code with it (the
//! reference lives in this test file); any divergence in the physics,
//! the upload capping, or the RNG-identity contract of the calm models
//! flips bits here.
//!
//! The plan's aggregate accessors (`total_energy`, `duration`,
//! `collected_volume`) are additionally checked within the validator's
//! tolerance, closing the loop planner → plan → simulation.

use proptest::prelude::*;
use uavdc_core::validate::{check_plan, Profile};
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, CollectionPlan, EngineMode,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::Scenario;
use uavdc_sim::{simulate, SimConfig, SimOutcome};

/// Replays the plan's accounting in mission order: the exact op
/// sequence of the simulator, fed only by plan data and scenario
/// constants.
struct Reference {
    energy: f64,
    time: f64,
    volume: f64,
}

fn mission_order_reference(scenario: &Scenario, plan: &CollectionPlan) -> Reference {
    let speed = scenario.uav.speed.value();
    let eta_h = scenario.uav.hover_power.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let capacity = scenario.uav.capacity.value();
    let b = scenario.radio.bandwidth.value();

    let mut residual: Vec<f64> = scenario.devices.iter().map(|d| d.data.value()).collect();
    let mut per_device = vec![0.0f64; scenario.num_devices()];
    let mut t = 0.0f64;
    let mut energy = 0.0f64;
    let mut pos = scenario.depot;

    let leg = |pos: &mut uavdc_geom::Point2, to, t: &mut f64, energy: &mut f64| {
        let dist = pos.distance(to);
        if dist > 0.0 {
            *t += dist / speed;
            *energy += dist * per_m;
            *pos = to;
        }
    };
    for stop in &plan.stops {
        leg(&mut pos, stop.pos, &mut t, &mut energy);
        let sojourn = stop.sojourn.value();
        let affordable = ((capacity - energy) / eta_h).max(0.0);
        let actual_sojourn = sojourn.min(affordable);
        // PlanStrict: per-device totals scheduled at this stop, in plan
        // order, capped by bandwidth × window and the device's residual.
        let mut scheduled: Vec<(u32, f64)> = Vec::new();
        for &(dev, amount) in &stop.collected {
            match scheduled.iter_mut().find(|(d, _)| *d == dev.0) {
                Some((_, a)) => *a += amount.value(),
                None => scheduled.push((dev.0, amount.value())),
            }
        }
        for (dev, want) in scheduled {
            let i = dev as usize;
            let can = (b * actual_sojourn).min(residual[i]);
            let got = want.min(can);
            if got > 0.0 {
                residual[i] -= got;
                per_device[i] += got;
            }
        }
        t += actual_sojourn;
        energy += actual_sojourn * eta_h;
    }
    leg(&mut pos, scenario.depot, &mut t, &mut energy);
    Reference {
        energy,
        time: t,
        volume: per_device.iter().sum(),
    }
}

fn assert_matches_accounting(
    scenario: &Scenario,
    plan: &CollectionPlan,
    profile: Profile,
    label: &str,
) {
    check_plan(scenario, plan, profile)
        .unwrap_or_else(|e| panic!("{label}: planner emitted an invalid plan: {e:?}"));
    let out: SimOutcome = simulate(scenario, plan, &SimConfig::default());
    out.trace
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{label}: malformed trace: {e}"));
    assert!(out.completed, "{label}: calm mission must complete");
    assert!(
        out.agrees_with_plan(plan, scenario),
        "{label}: outcome disagrees with plan"
    );

    let reference = mission_order_reference(scenario, plan);
    assert_eq!(
        out.energy_used.value().to_bits(),
        reference.energy.to_bits(),
        "{label}: energy differs from mission-order accounting ({} vs {})",
        out.energy_used.value(),
        reference.energy
    );
    assert_eq!(
        out.mission_time.value().to_bits(),
        reference.time.to_bits(),
        "{label}: time differs from mission-order accounting ({} vs {})",
        out.mission_time.value(),
        reference.time
    );
    assert_eq!(
        out.collected.value().to_bits(),
        reference.volume.to_bits(),
        "{label}: volume differs from mission-order accounting ({} vs {})",
        out.collected.value(),
        reference.volume
    );

    // And the plan's own aggregate accessors agree within the
    // validator's tolerance (they fold in a different order).
    let tol = 1e-6 * (1.0 + scenario.uav.capacity.value());
    assert!(
        (out.energy_used.value() - plan.total_energy(scenario).value()).abs() <= tol,
        "{label}: energy vs plan.total_energy"
    );
    assert!(
        (out.mission_time.value() - plan.duration(scenario).value()).abs()
            <= 1e-6 * (1.0 + plan.duration(scenario).value()),
        "{label}: time vs plan.duration"
    );
    assert!(
        (out.collected.value() - plan.collected_volume().value()).abs()
            <= 1e-6 * (1.0 + plan.collected_volume().value()),
        "{label}: volume vs plan.collected_volume"
    );
}

fn scenario_for(seed: u64, scale_pct: u64) -> Scenario {
    let params = ScenarioParams::default().scaled(scale_pct as f64 / 1000.0);
    uniform(&params, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Algorithm 2 (overlap-aware greedy insertion), both engines.
    #[test]
    fn alg2_accounting_is_bit_exact(seed in 0u64..1_000_000, scale in 20u64..60) {
        let scenario = scenario_for(seed, scale);
        for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
            let planner = Alg2Planner::new(Alg2Config {
                engine,
                ..Alg2Config::default()
            });
            let (plan, _) = planner.plan_prepared(&scenario, None);
            assert_matches_accounting(
                &scenario,
                &plan,
                Profile::P2FullOverlap,
                &format!("alg2/{engine:?}/seed={seed}"),
            );
        }
    }

    /// Algorithm 3 (partial collection, K virtual stops), both engines.
    #[test]
    fn alg3_accounting_is_bit_exact(seed in 0u64..1_000_000, scale in 20u64..60) {
        let scenario = scenario_for(seed, scale);
        for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
            let planner = Alg3Planner::new(Alg3Config {
                engine,
                ..Alg3Config::default()
            });
            let (plan, _) = planner.plan_prepared(&scenario, None);
            assert_matches_accounting(
                &scenario,
                &plan,
                Profile::P3Partial,
                &format!("alg3/{engine:?}/seed={seed}"),
            );
        }
    }

    /// §VII.A benchmark (Christofides + prune-until-feasible), both engines.
    #[test]
    fn benchmark_accounting_is_bit_exact(seed in 0u64..1_000_000, scale in 20u64..60) {
        let scenario = scenario_for(seed, scale);
        for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
            let (plan, _) = BenchmarkPlanner.plan_prepared(&scenario, engine, None);
            assert_matches_accounting(
                &scenario,
                &plan,
                Profile::P1FullDisjoint,
                &format!("bench/{engine:?}/seed={seed}"),
            );
        }
    }
}
