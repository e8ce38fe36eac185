//! Cross-crate integration tests for the extension layers: fleets (all
//! three strategies), plan polishing, the sweep baseline, periodic
//! campaigns, scenario persistence, and noisy simulation.

use uavdc::core::{JointFleetPlanner, SweepPlanner, TeamAlg1Planner};
use uavdc::net::io::{read_scenario, write_scenario};
use uavdc::prelude::*;
use uavdc::sim::{run_periodic, LinkModel, PeriodicConfig};

fn scenario(seed: u64) -> Scenario {
    uniform(&ScenarioParams::default().scaled(0.1), seed)
}

#[test]
fn all_fleet_strategies_validate_and_simulate() {
    let s = scenario(31);
    let fleets = vec![
        (
            "sectors",
            MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(3)).plan_fleet(&s),
            Profile::P2FullOverlap,
        ),
        (
            "kmeans",
            MultiUavPlanner::new(
                Alg2Planner::default(),
                FleetConfig {
                    fleet_size: 3,
                    partition: FleetPartition::KMeans,
                },
            )
            .plan_fleet(&s),
            Profile::P2FullOverlap,
        ),
        (
            "joint",
            JointFleetPlanner::new(3).plan_fleet(&s),
            Profile::P1FullDisjoint,
        ),
        (
            "team-alg1",
            TeamAlg1Planner::new(3).plan_fleet(&s),
            Profile::P1FullDisjoint,
        ),
    ];
    for (name, fleet, profile) in fleets {
        check_fleet(&s, &fleet, profile).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(fleet.plans.len(), 3, "{name}");
        // Every UAV's tour flies successfully in the simulator.
        for (u, plan) in fleet.plans.iter().enumerate() {
            let outcome = simulate(&s, plan, &SimConfig::default());
            assert!(outcome.completed, "{name} UAV {u} aborted");
            assert!(
                outcome.agrees_with_plan(plan, &s),
                "{name} UAV {u} accounting mismatch"
            );
        }
    }
}

#[test]
fn polishing_any_planner_preserves_collection_and_feasibility() {
    let s = scenario(32);
    for planner in [
        Box::new(Alg2Planner::default()) as Box<dyn Planner>,
        Box::new(Alg3Planner::with_k(3)),
        Box::new(BenchmarkPlanner),
        Box::new(SweepPlanner),
    ] {
        let mut plan = planner.plan(&s);
        let before_volume = plan.collected_volume();
        let before_energy = plan.total_energy(&s);
        let saved = uavdc::core::polish_plan(&mut plan, &s);
        check_plan(&s, &plan, Profile::P3Partial)
            .unwrap_or_else(|e| panic!("{}: {e}", planner.name()));
        // Stop reordering changes float summation order; compare within
        // tolerance.
        assert!(
            (plan.collected_volume().value() - before_volume.value()).abs() < 1e-6,
            "{}: volume changed",
            planner.name()
        );
        assert!(
            (before_energy.value() - plan.total_energy(&s).value() - saved.value()).abs() < 1e-6,
            "{}: energy accounting",
            planner.name()
        );
    }
}

#[test]
fn sweep_baseline_loses_to_every_paper_algorithm_when_constrained() {
    let mut s = scenario(33);
    s.uav.capacity = Joules(1.2e5);
    let sweep = SweepPlanner.plan(&s).collected_volume().value();
    for planner in [
        Box::new(Alg1Planner::default()) as Box<dyn Planner>,
        Box::new(Alg2Planner::default()),
        Box::new(Alg3Planner::with_k(2)),
    ] {
        let v = planner.plan(&s).collected_volume().value();
        assert!(
            v >= sweep * 0.95,
            "{} ({v}) should not lose to blind sweep ({sweep})",
            planner.name()
        );
    }
}

#[test]
fn scenario_roundtrip_preserves_planning_results() {
    let s = scenario(34);
    let dir = std::env::temp_dir().join("uavdc_ext_io");
    let path = dir.join("s.txt");
    write_scenario(&path, &s).unwrap();
    let back = read_scenario(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // Planning the round-tripped scenario gives bit-identical results.
    let a = Alg2Planner::default().plan(&s);
    let b = Alg2Planner::default().plan(&back);
    assert_eq!(a, b, "round-tripped scenario planned differently");
}

#[test]
fn periodic_campaign_with_real_planner_conserves_and_stabilises() {
    let s = scenario(35);
    let rates = vec![MegaBytesPerSecond(0.05); s.num_devices()];
    let cfg = PeriodicConfig {
        rounds: 5,
        period: Seconds(1200.0),
        generation_rates: rates,
        buffer_capacity: Some(MegaBytes(2000.0)),
        sim: SimConfig {
            record_uploads: false,
            ..SimConfig::default()
        },
    };
    let out = run_periodic(&s, &Alg2Planner::default(), &cfg);
    assert!(out.conserves_data());
    assert_eq!(out.rounds.len(), 5);
}

#[test]
fn noisy_simulation_is_never_better_than_nominal() {
    let s = scenario(36);
    let plan = Alg2Planner::default().plan(&s);
    let nominal = simulate(&s, &plan, &SimConfig::default());
    for seed in 0..5 {
        let noisy = simulate(
            &s,
            &plan,
            &SimConfig {
                wind: WindModel::uniform(1.0, 1.3, seed),
                link: LinkModel::uniform(0.6, 1.0, seed),
                record_uploads: false,
                ..SimConfig::default()
            },
        );
        // Wind can abort (collecting 0); link noise can truncate uploads;
        // neither can create data from nowhere.
        assert!(noisy.collected.value() <= nominal.collected.value() + 1e-6);
        assert!(noisy.energy_used.value() <= s.uav.capacity.value() + 1e-6);
    }
}

#[test]
fn svg_rendering_works_for_every_planner() {
    let s = scenario(37);
    for planner in [
        Box::new(Alg2Planner::default()) as Box<dyn Planner>,
        Box::new(SweepPlanner),
        Box::new(BenchmarkPlanner),
    ] {
        let plan = planner.plan(&s);
        let svg = uavdc::viz::render_plan_svg(&s, &plan);
        assert!(svg.starts_with("<svg"), "{}", planner.name());
        assert!(svg.contains("<polyline"), "{}", planner.name());
    }
}
