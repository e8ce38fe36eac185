//! Integration checks of Algorithm 1's orienteering reduction: the
//! auxiliary graph's cycle weights must equal true tour energies, and the
//! resulting plan's energy must never exceed what the orienteering
//! solution budgeted (Eq. 9's half-edge folding).

use uavdc::core::{AuxGraph, CandidateSet};
use uavdc::orienteering::{solve, Backend};
use uavdc::prelude::*;

fn scenario(seed: u64) -> Scenario {
    let params = ScenarioParams::default().scaled(0.08); // 40 devices
    uniform(&params, seed)
}

#[test]
fn aux_graph_is_metric_for_real_instances() {
    let s = scenario(1);
    let cs = CandidateSet::build(&s, 25.0);
    let aux = AuxGraph::build(&s, &cs);
    // Lemma 1: Eq. 9 weights satisfy the triangle inequality.
    assert!(aux.instance.matrix().is_metric(1e-6));
}

#[test]
fn cycle_cost_equals_hover_plus_travel_energy() {
    let s = scenario(2);
    let cs = CandidateSet::build(&s, 30.0);
    let aux = AuxGraph::build(&s, &cs);
    let per_m = s.uav.travel_energy_per_meter().value();
    // Any closed tour through the depot: Eq. 9 cycle weight == energy.
    let tour: Vec<usize> = (0..aux.instance.len().min(6)).collect();
    let cost = aux.instance.tour_cost(&tour);
    let mut travel = 0.0;
    for k in 0..tour.len() {
        let a = aux.positions[tour[k]];
        let b = aux.positions[tour[(k + 1) % tour.len()]];
        travel += a.distance(b) * per_m;
    }
    let hover: f64 = tour.iter().map(|&v| aux.hover_energy[v].value()).sum();
    assert!(
        (cost - travel - hover).abs() < 1e-6 * (1.0 + cost),
        "cycle {cost} vs travel {travel} + hover {hover}"
    );
}

#[test]
fn orienteering_budget_bounds_plan_energy() {
    let s = scenario(3);
    let cs = CandidateSet::build(&s, 25.0).disjoint_by_volume(&s);
    let aux = AuxGraph::build(&s, &cs);
    let solution = solve(&aux.instance, Backend::Greedy);
    assert!(solution.cost <= s.uav.capacity.value() + 1e-6);
    // The realised plan of Algorithm 1 can only be cheaper than the
    // orienteering tour cost (same tour, same hovers).
    let plan = Alg1Planner::default().plan(&s);
    plan.validate(&s).unwrap();
    assert!(plan.total_energy(&s).value() <= s.uav.capacity.value() + 1e-6);
}

#[test]
fn disjoint_candidates_have_exclusive_coverage() {
    let s = scenario(4);
    let dj = CandidateSet::build(&s, 20.0).disjoint_by_volume(&s);
    let mut seen = std::collections::BTreeSet::new();
    for c in dj.iter() {
        for &v in c.covered {
            assert!(
                seen.insert(v),
                "device {v} covered by two disjoint candidates"
            );
        }
    }
    assert!(!dj.is_empty());
}

#[test]
fn exact_backend_dominates_greedy_on_small_instances() {
    let params = ScenarioParams::default().scaled(0.03); // 15 devices
    for seed in 0..3 {
        let s = uniform(&params, seed);
        let exact = Alg1Planner::new(Alg1Config {
            delta: 60.0,
            backend: Backend::Exact,
            ..Alg1Config::default()
        })
        .plan(&s);
        let greedy = Alg1Planner::new(Alg1Config {
            delta: 60.0,
            backend: Backend::Greedy,
            ..Alg1Config::default()
        })
        .plan(&s);
        assert!(
            exact.collected_volume().value() >= greedy.collected_volume().value() - 1e-6,
            "seed {seed}: exact < greedy"
        );
    }
}
