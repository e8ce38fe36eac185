//! Fast, reduced-scale checks of the qualitative results the paper
//! reports in §VII. The full-scale numbers live in EXPERIMENTS.md and are
//! regenerated by `cargo run -p uavdc-bench --bin experiments -- all`.

use uavdc::prelude::*;

/// ~100 devices in a 450 m square with the paper's energy accounting and
/// a battery scaled so the instance is genuinely constrained.
fn constrained_scenario(seed: u64, capacity: f64) -> Scenario {
    let params = ScenarioParams::default().scaled(0.2);
    let mut s = uniform(&params, seed);
    s.uav.capacity = Joules(capacity);
    s
}

fn mean_volume(planner: &dyn Planner, capacity: f64) -> f64 {
    (0..4)
        .map(|seed| {
            let s = constrained_scenario(seed, capacity);
            let plan = planner.plan(&s);
            check_plan(&s, &plan, Profile::P3Partial).unwrap();
            megabytes_as_gb(plan.collected_volume())
        })
        .sum::<f64>()
        / 4.0
}

#[test]
fn fig3_shape_alg1_beats_benchmark_and_gap_grows() {
    // The paper: Algorithm 1 collects ~2x the benchmark at E = 3e5 and
    // the absolute gap widens as E grows.
    let (e_low, e_high) = (6.0e4, 1.2e5);
    let a1_low = mean_volume(&Alg1Planner::default(), e_low);
    let b_low = mean_volume(&BenchmarkPlanner, e_low);
    let a1_high = mean_volume(&Alg1Planner::default(), e_high);
    let b_high = mean_volume(&BenchmarkPlanner, e_high);
    assert!(
        a1_low > b_low,
        "alg1 {a1_low} <= benchmark {b_low} at low E"
    );
    assert!(
        a1_high > b_high,
        "alg1 {a1_high} <= benchmark {b_high} at high E"
    );
    assert!(
        a1_high - b_high > (a1_low - b_low) * 0.8,
        "gap should not collapse: low {}, high {}",
        a1_low - b_low,
        a1_high - b_high
    );
}

#[test]
fn fig4_shape_algorithms_beat_benchmark_with_overlap() {
    let e = 8.0e4;
    let a2 = mean_volume(&Alg2Planner::default(), e);
    let a3 = mean_volume(&Alg3Planner::with_k(4), e);
    let bench = mean_volume(&BenchmarkPlanner, e);
    assert!(a2 > bench, "alg2 {a2} <= benchmark {bench}");
    assert!(a3 > bench, "alg3 {a3} <= benchmark {bench}");
    // Partial collection is within a few percent of (typically above)
    // full collection.
    assert!(a3 >= 0.93 * a2, "alg3 {a3} far below alg2 {a2}");
}

#[test]
fn fig5_shape_volume_grows_with_battery() {
    for planner in [
        Box::new(Alg2Planner::default()) as Box<dyn Planner>,
        Box::new(Alg3Planner::with_k(2)),
        Box::new(BenchmarkPlanner),
    ] {
        let series: Vec<f64> = [5.0e4, 1.0e5, 1.5e5]
            .iter()
            .map(|&e| mean_volume(planner.as_ref(), e))
            .collect();
        assert!(
            series[1] >= series[0] - 0.2 && series[2] >= series[1] - 0.2,
            "{}: not growing with E: {series:?}",
            planner.name()
        );
        assert!(
            series[2] > series[0],
            "{}: tripling E gained nothing: {series:?}",
            planner.name()
        );
    }
}

#[test]
fn delta_refinement_does_not_hurt_much() {
    // Paper Fig. 4(a): finer grids collect at least as much data. Greedy
    // noise allows small inversions; large regressions would be a bug.
    let s = constrained_scenario(1, 8.0e4);
    let fine = Alg2Planner::new(Alg2Config {
        delta: 5.0,
        ..Alg2Config::default()
    })
    .plan(&s)
    .collected_volume()
    .value();
    let coarse = Alg2Planner::new(Alg2Config {
        delta: 30.0,
        ..Alg2Config::default()
    })
    .plan(&s)
    .collected_volume()
    .value();
    assert!(
        fine >= 0.85 * coarse,
        "fine grid {fine} far below coarse {coarse}"
    );
}

#[test]
fn hover_dominant_regime_rewards_partial_collection() {
    // The mechanism the paper credits for Algorithm 3: when hovering is
    // the dominant energy cost (slow uplink), fractional sojourns win.
    let params = ScenarioParams {
        bandwidth: MegaBytesPerSecond(5.0),
        ..ScenarioParams::default().scaled(0.2)
    };
    let mut a2_total = 0.0;
    let mut a3_total = 0.0;
    for seed in 0..4 {
        let scenario = uniform(&params, seed);
        a2_total += Alg2Planner::default()
            .plan(&scenario)
            .collected_volume()
            .value();
        a3_total += Alg3Planner::with_k(4)
            .plan(&scenario)
            .collected_volume()
            .value();
    }
    assert!(
        a3_total > a2_total,
        "partial collection should win when hover dominates: alg3 {a3_total} vs alg2 {a2_total}"
    );
}
