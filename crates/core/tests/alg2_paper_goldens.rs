//! Bit-level goldens for Algorithm 2 in paper mode
//! ([`TourMode::PaperChristofides`]).
//!
//! No committed baseline runs paper mode, so these values pin it: fixed
//! seeds × three battery capacities on the ablation bench's instance size
//! (a twentieth of the paper's scale, δ = 20 m). Each case pins the plan's
//! `CollectionPlan::fingerprint` and the engine counters `iterations`,
//! `evaluations`, `full_retours` and `tour_patches`. The capacities
//! shrink with the device count, as in `alg1_goldens.rs`, so every budget
//! binds. A change to how paper mode scores or re-tours candidates that
//! moves any plan by one bit, or any counter by one, fails here.

use uavdc_core::validate::{check_plan, Profile};
use uavdc_core::{Alg2Config, Alg2Planner, TourMode};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

const SCALE: f64 = 0.05;
const CAPACITIES: [f64; 3] = [3.0e5, 6.0e5, 9.0e5];
const SEEDS: [u64; 2] = [1, 2];

fn scenario(seed: u64, capacity: f64) -> Scenario {
    let params = ScenarioParams::default()
        .scaled(SCALE)
        .with_capacity(Joules(capacity * SCALE));
    uniform(&params, seed)
}

/// `(seed, paper capacity, fingerprint, iterations, evaluations,
/// full_retours, tour_patches)`.
type Golden = (u64, f64, u64, u64, u64, u64, u64);

const GOLDENS: [Golden; 6] = [
    (1, 3e5, 0xc8734474131c2a17, 4, 76, 67, 3),
    (1, 6e5, 0xdc3365d934b7d0e1, 5, 95, 77, 4),
    (1, 9e5, 0xd8caf62bb353d693, 8, 152, 90, 7),
    (2, 3e5, 0x76b26d4c473ca05e, 4, 100, 92, 3),
    (2, 6e5, 0x6045c86338b928ff, 7, 175, 137, 6),
    (2, 9e5, 0x4d1b3707a6199622, 9, 225, 153, 8),
];

#[test]
fn paper_mode_plans_match_goldens() {
    let planner = Alg2Planner::new(Alg2Config {
        delta: 20.0,
        tour_mode: TourMode::PaperChristofides,
        ..Alg2Config::default()
    });
    let mut got = Vec::new();
    for seed in SEEDS {
        for capacity in CAPACITIES {
            let s = scenario(seed, capacity);
            let (plan, stats) = planner.plan_prepared(&s, None);
            check_plan(&s, &plan, Profile::P2FullOverlap).expect("paper-mode plan must validate");
            let c = stats.counters;
            got.push((
                seed,
                capacity,
                plan.fingerprint(),
                c.iterations,
                c.evaluations,
                c.full_retours,
                c.tour_patches,
            ));
        }
    }
    assert_eq!(got.len(), GOLDENS.len());
    for (g, want) in got.iter().zip(&GOLDENS) {
        assert_eq!(g, want, "paper-mode plan or counters moved");
    }
}
