//! Property tests of the lazy-greedy engine (`uavdc_core::greedy`):
//! across random scenarios, every planner running with
//! [`EngineMode::Lazy`] must emit a plan **bit-identical** to the same
//! planner running with [`EngineMode::Exhaustive`] — same stops, same
//! order, same sojourns, same collected volumes — while performing no
//! more candidate evaluations than the exhaustive bound.
//!
//! Run with `--features validate` to additionally exercise the
//! paper-invariant hooks at every planner exit and to widen the Algorithm 3
//! property to 1100 seeded cases (the CI equivalence gate); the default is
//! a quick 64.

use proptest::prelude::*;
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, EngineMode, TourMode,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

fn small_scenario(seed: u64, scale: f64) -> Scenario {
    uniform(&ScenarioParams::default().scaled(scale), seed)
}

/// Plans with both engines and asserts bit-identical output, the
/// evaluation-count bound `lazy.evaluations <= iterations * candidates`,
/// and that each run's stats name the engine that actually ran
/// (Christofides re-touring always runs exhaustively).
fn assert_alg2_equivalent(s: &Scenario, base: Alg2Config, tag: &str) {
    let lazy = Alg2Planner::new(Alg2Config {
        engine: EngineMode::Lazy,
        ..base
    });
    let full = Alg2Planner::new(Alg2Config {
        engine: EngineMode::Exhaustive,
        ..base
    });
    let (pl, sl) = lazy.plan_prepared(s, None);
    let (pf, sf) = full.plan_prepared(s, None);
    assert_eq!(pl, pf, "{tag}: lazy and exhaustive plans diverge");
    let lazy_engine = match base.tour_mode {
        TourMode::FastInsertion => EngineMode::Lazy,
        TourMode::PaperChristofides => EngineMode::Exhaustive,
    };
    assert_eq!(
        (sl.engine, sf.engine),
        (lazy_engine, EngineMode::Exhaustive),
        "{tag}: stats name the wrong engine"
    );
    assert!(
        sl.counters.evaluations <= sf.counters.exhaustive_bound(),
        "{tag}: lazy did {} evaluations, exhaustive bound is {}",
        sl.counters.evaluations,
        sf.counters.exhaustive_bound()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Algorithm 2, fast-insertion tour maintenance: the production
    /// configuration of the lazy engine (dirty invalidation + CELF heap
    /// + incremental insertion cache + periodic 2-opt rescans).
    #[test]
    fn alg2_fast_insertion_lazy_matches_exhaustive(
        seed in 0u64..10_000,
        scale in 0.05f64..0.2,
    ) {
        let s = small_scenario(seed, scale);
        assert_alg2_equivalent(&s, Alg2Config {
            tour_mode: TourMode::FastInsertion,
            ..Alg2Config::default()
        }, "alg2/fast");
    }

    /// Algorithm 2, paper-faithful Christofides re-touring: every
    /// candidate's Δtravel changes with each re-tour, so the lazy
    /// request must transparently fall back to exhaustive rescans and
    /// still agree (cubic mode — keep instances small).
    #[test]
    fn alg2_christofides_lazy_matches_exhaustive(
        seed in 0u64..10_000,
        scale in 0.02f64..0.06,
    ) {
        let s = small_scenario(seed, scale);
        assert_alg2_equivalent(&s, Alg2Config {
            tour_mode: TourMode::PaperChristofides,
            delta: 20.0,
            ..Alg2Config::default()
        }, "alg2/christofides");
    }

    /// Benchmark pruner under battery pressure: tight capacities force
    /// long pruning runs (orphan reassignment, hover max-merges, dirty
    /// loss refreshes); generous ones exit immediately. Both must agree
    /// with the from-scratch rescan.
    #[test]
    fn benchmark_lazy_matches_exhaustive(
        seed in 0u64..10_000,
        scale in 0.05f64..0.2,
        cap in 2e4f64..9e5,
    ) {
        let mut s = small_scenario(seed, scale);
        s.uav.capacity = Joules(cap);
        let (pl, sl) = BenchmarkPlanner.plan_prepared(&s, EngineMode::Lazy, None);
        let (pf, sf) = BenchmarkPlanner.plan_prepared(&s, EngineMode::Exhaustive, None);
        prop_assert_eq!(pl, pf, "benchmark diverged on seed {} cap {}", seed, cap);
        prop_assert_eq!((sl.engine, sf.engine), (EngineMode::Lazy, EngineMode::Exhaustive));
        prop_assert!(sl.counters.evaluations <= sf.counters.exhaustive_bound());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Algorithm 3 across sojourn partition counts: K = 1 degenerates to
    /// full collection, K > 1 exercises virtual hovering locations,
    /// sojourn-extension commits, and the unconditional max-k heap key.
    /// Its dirty sets come from the candidate set's device → candidate
    /// transpose.
    #[test]
    fn alg3_lazy_matches_exhaustive_over_k(
        seed in 0u64..10_000,
        scale in 0.05f64..0.2,
        k_sel in 0usize..3,
    ) {
        let k = [1usize, 2, 4][k_sel];
        let s = small_scenario(seed, scale);
        let base = Alg3Config { k, ..Alg3Config::default() };
        let lazy = Alg3Planner::new(Alg3Config { engine: EngineMode::Lazy, ..base });
        let full = Alg3Planner::new(Alg3Config { engine: EngineMode::Exhaustive, ..base });
        let (pl, sl) = lazy.plan_prepared(&s, None);
        let (pf, sf) = full.plan_prepared(&s, None);
        prop_assert_eq!(pl, pf, "alg3 K={} diverged on seed {}", k, seed);
        prop_assert_eq!((sl.engine, sf.engine), (EngineMode::Lazy, EngineMode::Exhaustive));
        prop_assert!(sl.counters.evaluations <= sf.counters.exhaustive_bound());
    }
}
