//! Differential harness for Algorithm 2's incremental tour maintenance
//! (DESIGN.md §15): across random scenarios, capacities and grid
//! resolutions, the planner must emit **bit-identical**
//! [`CollectionPlan`]s no matter which engine drives the greedy loop:
//!
//! * [`TourMode::FastInsertion`]: lazy ≡ exhaustive, with the
//!   incremental-tour counters (`tour_patches`, `full_retours`) agreeing
//!   exactly across engines — both engines drive the same tour-state
//!   evolution, they only differ in how many candidates they score.
//! * [`TourMode::PaperChristofides`] has one loop, the exhaustive one: a
//!   lazy request is overridden to it. A deterministic test pins that
//!   override on a few seeds (the plans themselves are pinned by
//!   `alg2_paper_goldens`).
//!
//! Run with `--features validate` to widen every property to >= 1024
//! seeded cases (and to enable the paper-invariant exit hooks); the
//! default is a quick pass.

use proptest::prelude::*;
use uavdc_core::{Alg2Config, Alg2Planner, CollectionPlan, EngineMode, PlanStats, TourMode};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

fn cases(quick: u32) -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        quick
    }
}

fn scenario(seed: u64, scale: f64, capacity_kj: f64) -> Scenario {
    let params = ScenarioParams::default()
        .scaled(scale)
        .with_capacity(Joules(capacity_kj * 1000.0));
    uniform(&params, seed)
}

fn run(s: &Scenario, config: Alg2Config) -> (CollectionPlan, PlanStats) {
    Alg2Planner::new(config).plan_prepared(s, None)
}

/// Plans with both engines and asserts full-plan and tour-counter
/// equality; returns the (shared) plan and the lazy stats.
fn assert_engines_equivalent(
    s: &Scenario,
    base: Alg2Config,
    tag: &str,
) -> (CollectionPlan, PlanStats) {
    let (pl, sl) = run(
        s,
        Alg2Config {
            engine: EngineMode::Lazy,
            ..base
        },
    );
    let (pf, sf) = run(
        s,
        Alg2Config {
            engine: EngineMode::Exhaustive,
            ..base
        },
    );
    prop_assert_eq!(&pl, &pf, "{}: lazy and exhaustive plans diverge", tag);
    prop_assert_eq!(
        sl.counters.iterations,
        sf.counters.iterations,
        "{}: iteration counts diverge",
        tag
    );
    prop_assert_eq!(
        sl.counters.tour_patches,
        sf.counters.tour_patches,
        "{}: tour_patches diverge across engines",
        tag
    );
    prop_assert_eq!(
        sl.counters.full_retours,
        sf.counters.full_retours,
        "{}: full_retours diverge across engines",
        tag
    );
    prop_assert!(
        sl.counters.evaluations <= sf.counters.exhaustive_bound(),
        "{}: lazy did {} evaluations, exhaustive bound is {}",
        tag,
        sl.counters.evaluations,
        sf.counters.exhaustive_bound()
    );
    (pl, sl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// **Tentpole**: fast-insertion mode — the production configuration —
    /// across engines. Every accepted candidate is an insertion-splice
    /// patch, so `tour_patches` must cover at least the emitted stops,
    /// and fast mode never runs a full Christofides rebuild.
    #[test]
    fn fast_insertion_engines_agree(
        seed in 0u64..100_000,
        scale in 0.05f64..0.2,
        delta in 5.0f64..25.0,
        capacity_kj in 80.0f64..400.0,
    ) {
        let s = scenario(seed, scale, capacity_kj);
        let (plan, stats) = assert_engines_equivalent(&s, Alg2Config {
            tour_mode: TourMode::FastInsertion,
            delta,
            ..Alg2Config::default()
        }, "alg2/fast");
        prop_assert!(
            stats.counters.tour_patches >= plan.stops.len() as u64,
            "{} stops cannot come from {} patches",
            plan.stops.len(),
            stats.counters.tour_patches
        );
        prop_assert_eq!(stats.counters.full_retours, 0u64,
            "fast-insertion mode must never run a full rebuild");
    }

    /// Disabling dominated-candidate pruning changes the candidate set
    /// the engines race over but must not change the engine equivalence.
    #[test]
    fn fast_insertion_agrees_without_pruning(
        seed in 0u64..100_000,
        scale in 0.05f64..0.12,
    ) {
        let s = scenario(seed, scale, 200.0);
        assert_engines_equivalent(&s, Alg2Config {
            tour_mode: TourMode::FastInsertion,
            prune_dominated: false,
            ..Alg2Config::default()
        }, "alg2/fast/noprune");
    }
}

/// Paper mode overrides a lazy request to the exhaustive loop: the stats
/// name the engine that ran, and plan and stats equal an exhaustive
/// request's. Every scored candidate is a full Christofides re-tour, so a
/// plan with stops has `full_retours > 0`.
#[test]
fn paper_mode_overrides_lazy_to_exhaustive() {
    for (seed, capacity_kj) in [(1, 80.0), (7, 150.0), (42, 240.0)] {
        let s = scenario(seed, 0.05, capacity_kj);
        let paper = |engine| Alg2Config {
            tour_mode: TourMode::PaperChristofides,
            engine,
            ..Alg2Config::default()
        };
        let (lazy_plan, lazy_stats) = run(&s, paper(EngineMode::Lazy));
        let (plan, stats) = run(&s, paper(EngineMode::Exhaustive));
        assert_eq!(lazy_stats.engine, EngineMode::Exhaustive, "seed {seed}");
        assert_eq!(lazy_plan, plan, "seed {seed}");
        assert_eq!(lazy_stats, stats, "seed {seed}");
        assert!(!plan.stops.is_empty(), "seed {seed}: no stops");
        assert!(stats.counters.full_retours > 0, "seed {seed}");
    }
}
