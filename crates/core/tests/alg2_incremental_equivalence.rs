//! Differential harness for Algorithm 2's incremental tour maintenance
//! (DESIGN.md §15): across random scenarios, capacities and grid
//! resolutions, the planner must emit **bit-identical**
//! [`CollectionPlan`]s no matter which engine drives the greedy loop or
//! how the tour cache is warmed:
//!
//! * [`TourMode::FastInsertion`]: lazy ≡ exhaustive, with the
//!   incremental-tour counters (`tour_patches`, `full_retours`) agreeing
//!   exactly across engines — both engines drive the same tour-state
//!   evolution, they only differ in how many candidates they score.
//! * [`TourMode::PaperChristofides`]: lazy ≡ exhaustive, and the
//!   speculative matching memo ([`Alg2Config::speculative_cache`]) is
//!   invisible — cache on ≡ cache off, bit for bit.
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

proptest! {
    // Paper mode re-runs Christofides per scored candidate, so the quick
    // pass uses fewer, smaller cases; `validate` still widens to >= 1024.
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Paper mode across engines, and speculative-cache invisibility:
    /// the memoised odd-vertex matching must only ever skip work, never
    /// change a plan.
    #[test]
    fn paper_mode_engines_and_cache_agree(
        seed in 0u64..100_000,
        scale in 0.03f64..0.08,
        capacity_kj in 60.0f64..250.0,
    ) {
        let s = scenario(seed, scale, capacity_kj);
        let base = Alg2Config {
            tour_mode: TourMode::PaperChristofides,
            ..Alg2Config::default()
        };
        let (cached_plan, cached_stats) = assert_engines_equivalent(&s, Alg2Config {
            speculative_cache: true,
            ..base
        }, "alg2/paper/cached");
        let (cold_plan, cold_stats) = assert_engines_equivalent(&s, Alg2Config {
            speculative_cache: false,
            ..base
        }, "alg2/paper/cold");
        prop_assert_eq!(&cached_plan, &cold_plan,
            "speculative cache changed the plan");
        prop_assert_eq!(
            cached_stats.counters.iterations,
            cold_stats.counters.iterations,
            "speculative cache changed the iteration count"
        );
        if !cached_plan.stops.is_empty() {
            prop_assert!(
                cached_stats.counters.full_retours > 0,
                "paper mode scored {} stops without a single rebuild",
                cached_plan.stops.len()
            );
        }
    }
}
