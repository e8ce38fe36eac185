//! Property tests of the observability contract (DESIGN.md §10): a
//! recorder must **never influence planning**. For every planner and
//! both engine modes, running with the recorder-free entry point, with
//! the explicit [`NoopRecorder`], and with a live [`CollectingRecorder`]
//! must produce bit-identical plans and identical [`PlanStats`] — the
//! recorder only *watches*. The phase spans the perf baseline reads its
//! timings from are checked here too.
//!
//! Run with `--features validate` to additionally exercise the
//! paper-invariant hooks at every planner exit.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use uavdc_core::{
    Alg1Planner, Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner,
    CollectionPlan, EngineMode, PlanStats, Planner,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::Scenario;
use uavdc_obs::{Clock, CollectingRecorder, ManualClock, NoopRecorder, Recorder, RunReport};

fn small_scenario(seed: u64, scale: f64) -> Scenario {
    uniform(&ScenarioParams::default().scaled(scale), seed)
}

/// Runs one planner closure under the three recorder regimes and checks
/// that plans and stats are identical.
fn assert_recorder_invisible(
    tag: &str,
    plain: impl Fn() -> (CollectionPlan, PlanStats),
    with_rec: impl Fn(&dyn Recorder) -> (CollectionPlan, PlanStats),
) -> CollectingRecorder {
    let (plan_plain, stats_plain) = plain();
    let (plan_noop, stats_noop) = with_rec(&NoopRecorder);
    let collecting = CollectingRecorder::new();
    let (plan_coll, stats_coll) = with_rec(&collecting);

    assert_eq!(
        plan_plain, plan_noop,
        "{tag}: noop recorder changed the plan"
    );
    assert_eq!(
        plan_plain, plan_coll,
        "{tag}: collecting recorder changed the plan"
    );
    assert_eq!(
        plan_plain.fingerprint(),
        plan_coll.fingerprint(),
        "{tag}: fingerprints must agree when plans do"
    );
    assert_eq!(
        stats_plain, stats_noop,
        "{tag}: noop recorder changed the stats"
    );
    assert_eq!(
        stats_plain, stats_coll,
        "{tag}: collecting recorder changed the stats"
    );
    collecting
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn alg2_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
        lazy_flag in 0u8..2,
    ) {
        let s = small_scenario(seed, scale);
        let engine = if lazy_flag == 1 { EngineMode::Lazy } else { EngineMode::Exhaustive };
        let planner = Alg2Planner::new(Alg2Config { engine, ..Alg2Config::default() });
        let rec = assert_recorder_invisible(
            "alg2",
            || planner.plan_prepared(&s, None),
            |r| planner.plan_prepared_obs(&s, None, r),
        );
        // The collecting run must actually have recorded the loop.
        let report = rec.report();
        prop_assert!(report.counters.iter().any(|c| c.name == "alg2.iterations"));
    }

    #[test]
    fn alg3_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
        lazy_flag in 0u8..2,
        k in 2u32..5,
    ) {
        let s = small_scenario(seed, scale);
        let engine = if lazy_flag == 1 { EngineMode::Lazy } else { EngineMode::Exhaustive };
        let planner = Alg3Planner::new(Alg3Config {
            k: k as usize,
            engine,
            ..Alg3Config::default()
        });
        let rec = assert_recorder_invisible(
            "alg3",
            || planner.plan_prepared(&s, None),
            |r| planner.plan_prepared_obs(&s, None, r),
        );
        prop_assert!(rec.report().counters.iter().any(|c| c.name == "alg3.iterations"));
    }

    #[test]
    fn benchmark_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
        lazy_flag in 0u8..2,
    ) {
        let s = small_scenario(seed, scale);
        let engine = if lazy_flag == 1 { EngineMode::Lazy } else { EngineMode::Exhaustive };
        let rec = assert_recorder_invisible(
            "benchmark",
            || BenchmarkPlanner.plan_prepared(&s, engine, None),
            |r| BenchmarkPlanner.plan_prepared_obs(&s, engine, None, r),
        );
        prop_assert!(rec.report().counters.iter().any(|c| c.name == "bench.iterations"));
    }

    #[test]
    fn alg1_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
    ) {
        let s = small_scenario(seed, scale);
        let planner = Alg1Planner::default();
        let plain = planner.plan(&s);
        prop_assert_eq!(&plain, &planner.plan_obs(&s, &NoopRecorder), "noop recorder changed the plan");
        let rec = CollectingRecorder::new();
        prop_assert_eq!(&plain, &planner.plan_obs(&s, &rec), "collecting recorder changed the plan");
        let report = rec.report();
        for phase in ["alg1/candidates", "alg1/aux_graph", "alg1/orienteering", "alg1/stitch"] {
            prop_assert_eq!(span_calls(&report, phase), 1, "{}", phase);
        }
        prop_assert!(report.counters.iter().any(|c| c.name == "alg1.candidates"));
    }
}

/// The report of an instrumented run is itself deterministic: running
/// the same planner twice yields equal [`RunReport`]s, spans and counters
/// alike (the manual clock is frozen, so span timings are zero).
#[test]
fn collected_report_is_deterministic() {
    fn assert_deterministic(tag: &str, plan: impl Fn(&dyn Recorder)) {
        let run = || {
            let rec = CollectingRecorder::with_clock(Box::new(ManualClock::new()));
            plan(&rec);
            rec.report()
        };
        let first = run();
        assert!(!first.counters.is_empty(), "{tag}: nothing was recorded");
        assert_eq!(first, run(), "{tag}: report differs between runs");
    }
    let s = small_scenario(7, 0.1);
    assert_deterministic("alg1", |r| {
        let _ = Alg1Planner::default().plan_obs(&s, r);
    });
    let alg2 = Alg2Planner::new(Alg2Config {
        engine: EngineMode::Lazy,
        ..Alg2Config::default()
    });
    assert_deterministic("alg2", |r| {
        let _ = alg2.plan_prepared_obs(&s, None, r);
    });
    let alg3 = Alg3Planner::new(Alg3Config {
        engine: EngineMode::Lazy,
        ..Alg3Config::default()
    });
    assert_deterministic("alg3", |r| {
        let _ = alg3.plan_prepared_obs(&s, None, r);
    });
    assert_deterministic("bench", |r| {
        let _ = BenchmarkPlanner.plan_prepared_obs(&s, EngineMode::Lazy, None, r);
    });
}

/// The lazy Alg 3 loop tallies its tour insertions locally and reports
/// them once per plan. A stop is only ever created by an insertion and
/// the plan emits every stop, so the tally equals the plan's stop count.
#[test]
fn alg3_tour_insertions_count_the_plan_stops() {
    for k in [1usize, 2, 4] {
        let planner = Alg3Planner::new(Alg3Config {
            k,
            engine: EngineMode::Lazy,
            ..Alg3Config::default()
        });
        for seed in 0..8u64 {
            let s = small_scenario(seed, 0.15);
            let rec = CollectingRecorder::new();
            let (plan, _) = planner.plan_prepared_obs(&s, None, &rec);
            let report = rec.report();
            assert!(!plan.stops.is_empty(), "K={k} seed {seed}: empty plan");
            assert_eq!(
                report.counter("alg3.tour_insertions"),
                plan.stops.len() as u64,
                "K={k} seed {seed}"
            );
            assert!(
                report
                    .counters
                    .iter()
                    .any(|c| c.name == "alg3.sojourn_extensions"),
                "K={k} seed {seed}: the extension tally is flushed with the plan"
            );
        }
    }
}

/// How many span instances closed at `path`.
fn span_calls(report: &RunReport, path: &str) -> u64 {
    report
        .spans
        .iter()
        .find(|sp| sp.path == path)
        .map_or(0, |sp| sp.calls)
}

/// A clock that advances one nanosecond per reading, so every closed
/// span has a non-zero duration.
#[derive(Default)]
struct SteppingClock(AtomicU64);

impl Clock for SteppingClock {
    fn now_ns(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// `planner_baseline` reads a planner's setup and loop time from the
/// `<root>/setup` and `<root>/<loop_name>` spans. Two plans must close
/// each of them exactly twice, with time on them, so a missing or extra
/// span cannot turn into a silent timing in `BENCH_planner.json`.
fn assert_phase_spans(tag: &str, root: &str, loop_name: &str, plan: impl Fn(&dyn Recorder)) {
    let rec = CollectingRecorder::with_clock(Box::new(SteppingClock::default()));
    plan(&rec);
    plan(&rec);
    let report = rec.report();
    let phases = [
        root.to_string(),
        format!("{root}/setup"),
        format!("{root}/{loop_name}"),
    ];
    for path in &phases {
        let span = report.spans.iter().find(|sp| &sp.path == path);
        assert!(
            span.is_some_and(|sp| sp.calls == 2 && sp.total_ns >= 2),
            "{tag}: span {path} must close once per plan with time on it: {span:?}"
        );
    }
}

#[test]
fn phase_spans_open_once_per_plan_on_every_path() {
    let full = small_scenario(11, 0.08);
    let mut empty = full.clone();
    empty.devices.clear();
    for (s, case) in [(&full, "planned"), (&empty, "empty")] {
        for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
            let tag = format!("{case}/{engine:?}");
            let alg2 = Alg2Planner::new(Alg2Config {
                engine,
                ..Alg2Config::default()
            });
            assert_phase_spans(&format!("alg2 {tag}"), "alg2", "loop", |r| {
                let _ = alg2.plan_prepared_obs(s, None, r);
            });
            let alg3 = Alg3Planner::new(Alg3Config {
                engine,
                ..Alg3Config::default()
            });
            assert_phase_spans(&format!("alg3 {tag}"), "alg3", "loop", |r| {
                let _ = alg3.plan_prepared_obs(s, None, r);
            });
            assert_phase_spans(&format!("bench {tag}"), "bench", "prune", |r| {
                let _ = BenchmarkPlanner.plan_prepared_obs(s, engine, None, r);
            });
        }
    }
}
