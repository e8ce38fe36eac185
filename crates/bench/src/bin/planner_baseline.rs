//! Perf baseline for the lazy-greedy planner engine.
//!
//! Runs Algorithm 2, Algorithm 3 (K ∈ {2, 4}) and the benchmark pruner
//! with both [`EngineMode::Lazy`] and [`EngineMode::Exhaustive`] across
//! the paper's fig-3/4/5 sweeps, and writes `BENCH_planner.json` in the
//! shape `bench_compare` reads (`uavdc_bench::json::write_report`). Each
//! entry's `exact` holds the candidates, iterations, the `M × iterations`
//! exhaustive bound, both engines' evaluation and tour counters, the
//! plan hash and whether the two engines produced bit-identical plans;
//! its `timing` holds the wall-nanoseconds per phase.
//!
//! The planners never read the clock. Each engine plans [`REPEATS`]
//! times, each under a fresh [`CollectingRecorder`] (wall-clock
//! [`uavdc_obs::MonotonicClock`]), and `setup_ns` / `loop_ns` are the
//! fastest durations of the planner's own setup and loop spans. The
//! repeats must return equal plans and equal [`PlanStats`], or the run
//! exits 1.
//!
//! ```text
//! cargo run --release -p uavdc-bench --bin planner_baseline             # full baseline
//! cargo run --release -p uavdc-bench --bin planner_baseline -- --quick  # CI smoke
//! cargo run --release -p uavdc-bench --bin planner_baseline -- --quick --check
//! ```
//!
//! `--check` exits non-zero when any lazy run diverged from its
//! exhaustive twin or performed more evaluations than the exhaustive
//! bound — the CI regression tripwire. `--min-alg2-speedup X` addition-
//! ally floors Algorithm 2's aggregate fig-4 δ = 5 m wall speedup (the
//! incremental-tour perf gate; exits non-zero below `X`). `--out PATH`
//! overrides the output path (default `BENCH_planner.json` in the
//! working directory).
//!
//! `--obs-overhead` instead times whole planner calls with and without
//! a collecting recorder on the fig-4 δ = 5 m sweep point and prints the
//! relative overhead (the <3 % budget in DESIGN.md §10).

use std::collections::BTreeSet;
use std::time::Instant;
use uavdc_bench::json::{write_report, Entry as Record, Json};
use uavdc_bench::{delta_sweep, energy_sweep};
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, CollectionPlan, EngineMode,
    PlanStats,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;
use uavdc_obs::{Clock, CollectingRecorder, MonotonicClock, Recorder, RunReport};

/// One planner × sweep-point × seed measurement (both engines).
struct Entry {
    figure: &'static str,
    x_label: &'static str,
    x: f64,
    algorithm: &'static str,
    seed: u64,
    lazy: Timed,
    exhaustive: Timed,
    plans_identical: bool,
    /// FNV-1a fingerprint of the lazy plan (hex in the JSON).
    plan_hash: u64,
}

/// One engine's run: its stats plus the setup and loop nanoseconds read
/// from the planner's spans.
struct Timed {
    stats: PlanStats,
    setup_ns: u64,
    loop_ns: u64,
}

impl Entry {
    fn key(&self) -> String {
        format!(
            "{} {}={} {} seed={}",
            self.figure, self.x_label, self.x, self.algorithm, self.seed
        )
    }

    fn within_bound(&self) -> bool {
        let c = &self.lazy.stats.counters;
        c.evaluations <= c.exhaustive_bound()
    }
}

/// Plans per engine and measurement. A single span reading differs by up
/// to +250% between back-to-back runs; the fastest of three is steadier.
const REPEATS: usize = 3;

/// Plans [`REPEATS`] times, each under a fresh collecting recorder, and
/// keeps the fastest reading of each of the planner's `[setup, loop]`
/// span paths. Exits 1 unless every repeat returns the first one's plan
/// and stats.
fn timed(
    run: &RunFn,
    [setup, run_loop]: Spans,
    scenario: &Scenario,
    engine: EngineMode,
) -> (CollectionPlan, Timed) {
    let once = || {
        let rec = CollectingRecorder::new();
        let (plan, stats) = run(scenario, engine, &rec);
        let report = rec.report();
        let timed = Timed {
            stats,
            setup_ns: span_ns(&report, setup),
            loop_ns: span_ns(&report, run_loop),
        };
        (plan, timed)
    };
    let (plan, mut best) = once();
    for _ in 1..REPEATS {
        let (again, t) = once();
        if again != plan || t.stats != best.stats {
            eprintln!("{setup}: {engine:?} repeats returned different plans or stats");
            std::process::exit(1);
        }
        best.setup_ns = best.setup_ns.min(t.setup_ns);
        best.loop_ns = best.loop_ns.min(t.loop_ns);
    }
    (plan, best)
}

/// Duration of the span at `path`. The span must have closed exactly
/// once: a missing one ends the run instead of being written as a zero
/// timing.
fn span_ns(report: &RunReport, path: &str) -> u64 {
    match report.spans.iter().find(|sp| sp.path == path) {
        Some(sp) if sp.calls == 1 => sp.total_ns,
        other => {
            eprintln!("span {path} must close once per plan, found {other:?}");
            std::process::exit(1);
        }
    }
}

fn measure(
    figure: &'static str,
    x_label: &'static str,
    x: f64,
    seed: u64,
    scenario: &Scenario,
    (algorithm, spans, run): &PlannerRun,
) -> Entry {
    let (plan_lazy, lazy) = timed(run, *spans, scenario, EngineMode::Lazy);
    let (plan_full, exhaustive) = timed(run, *spans, scenario, EngineMode::Exhaustive);
    Entry {
        figure,
        x_label,
        x,
        algorithm,
        seed,
        plans_identical: plan_lazy == plan_full,
        plan_hash: plan_lazy.fingerprint(),
        lazy,
        exhaustive,
    }
}

/// A planner closure running with a chosen engine and recorder.
type RunFn = Box<dyn Fn(&Scenario, EngineMode, &dyn Recorder) -> (CollectionPlan, PlanStats)>;

/// The `[setup, loop]` span paths a planner reports its phases under.
type Spans = [&'static str; 2];

const ALG2_SPANS: Spans = ["alg2/setup", "alg2/loop"];
const ALG3_SPANS: Spans = ["alg3/setup", "alg3/loop"];
const BENCH_SPANS: Spans = ["bench/setup", "bench/prune"];

/// A labelled planner closure with its phase spans.
type PlannerRun = (&'static str, Spans, RunFn);

/// The benchmark pruner, which runs in every figure.
fn benchmark_run() -> PlannerRun {
    (
        "Benchmark",
        BENCH_SPANS,
        Box::new(|s: &Scenario, engine, rec: &dyn Recorder| {
            BenchmarkPlanner.plan_prepared_obs(s, engine, None, rec)
        }),
    )
}

/// The fig-4/5 planner roster (engine-aware planners only; Algorithm 1
/// plans by orienteering reduction and has no greedy loop to compare).
fn overlap_roster(delta: f64) -> Vec<PlannerRun> {
    vec![
        (
            "Algorithm 2",
            ALG2_SPANS,
            Box::new(move |s: &Scenario, engine, rec: &dyn Recorder| {
                Alg2Planner::new(Alg2Config {
                    delta,
                    engine,
                    ..Alg2Config::default()
                })
                .plan_prepared_obs(s, None, rec)
            }),
        ),
        (
            "Algorithm 3 (K=2)",
            ALG3_SPANS,
            Box::new(move |s: &Scenario, engine, rec: &dyn Recorder| {
                Alg3Planner::new(Alg3Config {
                    delta,
                    k: 2,
                    engine,
                    ..Alg3Config::default()
                })
                .plan_prepared_obs(s, None, rec)
            }),
        ),
        (
            "Algorithm 3 (K=4)",
            ALG3_SPANS,
            Box::new(move |s: &Scenario, engine, rec: &dyn Recorder| {
                Alg3Planner::new(Alg3Config {
                    delta,
                    k: 4,
                    engine,
                    ..Alg3Config::default()
                })
                .plan_prepared_obs(s, None, rec)
            }),
        ),
        benchmark_run(),
    ]
}

fn run_sweeps(scale: f64, seeds: &[u64]) -> Vec<Entry> {
    let mut entries = Vec::new();

    // Fig. 3: battery sweep, no-overlap problem — only the benchmark
    // pruner has a greedy loop here.
    for &e in &energy_sweep() {
        let params = ScenarioParams::default()
            .scaled(scale)
            .with_capacity(Joules(e));
        for &seed in seeds {
            let scenario = uniform(&params, seed);
            entries.push(measure(
                "fig3",
                "capacity_j",
                e,
                seed,
                &scenario,
                &benchmark_run(),
            ));
        }
    }

    // Fig. 4: grid sweep at the default battery.
    for &delta in &delta_sweep() {
        let params = ScenarioParams::default().scaled(scale);
        for &seed in seeds {
            let scenario = uniform(&params, seed);
            for run in overlap_roster(delta) {
                entries.push(measure("fig4", "delta_m", delta, seed, &scenario, &run));
            }
        }
    }

    // Fig. 5: battery sweep at δ = 10 m.
    for &e in &energy_sweep() {
        let params = ScenarioParams::default()
            .scaled(scale)
            .with_capacity(Joules(e));
        for &seed in seeds {
            let scenario = uniform(&params, seed);
            for run in overlap_roster(10.0) {
                entries.push(measure("fig5", "capacity_j", e, seed, &scenario, &run));
            }
        }
    }

    entries
}

/// One engine's deterministic counters.
fn counters_json(t: &Timed) -> Json {
    let c = &t.stats.counters;
    Json::obj([
        ("evaluations", c.evaluations.into()),
        ("marginal_evals", c.marginal_evals.into()),
        ("delta_rescans", c.delta_rescans.into()),
        ("fixups", c.fixups.into()),
        ("heap_pops", c.heap_pops.into()),
        ("tour_patches", c.tour_patches.into()),
        ("full_retours", c.full_retours.into()),
    ])
}

/// Aggregate fig-4 δ = 5 m wall speedup of one algorithm: the per-PR
/// perf gate metric (`--min-alg2-speedup` floors Algorithm 2's).
fn fig4_delta5_speedup(entries: &[Entry], algorithm: &str) -> f64 {
    let (_, _, ln, en) = aggregate(entries.iter().filter(|e| {
        // lint:allow(float-ord): sweep coordinates are exact literals carried through unmodified
        e.figure == "fig4" && e.x == 5.0 && e.algorithm == algorithm
    }));
    en as f64 / ln.max(1) as f64
}

/// Aggregate over a filtered subset: (lazy evals, exhaustive evals,
/// lazy loop-ns, exhaustive loop-ns).
fn aggregate<'a>(entries: impl Iterator<Item = &'a Entry>) -> (u64, u64, u64, u64) {
    let mut acc = (0u64, 0u64, 0u64, 0u64);
    for e in entries {
        acc.0 += e.lazy.stats.counters.evaluations;
        acc.1 += e.exhaustive.stats.counters.evaluations;
        acc.2 += e.lazy.loop_ns;
        acc.3 += e.exhaustive.loop_ns;
    }
    acc
}

/// Both engines' evaluation and loop-ns totals over the entries `keep`
/// selects, with exhaustive÷lazy ratios.
fn aggregate_json(entries: &[Entry], keep: impl Fn(&Entry) -> bool) -> Vec<(&'static str, Json)> {
    let (le, ee, ln, en) = aggregate(entries.iter().filter(|e| keep(e)));
    vec![
        ("lazy_evaluations", le.into()),
        ("exhaustive_evaluations", ee.into()),
        ("eval_reduction", (ee as f64 / le.max(1) as f64).into()),
        ("lazy_loop_ns", ln.into()),
        ("exhaustive_loop_ns", en.into()),
        ("wall_speedup", (en as f64 / ln.max(1) as f64).into()),
    ]
}

fn report_json(entries: &[Entry], mode: &str, scale: f64, seeds: &[u64]) -> String {
    let header = Json::obj([
        ("schema", "uavdc-planner-baseline/4".into()),
        ("mode", mode.into()),
        ("scale", scale.into()),
        ("seeds", seeds.iter().copied().collect()),
    ]);

    // Headline: the fig-4 δ = 5 m sweep point (the paper's largest
    // candidate sets), aggregated across its four algorithms and all
    // seeds — the acceptance gate of the lazy engine.
    // lint:allow(float-ord): sweep coordinates are exact literals carried through unmodified
    let mut headline = aggregate_json(entries, |e| e.figure == "fig4" && e.x == 5.0);
    headline.push((
        "alg2_wall_speedup",
        fig4_delta5_speedup(entries, "Algorithm 2").into(),
    ));

    // Per-algorithm aggregate across everything, for trend tracking.
    let algs: BTreeSet<&str> = entries.iter().map(|e| e.algorithm).collect();
    let by_algorithm = algs.into_iter().map(|alg| {
        let totals = aggregate_json(entries, |e| e.algorithm == alg);
        (alg, Json::obj(totals))
    });

    let records: Vec<Record> = entries
        .iter()
        .map(|e| {
            let c = &e.lazy.stats.counters;
            Record {
                key: e.key(),
                exact: Json::obj([
                    ("figure", e.figure.into()),
                    (e.x_label, e.x.into()),
                    ("algorithm", e.algorithm.into()),
                    ("seed", e.seed.into()),
                    ("candidates", c.candidates.into()),
                    ("iterations", c.iterations.into()),
                    ("exhaustive_bound", c.exhaustive_bound().into()),
                    ("plans_identical", e.plans_identical.into()),
                    ("plan_hash", format!("{:016x}", e.plan_hash).into()),
                    ("lazy", counters_json(&e.lazy)),
                    ("exhaustive", counters_json(&e.exhaustive)),
                ]),
                timing: Json::obj([
                    ("lazy.setup_ns", e.lazy.setup_ns.into()),
                    ("lazy.loop_ns", e.lazy.loop_ns.into()),
                    ("exhaustive.setup_ns", e.exhaustive.setup_ns.into()),
                    ("exhaustive.loop_ns", e.exhaustive.loop_ns.into()),
                ]),
            }
        })
        .collect();
    let summary = [
        ("headline_fig4_delta5", Json::obj(headline)),
        ("by_algorithm", Json::obj(by_algorithm)),
    ];
    write_report(&header, &summary, &records)
}

/// Measures the enabled-recorder overhead on the headline fig-4 δ = 5 m
/// sweep point at full scale: every roster planner runs its lazy engine
/// once with the no-op recorder and once with a collecting recorder, and
/// the ratio of the aggregate wall time of the whole calls is printed.
/// Exits non-zero when the overhead exceeds `budget_pct`.
fn obs_overhead(budget_pct: f64) {
    let params = ScenarioParams::default();
    let scenario = uniform(&params, 0x9a9e);
    let clock = MonotonicClock::new();
    // Warm-up pass so neither side pays first-touch costs.
    for (_, _, run) in overlap_roster(5.0) {
        let _ = run(&scenario, EngineMode::Lazy, &uavdc_obs::NOOP);
    }
    // Best-of-R per side: single passes on a busy machine jitter by more
    // than the effect under measurement; the minimum is the run least
    // disturbed by the scheduler.
    const REPS: usize = 5;
    let mut noop_ns = u64::MAX;
    let mut coll_ns = u64::MAX;
    for _ in 0..REPS {
        let mut pass_noop = 0u64;
        let mut pass_coll = 0u64;
        for (label, _, run) in overlap_roster(5.0) {
            let rec = CollectingRecorder::new();
            let t0 = clock.now_ns();
            let (_, base) = run(&scenario, EngineMode::Lazy, &uavdc_obs::NOOP);
            let t1 = clock.now_ns();
            let (_, inst) = run(&scenario, EngineMode::Lazy, &rec);
            let t2 = clock.now_ns();
            assert_eq!(base, inst, "{label}: recorder changed the search");
            pass_noop += t1 - t0;
            pass_coll += t2 - t1;
        }
        noop_ns = noop_ns.min(pass_noop);
        coll_ns = coll_ns.min(pass_coll);
    }
    let overhead = coll_ns as f64 / noop_ns.max(1) as f64 - 1.0;
    eprintln!(
        "obs overhead (fig4 delta=5m, full scale): noop {:.2} ms, collecting {:.2} ms, {:+.2}%",
        noop_ns as f64 / 1e6,
        coll_ns as f64 / 1e6,
        overhead * 100.0
    );
    if overhead * 100.0 > budget_pct {
        eprintln!("FAIL: overhead above the {budget_pct}% budget");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let mut out_path = "BENCH_planner.json".to_string();
    let mut min_alg2_speedup: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--check" => {}
            "--obs-overhead" => {
                obs_overhead(3.0);
                return;
            }
            "--out" if i + 1 < args.len() => {
                i += 1;
                out_path = args[i].clone();
            }
            "--min-alg2-speedup" if i + 1 < args.len() => {
                i += 1;
                match args[i].parse() {
                    Ok(v) => min_alg2_speedup = Some(v),
                    Err(_) => {
                        eprintln!("--min-alg2-speedup expects a number");
                        std::process::exit(2);
                    }
                }
            }
            bad => {
                eprintln!("unknown argument: {bad}");
                eprintln!(
                    "usage: planner_baseline [--quick] [--check] [--obs-overhead] \
                     [--min-alg2-speedup X] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (mode, scale, seeds): (&str, f64, Vec<u64>) = if quick {
        ("quick", 0.2, vec![0x9a9e])
    } else {
        ("full", 1.0, vec![0x9a9e, 0x9a9f, 0x9aa0])
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "the harness reports how long the whole sweep took"
    )]
    let started = Instant::now();
    let entries = run_sweeps(scale, &seeds);
    eprintln!(
        "planner_baseline: {} runs in {:.1}s (mode {mode}, scale {scale})",
        entries.len(),
        started.elapsed().as_secs_f64()
    );

    let json = report_json(&entries, mode, scale, &seeds);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    // Console digest: one line per figure × algorithm.
    let mut keys: Vec<(&str, &str)> = entries.iter().map(|e| (e.figure, e.algorithm)).collect();
    keys.sort_unstable();
    keys.dedup();
    for (fig, alg) in keys {
        let (le, ee, ln, en) = aggregate(
            entries
                .iter()
                .filter(|e| e.figure == fig && e.algorithm == alg),
        );
        eprintln!(
            "  {fig:<5} {alg:<18} evals {ee:>9} -> {le:>8} ({:>5.1}x)  loop {:>8.2} ms -> {:>8.2} ms ({:.2}x)",
            ee as f64 / le.max(1) as f64,
            en as f64 / 1e6,
            ln as f64 / 1e6,
            en as f64 / ln.max(1) as f64,
        );
    }

    if check {
        let diverged: Vec<&Entry> = entries.iter().filter(|e| !e.plans_identical).collect();
        let over: Vec<&Entry> = entries.iter().filter(|e| !e.within_bound()).collect();
        for e in &diverged {
            eprintln!("DIVERGED: {}", e.key());
        }
        for e in &over {
            eprintln!(
                "OVER BOUND: {}: {} evaluations > bound {}",
                e.key(),
                e.lazy.stats.counters.evaluations,
                e.lazy.stats.counters.exhaustive_bound()
            );
        }
        if !diverged.is_empty() || !over.is_empty() {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: all {} lazy runs bit-identical and within the exhaustive bound",
            entries.len()
        );
    }

    if let Some(floor) = min_alg2_speedup {
        let speedup = fig4_delta5_speedup(&entries, "Algorithm 2");
        eprintln!("Algorithm 2 fig4 delta=5m wall speedup: {speedup:.2}x (floor {floor:.2}x)");
        if speedup < floor {
            eprintln!("FAIL: Algorithm 2 wall speedup below the floor");
            std::process::exit(1);
        }
    }
}
