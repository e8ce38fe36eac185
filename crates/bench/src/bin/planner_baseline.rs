//! Perf baseline for the lazy-greedy planner engine.
//!
//! Runs Algorithm 2, Algorithm 3 (K ∈ {2, 4}) and the benchmark pruner
//! with both [`EngineMode::Lazy`] and [`EngineMode::Exhaustive`] across
//! the paper's fig-3/4/5 sweeps, and writes `BENCH_planner.json`:
//! candidates, iterations, evaluations performed vs. the `M × iterations`
//! exhaustive bound, and wall-nanoseconds per phase. Every run also
//! cross-checks that the two engines produced bit-identical plans.
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
//! Set `UAVDC_OBS=1` to attach a [`uavdc_obs`] collecting recorder to
//! every lazy run and embed its `RunReport` (spans, counters, histograms)
//! as an `"obs"` object per entry. `--obs-overhead` instead measures the
//! wall-clock cost of that recorder on the fig-4 δ = 5 m sweep point and
//! prints the relative overhead (the <3 % budget in DESIGN.md §10).

use std::fmt::Write as _;
use std::time::Instant;
use uavdc_bench::{delta_sweep, energy_sweep};
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, CollectionPlan, EngineMode,
    PlanStats,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;
use uavdc_obs::{CollectingRecorder, Recorder};

/// One planner × sweep-point × seed measurement (both engines).
struct Entry {
    figure: &'static str,
    x_label: &'static str,
    x: f64,
    algorithm: &'static str,
    seed: u64,
    lazy: PlanStats,
    exhaustive: PlanStats,
    plans_identical: bool,
    /// FNV-1a fingerprint of the lazy plan (hex in the JSON).
    plan_hash: u64,
    /// Single-line `RunReport` JSON for the lazy run, when `UAVDC_OBS`
    /// was set.
    obs: Option<String>,
}

impl Entry {
    fn eval_reduction(&self) -> f64 {
        self.exhaustive.counters.evaluations as f64 / self.lazy.counters.evaluations.max(1) as f64
    }

    fn wall_speedup(&self) -> f64 {
        self.exhaustive.loop_ns as f64 / self.lazy.loop_ns.max(1) as f64
    }

    fn within_bound(&self) -> bool {
        self.lazy.counters.evaluations <= self.lazy.counters.exhaustive_bound()
    }
}

fn measure(
    figure: &'static str,
    x_label: &'static str,
    x: f64,
    algorithm: &'static str,
    seed: u64,
    scenario: &Scenario,
    run: impl Fn(&Scenario, EngineMode, &dyn Recorder) -> (CollectionPlan, PlanStats),
) -> Entry {
    // Only the lazy run is recorded: it is the engine the baseline
    // gates, and the exhaustive twin's counters are already in the
    // entry. Recording is per-entry so each sweep point gets its own
    // report.
    let (plan_lazy, lazy, obs) = if uavdc_obs::env_enabled() {
        let rec = CollectingRecorder::new();
        let (plan, stats) = run(scenario, EngineMode::Lazy, &rec);
        let report = rec.report().to_json();
        (plan, stats, Some(report))
    } else {
        let (plan, stats) = run(scenario, EngineMode::Lazy, &uavdc_obs::NOOP);
        (plan, stats, None)
    };
    let (plan_full, exhaustive) = run(scenario, EngineMode::Exhaustive, &uavdc_obs::NOOP);
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
        obs,
    }
}

/// A labelled planner closure running with a chosen engine and recorder.
type PlannerRun = (
    &'static str,
    Box<dyn Fn(&Scenario, EngineMode, &dyn Recorder) -> (CollectionPlan, PlanStats)>,
);

/// The fig-4/5 planner roster (engine-aware planners only; Algorithm 1
/// plans by orienteering reduction and has no greedy loop to compare).
fn overlap_roster(delta: f64) -> Vec<PlannerRun> {
    vec![
        (
            "Algorithm 2",
            Box::new(move |s: &Scenario, engine, rec: &dyn Recorder| {
                Alg2Planner::new(Alg2Config {
                    delta,
                    engine,
                    ..Alg2Config::default()
                })
                .plan_with_stats_obs(s, rec)
            }),
        ),
        (
            "Algorithm 3 (K=2)",
            Box::new(move |s: &Scenario, engine, rec: &dyn Recorder| {
                Alg3Planner::new(Alg3Config {
                    delta,
                    k: 2,
                    engine,
                    ..Alg3Config::default()
                })
                .plan_with_stats_obs(s, rec)
            }),
        ),
        (
            "Algorithm 3 (K=4)",
            Box::new(move |s: &Scenario, engine, rec: &dyn Recorder| {
                Alg3Planner::new(Alg3Config {
                    delta,
                    k: 4,
                    engine,
                    ..Alg3Config::default()
                })
                .plan_with_stats_obs(s, rec)
            }),
        ),
        (
            "Benchmark",
            Box::new(|s: &Scenario, engine, rec: &dyn Recorder| {
                BenchmarkPlanner.plan_with_stats_obs(s, engine, rec)
            }),
        ),
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
                "Benchmark",
                seed,
                &scenario,
                |s, engine, rec| BenchmarkPlanner.plan_with_stats_obs(s, engine, rec),
            ));
        }
    }

    // Fig. 4: grid sweep at the default battery.
    for &delta in &delta_sweep() {
        let params = ScenarioParams::default().scaled(scale);
        for &seed in seeds {
            let scenario = uniform(&params, seed);
            for (label, run) in overlap_roster(delta) {
                entries.push(measure(
                    "fig4", "delta_m", delta, label, seed, &scenario, run,
                ));
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
            for (label, run) in overlap_roster(10.0) {
                entries.push(measure(
                    "fig5",
                    "capacity_j",
                    e,
                    label,
                    seed,
                    &scenario,
                    run,
                ));
            }
        }
    }

    entries
}

fn stats_json(s: &PlanStats) -> String {
    let c = &s.counters;
    format!(
        concat!(
            "{{\"evaluations\":{},\"marginal_evals\":{},\"delta_rescans\":{},",
            "\"fixups\":{},\"heap_pops\":{},\"tour_patches\":{},",
            "\"full_retours\":{},\"setup_ns\":{},\"loop_ns\":{}}}"
        ),
        c.evaluations,
        c.marginal_evals,
        c.delta_rescans,
        c.fixups,
        c.heap_pops,
        c.tour_patches,
        c.full_retours,
        s.setup_ns,
        s.loop_ns
    )
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
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
        acc.0 += e.lazy.counters.evaluations;
        acc.1 += e.exhaustive.counters.evaluations;
        acc.2 += e.lazy.loop_ns;
        acc.3 += e.exhaustive.loop_ns;
    }
    acc
}

fn render_json(entries: &[Entry], mode: &str, scale: f64, seeds: &[u64]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"uavdc-planner-baseline/3\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(
        out,
        "  \"seeds\": [{}],",
        seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Headline: the fig-4 δ = 5 m sweep point (the paper's largest
    // candidate sets), aggregated across its four algorithms and all
    // seeds — the acceptance gate of the lazy engine.
    // lint:allow(float-ord): sweep coordinates are exact literals carried through unmodified
    let (le, ee, ln, en) = aggregate(entries.iter().filter(|e| e.figure == "fig4" && e.x == 5.0));
    out.push_str("  \"headline_fig4_delta5\": {\n");
    let _ = writeln!(out, "    \"lazy_evaluations\": {le},");
    let _ = writeln!(out, "    \"exhaustive_evaluations\": {ee},");
    let _ = writeln!(
        out,
        "    \"eval_reduction\": {},",
        json_f64(ee as f64 / le.max(1) as f64)
    );
    let _ = writeln!(out, "    \"lazy_loop_ns\": {ln},");
    let _ = writeln!(out, "    \"exhaustive_loop_ns\": {en},");
    let _ = writeln!(
        out,
        "    \"wall_speedup\": {},",
        json_f64(en as f64 / ln.max(1) as f64)
    );
    let _ = writeln!(
        out,
        "    \"alg2_wall_speedup\": {}",
        json_f64(fig4_delta5_speedup(entries, "Algorithm 2"))
    );
    out.push_str("  },\n");

    // Per-algorithm aggregate across everything, for trend tracking.
    out.push_str("  \"by_algorithm\": {\n");
    let mut algs: Vec<&str> = entries.iter().map(|e| e.algorithm).collect();
    algs.sort_unstable();
    algs.dedup();
    for (i, alg) in algs.iter().enumerate() {
        let (le, ee, ln, en) = aggregate(entries.iter().filter(|e| e.algorithm == *alg));
        let _ = writeln!(
            out,
            "    \"{alg}\": {{\"lazy_evaluations\": {le}, \"exhaustive_evaluations\": {ee}, \
             \"eval_reduction\": {}, \"wall_speedup\": {}}}{}",
            json_f64(ee as f64 / le.max(1) as f64),
            json_f64(en as f64 / ln.max(1) as f64),
            if i + 1 < algs.len() { "," } else { "" }
        );
    }
    out.push_str("  },\n");

    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let obs_field = match &e.obs {
            Some(report) => format!(", \"obs\": {report}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "    {{\"figure\": \"{}\", \"{}\": {}, \"algorithm\": \"{}\", \"seed\": {}, \
             \"candidates\": {}, \"iterations\": {}, \"exhaustive_bound\": {}, \
             \"eval_reduction\": {}, \"wall_speedup\": {}, \"plans_identical\": {}, \
             \"plan_hash\": \"{:016x}\", \"lazy\": {}, \"exhaustive\": {}{}}}{}",
            e.figure,
            e.x_label,
            e.x,
            e.algorithm,
            e.seed,
            e.lazy.counters.candidates,
            e.lazy.counters.iterations,
            e.lazy.counters.exhaustive_bound(),
            json_f64(e.eval_reduction()),
            json_f64(e.wall_speedup()),
            e.plans_identical,
            e.plan_hash,
            stats_json(&e.lazy),
            stats_json(&e.exhaustive),
            obs_field,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Measures the enabled-recorder overhead on the headline fig-4 δ = 5 m
/// sweep point at full scale: every roster planner runs its lazy engine
/// once with the no-op recorder and once with a collecting recorder, and
/// the aggregate loop-wall-clock ratio is printed. Exits non-zero when
/// the overhead exceeds `budget_pct`.
fn obs_overhead(budget_pct: f64) {
    let params = ScenarioParams::default();
    let scenario = uniform(&params, 0x9a9e);
    // Warm-up pass so neither side pays first-touch costs.
    for (_, run) in overlap_roster(5.0) {
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
        for (label, run) in overlap_roster(5.0) {
            let (_, base) = run(&scenario, EngineMode::Lazy, &uavdc_obs::NOOP);
            let rec = CollectingRecorder::new();
            let (_, inst) = run(&scenario, EngineMode::Lazy, &rec);
            assert_eq!(
                base.counters.evaluations, inst.counters.evaluations,
                "{label}: recorder changed the search"
            );
            pass_noop += base.setup_ns + base.loop_ns;
            pass_coll += inst.setup_ns + inst.loop_ns;
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

    let started = Instant::now();
    let entries = run_sweeps(scale, &seeds);
    eprintln!(
        "planner_baseline: {} runs in {:.1}s (mode {mode}, scale {scale})",
        entries.len(),
        started.elapsed().as_secs_f64()
    );

    let json = render_json(&entries, mode, scale, &seeds);
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
            eprintln!(
                "DIVERGED: {} {}={} {} seed {}",
                e.figure, e.x_label, e.x, e.algorithm, e.seed
            );
        }
        for e in &over {
            eprintln!(
                "OVER BOUND: {} {}={} {} seed {}: {} evaluations > bound {}",
                e.figure,
                e.x_label,
                e.x,
                e.algorithm,
                e.seed,
                e.lazy.counters.evaluations,
                e.lazy.counters.exhaustive_bound()
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
