//! Robustness baseline for the closed-loop mission controller.
//!
//! Plans the paper's fig-4 scenarios (grid sweep at the default
//! battery), then flies each plan through the [`MissionController`]
//! under a ladder of fault intensities — calm, breeze, gusty, storm —
//! and writes `BENCH_robustness.json`: delivered volume (and its exact
//! bit pattern), energy bits, trace and executed-plan fingerprints, and
//! the controller's decision counters per sweep point. The headline is
//! the delivered-volume degradation curve versus fault intensity.
//!
//! ```text
//! cargo run --release -p uavdc-bench --bin robustness_sweep            # full baseline
//! cargo run --release -p uavdc-bench --bin robustness_sweep -- --quick # CI smoke
//! ```
//!
//! Every field in an entry is deterministic (seeded RNG streams, no
//! wall-clock anywhere), so `bench_compare` diffs robustness artefacts
//! with zero tolerance: any flipped bit is a behaviour change. `--check`
//! exits non-zero if any mission fails its safe-return contract — the
//! belt-and-braces twin of the `controller_props` harness.

use std::fmt::Write as _;
use std::time::Instant;
use uavdc_bench::delta_sweep;
use uavdc_core::{Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, EngineMode};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Seconds;
use uavdc_net::{FaultConfig, Scenario};
use uavdc_sim::{
    ControllerConfig, FaultPlan, LinkModel, MissionController, SimConfig, SimEvent, WindModel,
};

/// The fault-intensity ladder, from undisturbed to severe. Seeds are
/// derived from the scenario seed so every (scenario, level) pair is a
/// reproducible triple.
const LEVELS: [&str; 4] = ["calm", "breeze", "gusty", "storm"];

fn disturbances(level: usize, seed: u64) -> SimConfig {
    let wind_seed = seed ^ 0x5eed_0001;
    let link_seed = seed ^ 0x5eed_0002;
    let fault_seed = seed ^ 0x5eed_0003;
    match level {
        0 => SimConfig::default(),
        1 => SimConfig {
            wind: WindModel::uniform(1.0, 1.2, wind_seed),
            link: LinkModel::uniform(0.8, 1.0, link_seed),
            fault: FaultPlan::new(
                FaultConfig {
                    upload_fail: 0.1,
                    max_retries: 2,
                    retry_backoff: Seconds(0.2),
                    dropout: 0.05,
                    ..FaultConfig::none()
                },
                fault_seed,
            ),
            ..SimConfig::default()
        },
        2 => SimConfig {
            wind: WindModel::uniform(1.0, 1.35, wind_seed),
            link: LinkModel::uniform(0.6, 1.0, link_seed),
            fault: FaultPlan::new(
                FaultConfig {
                    gust_onset: 0.3,
                    gust_legs: (1, 3),
                    gust_severity: (1.1, 1.5),
                    upload_fail: 0.2,
                    max_retries: 1,
                    retry_backoff: Seconds(0.3),
                    dropout: 0.1,
                },
                fault_seed,
            ),
            ..SimConfig::default()
        },
        _ => SimConfig {
            wind: WindModel::uniform(1.0, 1.5, wind_seed),
            link: LinkModel::uniform(0.4, 0.9, link_seed),
            fault: FaultPlan::new(
                FaultConfig {
                    gust_onset: 0.6,
                    gust_legs: (2, 5),
                    gust_severity: (1.3, 2.0),
                    upload_fail: 0.4,
                    max_retries: 3,
                    retry_backoff: Seconds(0.5),
                    dropout: 0.3,
                },
                fault_seed,
            ),
            ..SimConfig::default()
        },
    }
}

struct Entry {
    delta: f64,
    algorithm: &'static str,
    seed: u64,
    level: usize,
    delivered_mb: f64,
    planned_mb: f64,
    energy_bits: u64,
    trace_fp: u64,
    executed_fp: u64,
    replans: u64,
    trims: u64,
    drops: u64,
    safe: bool,
}

fn fly_point(
    delta: f64,
    algorithm: &'static str,
    seed: u64,
    scenario: &Scenario,
    plan: &uavdc_core::CollectionPlan,
    level: usize,
) -> Entry {
    let cfg = disturbances(level, seed);
    let res = MissionController::new(ControllerConfig::default()).fly(scenario, plan, &cfg);
    let depleted = res
        .outcome
        .trace
        .events
        .iter()
        .any(|e| matches!(e, SimEvent::BatteryDepleted { .. }));
    let safe = res.outcome.completed
        && !depleted
        && res.outcome.trace.check_well_formed().is_ok()
        && res.outcome.energy_used.value() <= scenario.uav.capacity.value() * (1.0 + 1e-9) + 1e-6;
    Entry {
        delta,
        algorithm,
        seed,
        level,
        delivered_mb: res.outcome.collected.value(),
        planned_mb: plan.collected_volume().value(),
        energy_bits: res.outcome.energy_used.value().to_bits(),
        trace_fp: res.outcome.trace.fingerprint(),
        executed_fp: res.executed.fingerprint(),
        replans: res.replans,
        trims: res.trimmed_hovers,
        drops: res.dropped_stops,
        safe,
    }
}

fn run_sweeps(scale: f64, seeds: &[u64], deltas: &[f64]) -> Vec<Entry> {
    let mut entries = Vec::new();
    for &delta in deltas {
        let params = ScenarioParams::default().scaled(scale);
        for &seed in seeds {
            let scenario = uniform(&params, seed);
            let roster: Vec<(&'static str, uavdc_core::CollectionPlan)> = vec![
                (
                    "Algorithm 2",
                    Alg2Planner::new(Alg2Config {
                        delta,
                        engine: EngineMode::Lazy,
                        ..Alg2Config::default()
                    })
                    .plan_prepared(&scenario, None)
                    .0,
                ),
                (
                    "Algorithm 3 (K=2)",
                    Alg3Planner::new(Alg3Config {
                        delta,
                        k: 2,
                        engine: EngineMode::Lazy,
                        ..Alg3Config::default()
                    })
                    .plan_prepared(&scenario, None)
                    .0,
                ),
                (
                    "Benchmark",
                    BenchmarkPlanner
                        .plan_prepared(&scenario, EngineMode::Lazy, None)
                        .0,
                ),
            ];
            for (algorithm, plan) in &roster {
                for level in 0..LEVELS.len() {
                    entries.push(fly_point(delta, algorithm, seed, &scenario, plan, level));
                }
            }
        }
    }
    entries
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn render_json(entries: &[Entry], mode: &str, scale: f64, seeds: &[u64]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"uavdc-robustness/1\",");
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
    let _ = writeln!(
        out,
        "  \"levels\": [{}],",
        LEVELS
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Headline: delivered volume per fault level, and its ratio to the
    // calm run — the degradation curve the sweep exists to measure.
    out.push_str("  \"degradation\": {\n");
    let calm_total: f64 = entries
        .iter()
        .filter(|e| e.level == 0)
        .map(|e| e.delivered_mb)
        .sum();
    for (level, name) in LEVELS.iter().enumerate() {
        let total: f64 = entries
            .iter()
            .filter(|e| e.level == level)
            .map(|e| e.delivered_mb)
            .sum();
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"delivered_mb\": {}, \"vs_calm\": {}}}{}",
            json_f64(total),
            json_f64(if calm_total > 0.0 {
                total / calm_total
            } else {
                1.0
            }),
            if level + 1 < LEVELS.len() { "," } else { "" }
        );
    }
    out.push_str("  },\n");

    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"figure\": \"fig4\", \"delta_m\": {}, \"algorithm\": \"{}\", \"seed\": {}, \
             \"fault_level\": {}, \"fault_name\": \"{}\", \
             \"delivered_mb\": {}, \"planned_mb\": {}, \
             \"delivered_frac\": {}, \"energy_bits\": \"{:016x}\", \
             \"trace_fp\": \"{:016x}\", \"executed_fp\": \"{:016x}\", \
             \"replans\": {}, \"trims\": {}, \"drops\": {}, \"safe\": {}}}{}",
            e.delta,
            e.algorithm,
            e.seed,
            e.level,
            LEVELS[e.level],
            json_f64(e.delivered_mb),
            json_f64(e.planned_mb),
            json_f64(if e.planned_mb > 0.0 {
                e.delivered_mb / e.planned_mb
            } else {
                1.0
            }),
            e.energy_bits,
            e.trace_fp,
            e.executed_fp,
            e.replans,
            e.trims,
            e.drops,
            e.safe,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--check" => {}
            "--out" if i + 1 < args.len() => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            bad => {
                eprintln!("unknown argument: {bad}");
                eprintln!("usage: robustness_sweep [--quick] [--check] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (mode, scale, seeds, deltas): (&str, f64, Vec<u64>, Vec<f64>) = if quick {
        ("quick", 0.2, vec![0x9a9e], vec![5.0, 15.0, 25.0])
    } else {
        ("full", 1.0, vec![0x9a9e, 0x9a9f, 0x9aa0], delta_sweep())
    };
    let out_path = out_path.unwrap_or_else(|| {
        if quick {
            "BENCH_robustness.quick.json".to_string()
        } else {
            "BENCH_robustness.json".to_string()
        }
    });

    #[expect(
        clippy::disallowed_methods,
        reason = "the harness reports how long the whole sweep took"
    )]
    let started = Instant::now();
    let entries = run_sweeps(scale, &seeds, &deltas);
    eprintln!(
        "robustness_sweep: {} missions in {:.1}s (mode {mode}, scale {scale})",
        entries.len(),
        started.elapsed().as_secs_f64()
    );

    let json = render_json(&entries, mode, scale, &seeds);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    // Console digest: degradation per level.
    for (level, name) in LEVELS.iter().enumerate() {
        let total: f64 = entries
            .iter()
            .filter(|e| e.level == level)
            .map(|e| e.delivered_mb)
            .sum();
        let n = entries.iter().filter(|e| e.level == level).count();
        let interventions: u64 = entries
            .iter()
            .filter(|e| e.level == level)
            .map(|e| e.replans + e.trims + e.drops)
            .sum();
        eprintln!(
            "  {name:<7} delivered {:>10.1} MB over {n} missions, {interventions} interventions",
            total
        );
    }

    if check {
        let unsafe_runs: Vec<&Entry> = entries.iter().filter(|e| !e.safe).collect();
        for e in &unsafe_runs {
            eprintln!(
                "UNSAFE: fig4 delta_m={} {} seed={} level={}",
                e.delta, e.algorithm, e.seed, e.level
            );
        }
        if !unsafe_runs.is_empty() {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: all {} missions returned safely within budget",
            entries.len()
        );
    }
}
