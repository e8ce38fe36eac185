//! Experiment harness regenerating the paper's evaluation (§VII).
//!
//! Each `run_fig*` function reproduces one figure: it sweeps the paper's
//! parameter, runs every algorithm on the same 15 seeded instances, and
//! reports the mean collected volume (sub-figure a) and the mean planner
//! running time (sub-figure b). Results can be printed as an aligned
//! table or written to CSV.
//!
//! | Figure | Sweep | Algorithms |
//! |---|---|---|
//! | Fig. 3 | battery `E` ∈ 3–9·10⁵ J | Algorithm 1, benchmark |
//! | Fig. 4 | grid `δ` ∈ 5–30 m | Algorithm 2, Algorithm 3 (K=2, K=4), benchmark |
//! | Fig. 5 | battery `E` ∈ 3–9·10⁵ J (δ = 10 m) | same as Fig. 4 |
//!
//! `HarnessConfig::scale` shrinks instances for quick runs (device count
//! scales linearly, the region side with its square root, preserving
//! density); `scale = 1.0` is the paper's full setting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod compare;
pub mod json;

use std::time::Instant;
use uavdc_core::validate::{check_fleet, check_plan, Profile};
use uavdc_core::{
    Alg1Config, Alg1Planner, Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner,
    CollectionPlan, Planner,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::{megabytes_as_gb, Joules};
use uavdc_net::Scenario;
use uavdc_sim::{simulate, SimConfig};

/// Harness-wide settings.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Instances averaged per data point (paper: 15).
    pub num_instances: usize,
    /// Instance scale in `(0, 1]`; 1.0 = 500 devices in 1 km².
    pub scale: f64,
    /// Base RNG seed; instance `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run the instances of a data point on parallel threads.
    pub parallel_instances: bool,
    /// Cross-check every plan with the discrete-event simulator and panic
    /// on disagreement (slower; on by default — reproducibility first).
    pub simulate_check: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            num_instances: 15,
            scale: 1.0,
            base_seed: 0x9a9e,
            parallel_instances: true,
            simulate_check: true,
        }
    }
}

impl HarnessConfig {
    /// A configuration small enough for CI and Criterion.
    pub fn quick() -> Self {
        HarnessConfig {
            num_instances: 3,
            scale: 0.2,
            ..HarnessConfig::default()
        }
    }
}

/// One averaged data point of a sweep.
#[derive(Clone, Debug)]
pub struct DataPoint {
    /// Sweep coordinate (joules for E-sweeps, metres for δ-sweeps).
    pub x: f64,
    /// Algorithm label as used in the paper's legends.
    pub algorithm: &'static str,
    /// Mean collected volume, gigabytes.
    pub collected_gb: f64,
    /// Mean planner running time, seconds.
    pub runtime_s: f64,
    /// Mean energy actually used by the plan, joules.
    pub energy_used_j: f64,
    /// Mean number of hovering stops.
    pub stops: f64,
}

/// Which planner to run at a sweep point.
#[derive(Clone, Copy, Debug)]
pub enum AlgorithmSpec {
    /// Algorithm 1 with grid edge `δ`.
    Alg1 {
        /// Grid edge length, metres.
        delta: f64,
    },
    /// Algorithm 2 with grid edge `δ`.
    Alg2 {
        /// Grid edge length, metres.
        delta: f64,
    },
    /// Algorithm 3 with grid edge `δ` and `K` sojourn partitions.
    Alg3 {
        /// Grid edge length, metres.
        delta: f64,
        /// Sojourn partitions.
        k: usize,
    },
    /// The pruning benchmark (no parameters).
    Benchmark,
}

impl AlgorithmSpec {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::Alg1 { .. } => "Algorithm 1",
            AlgorithmSpec::Alg2 { .. } => "Algorithm 2",
            AlgorithmSpec::Alg3 { k: 2, .. } => "Algorithm 3 (K=2)",
            AlgorithmSpec::Alg3 { k: 4, .. } => "Algorithm 3 (K=4)",
            AlgorithmSpec::Alg3 { .. } => "Algorithm 3",
            AlgorithmSpec::Benchmark => "Benchmark",
        }
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        match *self {
            AlgorithmSpec::Alg1 { delta } => Alg1Planner::new(Alg1Config {
                delta,
                ..Alg1Config::default()
            })
            .plan(scenario),
            AlgorithmSpec::Alg2 { delta } => Alg2Planner::new(Alg2Config {
                delta,
                ..Alg2Config::default()
            })
            .plan(scenario),
            AlgorithmSpec::Alg3 { delta, k } => Alg3Planner::new(Alg3Config {
                delta,
                k,
                ..Alg3Config::default()
            })
            .plan(scenario),
            AlgorithmSpec::Benchmark => BenchmarkPlanner.plan(scenario),
        }
    }

    /// The paper problem whose invariants the planner's plans keep.
    fn profile(&self) -> Profile {
        match self {
            AlgorithmSpec::Alg1 { .. } | AlgorithmSpec::Benchmark => Profile::P1FullDisjoint,
            AlgorithmSpec::Alg2 { .. } => Profile::P2FullOverlap,
            AlgorithmSpec::Alg3 { .. } => Profile::P3Partial,
        }
    }
}

/// Runs one algorithm on one instance; returns (GB, seconds, J, stops).
fn run_once(spec: AlgorithmSpec, scenario: &Scenario, check: bool) -> (f64, f64, f64, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the experiment harness reports each planner call's wall time"
    )]
    let start = Instant::now();
    let plan = spec.plan(scenario);
    let dt = start.elapsed().as_secs_f64();
    #[expect(
        clippy::panic,
        reason = "the harness fails fast on invalid plans by design"
    )]
    check_plan(scenario, &plan, spec.profile())
        .unwrap_or_else(|e| panic!("{} produced invalid plan: {e}", spec.label()));
    if check {
        let outcome = simulate(scenario, &plan, &SimConfig::default());
        assert!(
            outcome.agrees_with_plan(&plan, scenario),
            "{} plan disagrees with simulation (claimed {} GB, simulated {} GB)",
            spec.label(),
            megabytes_as_gb(plan.collected_volume()),
            megabytes_as_gb(outcome.collected),
        );
    }
    (
        megabytes_as_gb(plan.collected_volume()),
        dt,
        plan.total_energy(scenario).value(),
        plan.stops.len() as f64,
    )
}

/// Averages one algorithm over the configured instances at one sweep
/// point. `make_scenario(seed)` builds the instance.
fn average_point(
    cfg: &HarnessConfig,
    spec: AlgorithmSpec,
    x: f64,
    make_scenario: &(dyn Fn(u64) -> Scenario + Sync),
) -> DataPoint {
    let n = cfg.num_instances.max(1);
    let mut results = vec![(0.0, 0.0, 0.0, 0.0); n];
    if cfg.parallel_instances && n > 1 {
        // A worker's panic re-raises when the scope joins it.
        std::thread::scope(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                let seed = cfg.base_seed + i as u64;
                let check = cfg.simulate_check;
                scope.spawn(move || {
                    let scenario = make_scenario(seed);
                    *slot = run_once(spec, &scenario, check);
                });
            }
        });
    } else {
        for (i, slot) in results.iter_mut().enumerate() {
            let scenario = make_scenario(cfg.base_seed + i as u64);
            *slot = run_once(spec, &scenario, cfg.simulate_check);
        }
    }
    let nf = n as f64;
    DataPoint {
        x,
        algorithm: spec.label(),
        collected_gb: results.iter().map(|r| r.0).sum::<f64>() / nf,
        runtime_s: results.iter().map(|r| r.1).sum::<f64>() / nf,
        energy_used_j: results.iter().map(|r| r.2).sum::<f64>() / nf,
        stops: results.iter().map(|r| r.3).sum::<f64>() / nf,
    }
}

/// The paper's battery sweep: `E ∈ {3, 4.5, 6, 7.5, 9}·10⁵ J`.
pub fn energy_sweep() -> Vec<f64> {
    vec![3.0e5, 4.5e5, 6.0e5, 7.5e5, 9.0e5]
}

/// The paper's grid sweep: `δ ∈ {5, 10, 15, 20, 25, 30}` m.
pub fn delta_sweep() -> Vec<f64> {
    vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
}

/// Fig. 3: Algorithm 1 vs benchmark over the battery sweep (collected
/// volume and running time), no coverage overlap.
pub fn run_fig3(cfg: &HarnessConfig) -> Vec<DataPoint> {
    let mut out = Vec::new();
    for &e in &energy_sweep() {
        let params = ScenarioParams::default()
            .scaled(cfg.scale)
            .with_capacity(Joules(e));
        let make = move |seed: u64| uniform(&params, seed);
        for spec in [
            AlgorithmSpec::Alg1 { delta: 10.0 },
            AlgorithmSpec::Benchmark,
        ] {
            out.push(average_point(cfg, spec, e, &make));
        }
    }
    out
}

/// Fig. 4: δ sweep at the default battery, with coverage overlap.
pub fn run_fig4(cfg: &HarnessConfig) -> Vec<DataPoint> {
    let mut out = Vec::new();
    for &delta in &delta_sweep() {
        let params = ScenarioParams::default().scaled(cfg.scale);
        let make = move |seed: u64| uniform(&params, seed);
        for spec in [
            AlgorithmSpec::Alg2 { delta },
            AlgorithmSpec::Alg3 { delta, k: 2 },
            AlgorithmSpec::Alg3 { delta, k: 4 },
            AlgorithmSpec::Benchmark,
        ] {
            out.push(average_point(cfg, spec, delta, &make));
        }
    }
    out
}

/// Fig. 5: battery sweep at `δ = 10 m`, with coverage overlap.
pub fn run_fig5(cfg: &HarnessConfig) -> Vec<DataPoint> {
    let mut out = Vec::new();
    for &e in &energy_sweep() {
        let params = ScenarioParams::default()
            .scaled(cfg.scale)
            .with_capacity(Joules(e));
        let make = move |seed: u64| uniform(&params, seed);
        for spec in [
            AlgorithmSpec::Alg2 { delta: 10.0 },
            AlgorithmSpec::Alg3 { delta: 10.0, k: 2 },
            AlgorithmSpec::Alg3 { delta: 10.0, k: 4 },
            AlgorithmSpec::Benchmark,
        ] {
            out.push(average_point(cfg, spec, e, &make));
        }
    }
    out
}

/// Supplementary experiment (beyond the paper): bandwidth sweep exposing
/// the hover-dominated regime where partial collection (Algorithm 3)
/// overtakes full collection (Algorithm 2). `x` is the uplink bandwidth
/// in MB/s.
pub fn run_hover_sweep(cfg: &HarnessConfig) -> Vec<DataPoint> {
    let mut out = Vec::new();
    for &bw in &[150.0, 40.0, 20.0, 10.0, 5.0] {
        let params = ScenarioParams {
            bandwidth: uavdc_net::units::MegaBytesPerSecond(bw),
            ..ScenarioParams::default().scaled(cfg.scale)
        };
        let make = move |seed: u64| uniform(&params, seed);
        for spec in [
            AlgorithmSpec::Alg2 { delta: 10.0 },
            AlgorithmSpec::Alg3 { delta: 10.0, k: 2 },
            AlgorithmSpec::Alg3 { delta: 10.0, k: 4 },
        ] {
            out.push(average_point(cfg, spec, bw, &make));
        }
    }
    out
}

/// Supplementary experiment: wind robustness. Plans Algorithm 2 against a
/// battery derated by the margin `x ∈ {0, 0.1, ..., 0.4}`, then flies the
/// plan with the full battery under per-leg headwind noise in
/// `[1.0, 1.5]`. `collected_gb` is the *delivered* volume (zero for
/// missions that die mid-air) and `stops` carries the completion rate in
/// percent.
pub fn run_wind_sweep(cfg: &HarnessConfig) -> Vec<DataPoint> {
    use uavdc_sim::WindModel;
    let mut out = Vec::new();
    for &margin in &[0.0, 0.1, 0.2, 0.3, 0.4] {
        let n = cfg.num_instances.max(1);
        let mut delivered = 0.0;
        let mut completed = 0usize;
        let mut runtime = 0.0;
        let mut energy = 0.0;
        for i in 0..n {
            let seed = cfg.base_seed + i as u64;
            let params = ScenarioParams::default().scaled(cfg.scale);
            let scenario = uniform(&params, seed);
            let mut derated = scenario.clone();
            derated.uav.capacity = scenario.uav.capacity * (1.0 - margin);
            #[expect(
                clippy::disallowed_methods,
                reason = "the experiment harness reports each planner call's wall time"
            )]
            let started = Instant::now();
            let plan = Alg2Planner::new(Alg2Config {
                delta: 10.0,
                ..Alg2Config::default()
            })
            .plan(&derated);
            runtime += started.elapsed().as_secs_f64();
            #[expect(
                clippy::expect_used,
                reason = "the harness fails fast on invalid plans by design"
            )]
            check_plan(&derated, &plan, Profile::P2FullOverlap).expect("valid derated plan");
            let sim_cfg = SimConfig {
                wind: WindModel::uniform(1.0, 1.5, seed ^ 0x77aa),
                record_uploads: false,
                ..SimConfig::default()
            };
            let outcome = simulate(&scenario, &plan, &sim_cfg);
            delivered += megabytes_as_gb(outcome.collected);
            energy += outcome.energy_used.value();
            if outcome.completed {
                completed += 1;
            }
        }
        let nf = n as f64;
        out.push(DataPoint {
            x: margin,
            algorithm: "Algorithm 2 + margin",
            collected_gb: delivered / nf,
            runtime_s: runtime / nf,
            energy_used_j: energy / nf,
            stops: 100.0 * completed as f64 / nf,
        });
    }
    out
}

/// Supplementary experiment: fleet scaling. Collected volume and busiest
/// battery as the UAV count grows (Algorithm 2 per UAV, sector
/// partition). `x` is the fleet size; `energy_used_j` reports the busiest
/// UAV.
pub fn run_fleet_sweep(cfg: &HarnessConfig) -> Vec<DataPoint> {
    use uavdc_core::{FleetConfig, MultiUavPlanner};
    let mut out = Vec::new();
    for &m in &[1usize, 2, 3, 4, 6] {
        let n = cfg.num_instances.max(1);
        let mut gb = 0.0;
        let mut busiest = 0.0;
        let mut runtime = 0.0;
        let mut stops = 0.0;
        for i in 0..n {
            let seed = cfg.base_seed + i as u64;
            let params = ScenarioParams::default().scaled(cfg.scale);
            let scenario = uniform(&params, seed);
            #[expect(
                clippy::disallowed_methods,
                reason = "the experiment harness reports each planner call's wall time"
            )]
            let started = Instant::now();
            let fleet = MultiUavPlanner::new(
                Alg2Planner::new(Alg2Config {
                    delta: 10.0,
                    ..Alg2Config::default()
                }),
                FleetConfig::new(m),
            )
            .plan_fleet(&scenario);
            runtime += started.elapsed().as_secs_f64();
            #[expect(
                clippy::expect_used,
                reason = "the harness fails fast on invalid plans by design"
            )]
            check_fleet(&scenario, &fleet, Profile::P2FullOverlap).expect("valid fleet plan");
            gb += megabytes_as_gb(fleet.collected_volume());
            busiest += fleet.max_energy(&scenario).value();
            stops += fleet.plans.iter().map(|p| p.stops.len()).sum::<usize>() as f64;
        }
        let nf = n as f64;
        out.push(DataPoint {
            x: m as f64,
            algorithm: "Fleet (Alg 2, sectors)",
            collected_gb: gb / nf,
            runtime_s: runtime / nf,
            energy_used_j: busiest / nf,
            stops: stops / nf,
        });
    }
    out
}

/// Prints a figure's data points as an aligned table.
pub fn print_table(title: &str, x_label: &str, points: &[DataPoint]) {
    println!("\n== {title} ==");
    println!(
        "{:>12}  {:<20} {:>14} {:>12} {:>14} {:>8}",
        x_label, "algorithm", "collected (GB)", "time (s)", "energy (J)", "stops"
    );
    for p in points {
        println!(
            "{:>12.1}  {:<20} {:>14.2} {:>12.4} {:>14.0} {:>8.1}",
            p.x, p.algorithm, p.collected_gb, p.runtime_s, p.energy_used_j, p.stops
        );
    }
}

/// Writes data points as CSV (header + one row per point).
pub fn write_csv(
    path: &std::path::Path,
    x_label: &str,
    points: &[DataPoint],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{x_label},algorithm,collected_gb,runtime_s,energy_used_j,stops"
    )?;
    for p in points {
        writeln!(
            f,
            "{},{},{},{},{},{}",
            p.x,
            csv_field(p.algorithm),
            p.collected_gb,
            p.runtime_s,
            p.energy_used_j,
            p.stops
        )?;
    }
    Ok(())
}

/// Quotes a CSV field that holds a comma, a quote or a line break,
/// doubling inner quotes (RFC 4180); other fields pass through as is.
fn csv_field(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\"")).into()
    } else {
        field.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            num_instances: 2,
            scale: 0.06, // 30 devices
            base_seed: 7,
            parallel_instances: false,
            simulate_check: true,
        }
    }

    #[test]
    fn fig3_shape_alg1_beats_benchmark() {
        let pts = run_fig3(&tiny());
        assert_eq!(pts.len(), energy_sweep().len() * 2);
        // At every E, Algorithm 1 collects at least as much as the
        // benchmark (the paper reports ~2x at E = 3e5).
        for e in energy_sweep() {
            let a1 = pts
                .iter()
                .find(|p| p.x == e && p.algorithm == "Algorithm 1")
                .unwrap();
            let bench = pts
                .iter()
                .find(|p| p.x == e && p.algorithm == "Benchmark")
                .unwrap();
            assert!(
                a1.collected_gb >= bench.collected_gb * 0.95,
                "E={e}: alg1 {} < benchmark {}",
                a1.collected_gb,
                bench.collected_gb
            );
        }
    }

    #[test]
    fn fig4_shape_partial_beats_full_beats_benchmark() {
        let cfg = tiny();
        let pts = run_fig4(&HarnessConfig {
            num_instances: 1,
            ..cfg
        });
        for &delta in &[5.0, 30.0] {
            let a2 = pts
                .iter()
                .find(|p| p.x == delta && p.algorithm == "Algorithm 2")
                .unwrap();
            let a3 = pts
                .iter()
                .find(|p| p.x == delta && p.algorithm == "Algorithm 3 (K=4)")
                .unwrap();
            let bench = pts
                .iter()
                .find(|p| p.x == delta && p.algorithm == "Benchmark")
                .unwrap();
            assert!(a3.collected_gb >= a2.collected_gb - 1e-9);
            assert!(
                a2.collected_gb >= bench.collected_gb * 0.9,
                "δ={delta}: alg2 {} vs bench {}",
                a2.collected_gb,
                bench.collected_gb
            );
        }
    }

    #[test]
    fn fig5_collected_grows_with_energy() {
        let pts = run_fig5(&HarnessConfig {
            num_instances: 1,
            ..tiny()
        });
        for alg in ["Algorithm 2", "Algorithm 3 (K=2)", "Benchmark"] {
            let series: Vec<f64> = energy_sweep()
                .iter()
                .map(|&e| {
                    pts.iter()
                        .find(|p| p.x == e && p.algorithm == alg)
                        .unwrap()
                        .collected_gb
                })
                .collect();
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 0.05, "{alg} series not monotone: {series:?}");
            }
        }
    }

    #[test]
    fn csv_roundtrip_layout() {
        let row = DataPoint {
            x: 5.0,
            algorithm: "Algorithm 2",
            collected_gb: 1.25,
            runtime_s: 0.01,
            energy_used_j: 1000.0,
            stops: 3.0,
        };
        // A label holding a comma and quotes must stay one quoted field.
        let quoted = DataPoint {
            x: 2.0,
            algorithm: "Fleet (Alg 2, \"sectors\")",
            ..row.clone()
        };
        let pts = [row, quoted];
        let dir = std::env::temp_dir().join("uavdc_csv_test");
        let path = dir.join("fig.csv");
        write_csv(&path, "delta_m", &pts).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("delta_m,algorithm,"));
        assert!(text.contains("5,Algorithm 2,1.25,0.01,1000,3"));
        assert!(text.contains("2,\"Fleet (Alg 2, \"\"sectors\"\")\",1.25,0.01,1000,3"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
