//! `uavdc` — command-line front end for the planners and simulator.
//!
//! ```text
//! uavdc plan      --alg alg2 --devices 100 --seed 7 [--delta 10] [--k 2]
//!                 [--capacity 3e5] [--deployment uniform|clustered|grid]
//!                 [--report] [--trace FILE.csv]
//! uavdc fleet     --uavs 3 [--partition sectors|kmeans] [...plan flags]
//! uavdc compare   [...plan flags]        # all four algorithms side by side
//! ```

use std::path::PathBuf;
use std::process::exit;
use uavdc::net::generator::{self, ScenarioParams};
use uavdc::prelude::*;
use uavdc::sim::MissionReport;

struct Args {
    alg: String,
    devices: usize,
    side: f64,
    seed: u64,
    delta: f64,
    k: usize,
    capacity: Option<f64>,
    deployment: String,
    uavs: usize,
    partition: String,
    report: bool,
    trace: Option<PathBuf>,
    svg: Option<PathBuf>,
    save: Option<PathBuf>,
    load: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            alg: "alg2".into(),
            devices: 100,
            side: 450.0,
            seed: 1,
            delta: 10.0,
            k: 2,
            capacity: None,
            deployment: "uniform".into(),
            uavs: 2,
            partition: "sectors".into(),
            report: false,
            trace: None,
            svg: None,
            save: None,
            load: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: uavdc <plan|fleet|compare> [--alg alg1|alg2|alg3|benchmark] \
         [--devices N] [--side M] [--seed K] [--delta D] [--k K] [--capacity J] \
         [--deployment uniform|clustered|grid] [--uavs M] [--partition sectors|kmeans] \
         [--report] [--trace FILE.csv] [--svg FILE.svg] [--save FILE] [--load FILE]"
    );
    exit(2);
}

fn parse_args(rest: &[String]) -> Args {
    let mut a = Args::default();
    let mut i = 0;
    macro_rules! val {
        () => {{
            i += 1;
            rest.get(i).unwrap_or_else(|| usage()).clone()
        }};
    }
    while i < rest.len() {
        match rest[i].as_str() {
            "--alg" => a.alg = val!(),
            "--devices" => a.devices = val!().parse().unwrap_or_else(|_| usage()),
            "--side" => a.side = val!().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val!().parse().unwrap_or_else(|_| usage()),
            "--delta" => a.delta = val!().parse().unwrap_or_else(|_| usage()),
            "--k" => a.k = val!().parse().unwrap_or_else(|_| usage()),
            "--capacity" => a.capacity = Some(val!().parse().unwrap_or_else(|_| usage())),
            "--deployment" => a.deployment = val!(),
            "--uavs" => a.uavs = val!().parse().unwrap_or_else(|_| usage()),
            "--partition" => a.partition = val!(),
            "--report" => a.report = true,
            "--trace" => a.trace = Some(PathBuf::from(val!())),
            "--svg" => a.svg = Some(PathBuf::from(val!())),
            "--save" => a.save = Some(PathBuf::from(val!())),
            "--load" => a.load = Some(PathBuf::from(val!())),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
        i += 1;
    }
    a
}

fn build_scenario(a: &Args) -> Scenario {
    if let Some(path) = &a.load {
        let scenario = uavdc::net::io::read_scenario(path)
            .unwrap_or_else(|e| panic!("failed to load {}: {e}", path.display()));
        return scenario;
    }
    let mut params = ScenarioParams {
        num_devices: a.devices,
        region_side: a.side,
        ..ScenarioParams::default()
    };
    if let Some(e) = a.capacity {
        params.uav.capacity = Joules(e);
    }
    let scenario = match a.deployment.as_str() {
        "uniform" => generator::uniform(&params, a.seed),
        "clustered" => generator::clustered(&params, 5, a.side / 12.0, a.seed),
        "grid" => generator::grid_deployment(&params, a.side / 50.0, a.seed),
        other => {
            eprintln!("unknown deployment: {other}");
            usage();
        }
    };
    scenario
        .validate()
        .expect("generated scenario must be valid");
    if let Some(path) = &a.save {
        uavdc::net::io::write_scenario(path, &scenario)
            .unwrap_or_else(|e| panic!("failed to save {}: {e}", path.display()));
        eprintln!("scenario saved to {}", path.display());
    }
    scenario
}

/// The planner `--alg` names, with the paper problem its plans solve.
fn make_planner(a: &Args) -> (Box<dyn Planner>, Profile) {
    match a.alg.as_str() {
        "alg1" => (
            Box::new(Alg1Planner::new(Alg1Config {
                delta: a.delta,
                ..Alg1Config::default()
            })),
            Profile::P1FullDisjoint,
        ),
        "alg2" => (
            Box::new(Alg2Planner::new(Alg2Config {
                delta: a.delta,
                ..Alg2Config::default()
            })),
            Profile::P2FullOverlap,
        ),
        "alg3" => (
            Box::new(Alg3Planner::new(Alg3Config {
                delta: a.delta,
                k: a.k,
                ..Alg3Config::default()
            })),
            Profile::P3Partial,
        ),
        "benchmark" => (Box::new(BenchmarkPlanner), Profile::P1FullDisjoint),
        other => {
            eprintln!("unknown algorithm: {other}");
            usage();
        }
    }
}

fn describe(scenario: &Scenario) {
    println!(
        "scenario: {} devices in {:.0} m x {:.0} m, {:.2} GB stored, battery {:.0} J, R0 {:.0} m",
        scenario.num_devices(),
        scenario.region.width(),
        scenario.region.height(),
        megabytes_as_gb(scenario.total_data()),
        scenario.uav.capacity.value(),
        scenario.coverage_radius().value(),
    );
}

fn run_plan(a: &Args) {
    let scenario = build_scenario(a);
    describe(&scenario);
    let (planner, profile) = make_planner(a);
    #[expect(
        clippy::disallowed_methods,
        reason = "the CLI prints the planner call's wall time"
    )]
    let started = std::time::Instant::now();
    let plan = planner.plan(&scenario);
    let dt = started.elapsed();
    check_plan(&scenario, &plan, profile).expect("planner must produce a valid plan");
    println!(
        "\n{}: {:.2} GB at {} stops, {:.0} J ({:.0} travel / {:.0} hover), planned in {:.1} ms",
        planner.name(),
        megabytes_as_gb(plan.collected_volume()),
        plan.stops.len(),
        plan.total_energy(&scenario).value(),
        plan.travel_energy(&scenario).value(),
        plan.hover_energy(&scenario).value(),
        dt.as_secs_f64() * 1e3,
    );
    if let Some(path) = &a.svg {
        uavdc::viz::write_svg(path, &uavdc::viz::render_plan_svg(&scenario, &plan))
            .expect("write SVG");
        println!("SVG written to {}", path.display());
    }
    if a.report || a.trace.is_some() {
        let outcome = simulate(&scenario, &plan, &SimConfig::default());
        if a.report {
            println!("\n{}", MissionReport::new(&outcome, &scenario));
        }
        if let Some(path) = &a.trace {
            uavdc::sim::write_trace_csv(path, &outcome).expect("write trace CSV");
            println!("trace written to {}", path.display());
        }
    }
}

fn run_fleet(a: &Args) {
    let scenario = build_scenario(a);
    describe(&scenario);
    let partition = match a.partition.as_str() {
        "sectors" => FleetPartition::Sectors,
        "kmeans" => FleetPartition::KMeans,
        other => {
            eprintln!("unknown partition: {other}");
            usage();
        }
    };
    let fleet = MultiUavPlanner::new(
        Alg2Planner::new(Alg2Config {
            delta: a.delta,
            ..Alg2Config::default()
        }),
        FleetConfig {
            fleet_size: a.uavs,
            partition,
        },
    )
    .plan_fleet(&scenario);
    check_fleet(&scenario, &fleet, Profile::P2FullOverlap).expect("fleet plan must validate");
    println!(
        "\nfleet of {}: {:.2} GB total, busiest UAV {:.0} J",
        a.uavs,
        megabytes_as_gb(fleet.collected_volume()),
        fleet.max_energy(&scenario).value(),
    );
    for (u, plan) in fleet.plans.iter().enumerate() {
        println!(
            "  UAV {u}: {:.2} GB at {} stops ({:.0} J)",
            megabytes_as_gb(plan.collected_volume()),
            plan.stops.len(),
            plan.total_energy(&scenario).value(),
        );
    }
}

fn run_compare(a: &Args) {
    let scenario = build_scenario(a);
    describe(&scenario);
    println!(
        "\n{:<36} {:>10} {:>8} {:>12} {:>10}",
        "planner", "GB", "stops", "energy (J)", "ms"
    );
    for alg in ["alg1", "alg2", "alg3", "benchmark"] {
        let (planner, profile) = make_planner(&Args {
            alg: alg.into(),
            ..clone_args(a)
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the CLI prints each planner call's wall time"
        )]
        let started = std::time::Instant::now();
        let plan = planner.plan(&scenario);
        let dt = started.elapsed();
        check_plan(&scenario, &plan, profile).expect("valid plan");
        println!(
            "{:<36} {:>10.2} {:>8} {:>12.0} {:>10.1}",
            planner.name(),
            megabytes_as_gb(plan.collected_volume()),
            plan.stops.len(),
            plan.total_energy(&scenario).value(),
            dt.as_secs_f64() * 1e3,
        );
    }
}

fn clone_args(a: &Args) -> Args {
    Args {
        alg: a.alg.clone(),
        deployment: a.deployment.clone(),
        partition: a.partition.clone(),
        trace: a.trace.clone(),
        svg: a.svg.clone(),
        save: a.save.clone(),
        load: a.load.clone(),
        ..*a
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = parse_args(&argv[1..]);
    match cmd.as_str() {
        "plan" => run_plan(&args),
        "fleet" => run_fleet(&args),
        "compare" => run_compare(&args),
        _ => usage(),
    }
}
