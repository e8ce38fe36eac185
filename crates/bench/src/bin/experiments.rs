//! Experiment runner reproducing the paper's figures.
//!
//! ```text
//! experiments <fig3|fig4|fig5|all|hover|wind|fleet|extras|ablation>
//!             [--scale S] [--instances N] [--seed B]
//!             [--serial] [--no-sim-check] [--out DIR]
//! ```
//!
//! `--scale 1.0` (default) is the paper's full setting: 500 devices in
//! 1000 m × 1000 m averaged over 15 instances. Use `--scale 0.2
//! --instances 3` for a quick look. Tables print to stdout; CSVs land in
//! `--out` (default `results/`). `ablation` compares the design choices
//! of DESIGN.md §6, each arm's quality next to its wall time.

use std::path::PathBuf;
use std::process::exit;
use uavdc_bench::{
    print_ablation, print_table, run_ablation, run_fig3, run_fig4, run_fig5, run_fleet_sweep,
    run_hover_sweep, run_wind_sweep, write_ablation_csv, write_csv, HarnessConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig3|fig4|fig5|hover|wind|fleet|all|extras|ablation> [--scale S] \
         [--instances N] [--seed B] [--serial] [--no-sim-check] [--out DIR]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let which = args[0].clone();
    let mut cfg = HarnessConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--instances" => {
                cfg.num_instances = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                cfg.base_seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--serial" => {
                cfg.parallel_instances = false;
                i += 1;
            }
            "--no-sim-check" => {
                cfg.simulate_check = false;
                i += 1;
            }
            "--out" => {
                out_dir = PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage()));
                i += 2;
            }
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    println!(
        "# config: scale={} instances={} seed={} parallel={} sim-check={}",
        cfg.scale, cfg.num_instances, cfg.base_seed, cfg.parallel_instances, cfg.simulate_check
    );

    let run_3 = which == "fig3" || which == "all";
    let run_4 = which == "fig4" || which == "all";
    let run_5 = which == "fig5" || which == "all";
    let run_hover = which == "hover" || which == "extras";
    let run_wind = which == "wind" || which == "extras";
    let run_fleet = which == "fleet" || which == "extras";
    let ablation = which == "ablation";
    if !(run_3 || run_4 || run_5 || run_hover || run_wind || run_fleet || ablation) {
        usage();
    }
    if run_3 {
        let pts = run_fig3(&cfg);
        print_table("Fig. 3 — no coverage overlap, battery sweep", "E (J)", &pts);
        write_csv(&out_dir.join("fig3.csv"), "energy_j", &pts).expect("write fig3.csv");
    }
    if run_4 {
        let pts = run_fig4(&cfg);
        print_table("Fig. 4 — δ sweep at E = 3e5 J", "δ (m)", &pts);
        write_csv(&out_dir.join("fig4.csv"), "delta_m", &pts).expect("write fig4.csv");
    }
    if run_5 {
        let pts = run_fig5(&cfg);
        print_table("Fig. 5 — battery sweep at δ = 10 m", "E (J)", &pts);
        write_csv(&out_dir.join("fig5.csv"), "energy_j", &pts).expect("write fig5.csv");
    }
    if run_hover {
        let pts = run_hover_sweep(&cfg);
        print_table(
            "Supplementary — bandwidth sweep (hover-dominated regime)",
            "B (MB/s)",
            &pts,
        );
        write_csv(&out_dir.join("hover.csv"), "bandwidth_mbps", &pts).expect("write hover.csv");
    }
    if run_wind {
        let pts = run_wind_sweep(&cfg);
        print_table(
            "Supplementary — battery margin vs wind (stops column = completion %)",
            "margin",
            &pts,
        );
        write_csv(&out_dir.join("wind.csv"), "margin", &pts).expect("write wind.csv");
    }
    if run_fleet {
        let pts = run_fleet_sweep(&cfg);
        print_table(
            "Supplementary — fleet scaling (energy column = busiest UAV)",
            "UAVs",
            &pts,
        );
        write_csv(&out_dir.join("fleet.csv"), "fleet_size", &pts).expect("write fleet.csv");
    }
    if ablation {
        let rows = run_ablation(&cfg);
        print_ablation(&rows);
        write_ablation_csv(&out_dir.join("ablation.csv"), &rows).expect("write ablation.csv");
    }
    println!("\nCSV written to {}", out_dir.display());
}
