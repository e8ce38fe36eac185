//! CI gate diffing two baseline JSON artefacts of the same producer
//! (`planner_baseline` or `robustness_sweep`).
//!
//! ```text
//! cargo run --release -p uavdc-bench --bin bench_compare -- \
//!     BENCH_planner.quick.json /tmp/current.json \
//!     [--summary /path/to/summary.md]
//! ```
//!
//! Exit codes: `0` clean, `1` deterministic divergence (a header, an
//! `exact` value, or an unpaired entry), `3` usage or parse error.
//! Timings slower beyond tolerance are printed as informational notes
//! and never change the exit code (`uavdc_bench::compare`).
//!
//! `--summary PATH` appends the markdown diff table to `PATH` — CI passes
//! `$GITHUB_STEP_SUMMARY`.

use std::io::Write as _;
use uavdc_bench::compare::{compare, Verdict};
use uavdc_bench::json::parse;

fn fail_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: bench_compare BASELINE CURRENT [--summary PATH]");
    std::process::exit(3);
}

fn read_doc(path: &str) -> uavdc_bench::json::Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail_usage(&format!("cannot read {path}: {e}")),
    };
    match parse(&text) {
        Ok(doc) => doc,
        Err(e) => fail_usage(&format!("cannot parse {path}: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut summary_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--summary" if i + 1 < args.len() => {
                i += 1;
                summary_path = Some(args[i].clone());
            }
            flag if flag.starts_with("--") => {
                fail_usage(&format!("unknown flag: {flag}"));
            }
            path => positional.push(path.to_string()),
        }
        i += 1;
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        fail_usage("expected exactly two positional arguments: BASELINE CURRENT");
    };

    let baseline = read_doc(baseline_path);
    let current = read_doc(current_path);
    let report = match compare(&baseline, &current) {
        Ok(r) => r,
        Err(e) => fail_usage(&format!("cannot compare: {e}")),
    };

    eprintln!(
        "bench_compare: {} entries paired, {} differing fields, {} structural problems",
        report.paired_entries,
        report.rows.len(),
        report.structural.len()
    );
    for s in &report.structural {
        eprintln!("  STRUCTURAL: {s}");
    }
    for r in &report.rows {
        let tag = match r.verdict {
            Verdict::TimingRegression => "TIMING (informational)",
            Verdict::Diverged => "DIVERGED",
        };
        eprintln!(
            "  {tag}: {} {}: {} -> {}",
            r.key, r.field, r.baseline, r.current
        );
    }

    if let Some(path) = summary_path {
        let md = report.markdown();
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(md.as_bytes()));
        if let Err(e) = result {
            eprintln!("warning: cannot write summary {path}: {e}");
        }
    }

    if report.has_divergence() {
        eprintln!("FAIL: deterministic divergence");
        std::process::exit(1);
    }
    if report.has_timing_regression() {
        eprintln!("timing regression beyond tolerance (informational)");
    }
    eprintln!("OK");
}
