//! End-to-end tests of the `bench_compare` binary: exit codes and the
//! markdown summary, driven through the real CLI.

use std::path::PathBuf;
use std::process::Command;

const BASELINE: &str = r#"{
  "header": {"schema": "uavdc-planner-baseline/4", "mode": "quick", "scale": 0.2,
             "seeds": [39582]},
  "summary": {},
  "entries": [
    {"key": "fig4 delta_m=5 Algorithm 2 seed=39582",
     "exact": {"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2", "seed": 39582,
       "candidates": 100, "iterations": 12, "exhaustive_bound": 1200,
       "plans_identical": true, "plan_hash": "00aa11bb22cc33dd",
       "lazy": {"evaluations": 250, "marginal_evals": 30, "delta_rescans": 2,
                "fixups": 1, "heap_pops": 60, "tour_patches": 12, "full_retours": 0},
       "exhaustive": {"evaluations": 1200, "marginal_evals": 0, "delta_rescans": 0,
                "fixups": 0, "heap_pops": 0, "tour_patches": 12, "full_retours": 0}},
     "timing": {"lazy.setup_ns": 2000000, "lazy.loop_ns": 8000000,
                "exhaustive.setup_ns": 2000000, "exhaustive.loop_ns": 30000000}}
  ]
}"#;

/// Writes `content` under a unique name in the target tmp dir and
/// returns the path.
fn fixture(name: &str, content: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write fixture");
    path
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn identical_files_exit_zero() {
    let a = fixture("identical_a.json", BASELINE);
    let b = fixture("identical_b.json", BASELINE);
    let out = run(&[a.to_str().expect("utf8"), b.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn seeded_eval_count_regression_exits_nonzero() {
    // One extra evaluation: deterministic divergence, must hard-fail.
    let a = fixture("evalreg_a.json", BASELINE);
    let b = fixture(
        "evalreg_b.json",
        &BASELINE.replace("\"evaluations\": 250", "\"evaluations\": 251"),
    );
    let out = run(&[a.to_str().expect("utf8"), b.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lazy.evaluations"), "{stderr}");
}

#[test]
fn plan_hash_drift_exits_nonzero() {
    let a = fixture("hashdrift_a.json", BASELINE);
    let b = fixture(
        "hashdrift_b.json",
        &BASELINE.replace("00aa11bb22cc33dd", "ffffffffffffffff"),
    );
    let out = run(&[a.to_str().expect("utf8"), b.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn timing_only_jitter_exits_zero() {
    // Loop time up 40% — below the 50% tolerance.
    let a = fixture("jitter_a.json", BASELINE);
    let b = fixture(
        "jitter_b.json",
        &BASELINE.replace("\"lazy.loop_ns\": 8000000", "\"lazy.loop_ns\": 11200000"),
    );
    let out = run(&[a.to_str().expect("utf8"), b.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn big_timing_regression_informational_without_gate() {
    let a = fixture("bigtiming_a.json", BASELINE);
    let b = fixture(
        "bigtiming_b.json",
        &BASELINE.replace("\"lazy.loop_ns\": 8000000", "\"lazy.loop_ns\": 80000000"),
    );
    let out = run(&[a.to_str().expect("utf8"), b.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timing.lazy.loop_ns"), "{stderr}");
}

#[test]
fn summary_file_gets_markdown_table() {
    let a = fixture("summary_a.json", BASELINE);
    let b = fixture(
        "summary_b.json",
        &BASELINE.replace("\"evaluations\": 250", "\"evaluations\": 999"),
    );
    let summary = fixture("summary_out.md", "");
    let out = run(&[
        a.to_str().expect("utf8"),
        b.to_str().expect("utf8"),
        "--summary",
        summary.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let md = std::fs::read_to_string(&summary).expect("summary written");
    assert!(md.contains("| entry | field |"), "{md}");
    assert!(md.contains("diverged"), "{md}");
}

#[test]
fn usage_errors_exit_three() {
    let out = run(&["only-one-arg.json"]);
    assert_eq!(out.status.code(), Some(3));
    let a = fixture("badjson_a.json", "{not json");
    let b = fixture("badjson_b.json", BASELINE);
    let out = run(&[a.to_str().expect("utf8"), b.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(3));
    // Timings never gate, so no flag turns them into a gate.
    let c = fixture("badflag.json", BASELINE);
    let out = run(&[
        c.to_str().expect("utf8"),
        c.to_str().expect("utf8"),
        "--gate-timings",
    ]);
    assert_eq!(out.status.code(), Some(3));
}
