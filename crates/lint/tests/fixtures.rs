//! End-to-end tests of the `uavdc-lint` CLI over fixture files: one
//! fixture per violation class must drive a non-zero exit, the clean
//! fixture and the workspace itself must exit 0.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run the built CLI binary on explicit paths; returns (exit, stdout).
fn run_lint(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_uavdc-lint"))
        .args(args)
        .output()
        .expect("spawn uavdc-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn expect_rule(name: &str, rule: &str) -> String {
    let path = fixture(name);
    let (code, stdout) = run_lint(&[path.to_str().unwrap()]);
    assert_eq!(code, 1, "{name} must exit 1, got {code}; stdout:\n{stdout}");
    assert!(
        stdout.contains(&format!(": {rule}:")),
        "{name} must report rule `{rule}`; stdout:\n{stdout}"
    );
    stdout
}

#[test]
fn float_ord_fixture_fails() {
    let out = expect_rule("float_ord.rs_fixture", "float-ord");
    assert!(
        out.contains("partial_cmp"),
        "flags the NaN-unsafe comparator:\n{out}"
    );
    assert!(
        out.contains("0.5"),
        "flags the exact float comparison:\n{out}"
    );
}

#[test]
fn pragma_meta_rules_fire() {
    let out = expect_rule("bad_pragma.rs_fixture", "malformed-allow");
    assert!(
        out.contains("bad_pragma.rs_fixture:7: unused-allow:"),
        "unused pragma flagged:\n{out}"
    );
    // The reason-less pragma and one per retired rule name.
    assert_eq!(out.matches(": malformed-allow:").count(), 4, "{out}");
    for (line, rule) in [
        (2, "float-ord"),
        (13, "panic-reach"),
        (18, "unit-flow"),
        (23, "obs-twin"),
    ] {
        assert!(
            out.contains(&format!(
                "bad_pragma.rs_fixture:{line}: malformed-allow: pragma `lint:allow({rule})"
            )),
            "{rule} pragma reported as malformed:\n{out}"
        );
    }
}

#[test]
fn raw_quantity_fixture_fails() {
    let out = expect_rule("raw_quantity.rs_fixture", "raw-quantity");
    // Mutation coverage: field, return type, and parameter each flagged.
    assert_eq!(out.matches(": raw-quantity:").count(), 3, "stdout:\n{out}");
    assert!(out.contains("Battery.capacity"), "field finding:\n{out}");
    assert!(out.contains("returns"), "return-type finding:\n{out}");
    assert!(out.contains("`distance`"), "parameter finding:\n{out}");
}

#[test]
fn unit_unwrap_fixture_fails() {
    let out = expect_rule("unit_unwrap.rs_fixture", "unit-unwrap");
    // Both escape hatches: `.value()` and the `Unit(..).0` tuple access.
    assert_eq!(out.matches(": unit-unwrap:").count(), 2, "stdout:\n{out}");
    assert!(out.contains(".value()"), "stdout:\n{out}");
    assert!(out.contains(".0"), "stdout:\n{out}");
}

#[test]
fn lexer_regression_fixture_is_clean() {
    // Rule-triggering text inside strings, comments, and doc comments —
    // plus `pair.0.1` tuple-field chains — must never produce findings.
    let path = fixture("lexer_regression.rs_fixture");
    let (code, stdout) = run_lint(&[path.to_str().unwrap()]);
    assert_eq!(code, 0, "lexer regression fixture must exit 0:\n{stdout}");
    assert!(stdout.is_empty());
}

#[test]
fn clean_fixture_passes() {
    let path = fixture("clean.rs_fixture");
    let (code, stdout) = run_lint(&[path.to_str().unwrap()]);
    assert_eq!(code, 0, "clean fixture must exit 0; stdout:\n{stdout}");
    assert!(stdout.is_empty());
}

#[test]
fn json_output_is_machine_readable() {
    let path = fixture("float_ord.rs_fixture");
    let (code, stdout) = run_lint(&["--json", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    let doc = stdout.trim();
    assert!(
        doc.starts_with("{\"schema\":\"uavdc-lint/6\"") && doc.ends_with('}'),
        "single schema-tagged JSON document: {doc}"
    );
    assert!(doc.contains("\"rule\":\"float-ord\""), "doc: {doc}");
    assert!(doc.contains("\"count\":"), "doc: {doc}");
}

/// A scratch path in the target tmpdir so `--fix-unused --write` can
/// mutate a copy without touching the committed fixture.
fn scratch_copy(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir.join(name)
}

#[test]
fn fix_unused_dry_run_reports_without_editing() {
    let copy = scratch_copy("unused_pragma_dry.rs_fixture.tmp");
    std::fs::copy(fixture("unused_pragma.rs_fixture"), &copy).expect("copy");
    let before = std::fs::read_to_string(&copy).unwrap();
    let (code, stdout) = run_lint(&["--fix-unused", copy.to_str().unwrap()]);
    assert_eq!(code, 0, "dry run exits 0:\n{stdout}");
    assert_eq!(
        stdout.matches("would remove").count(),
        2,
        "both stale pragmas listed:\n{stdout}"
    );
    let after = std::fs::read_to_string(&copy).unwrap();
    assert_eq!(before, after, "dry run must not edit the file");
}

#[test]
fn fix_unused_write_removes_only_stale_pragmas() {
    let copy = scratch_copy("unused_pragma_write.rs_fixture.tmp");
    std::fs::copy(fixture("unused_pragma.rs_fixture"), &copy).expect("copy");
    let (code, stdout) = run_lint(&["--fix-unused", "--write", copy.to_str().unwrap()]);
    assert_eq!(code, 0, "write run exits 0:\n{stdout}");
    assert_eq!(stdout.matches("removed").count(), 2, "stdout:\n{stdout}");
    let after = std::fs::read_to_string(&copy).unwrap();
    assert!(
        !after.contains("lint:allow(unit-unwrap)") && !after.contains("refactored away"),
        "stale pragmas deleted (whole line and trailing comment):\n{after}"
    );
    assert!(
        after.contains("lint:allow(float-ord): fixture exercises a justified exact comparison"),
        "live pragma preserved:\n{after}"
    );
    // The fixed file now lints clean.
    let (code, stdout) = run_lint(&[copy.to_str().unwrap()]);
    assert_eq!(code, 0, "fixed file is clean:\n{stdout}");
}

/// Golden test: `--json` over the three per-file rule fixtures must emit
/// byte-for-byte the committed snapshot — stable schema tag, stable rule
/// list, findings sorted by (path, line, rule, message) regardless of
/// argument order.
#[test]
fn json_report_matches_golden_snapshot() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.json");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden report");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    // Relative paths keep the report machine-independent; scrambled
    // argument order proves the sort, not the CLI, fixes the ordering.
    let out = Command::new(env!("CARGO_BIN_EXE_uavdc-lint"))
        .current_dir(&dir)
        .args([
            "--json",
            "unit_unwrap.rs_fixture",
            "raw_quantity.rs_fixture",
            "float_ord.rs_fixture",
        ])
        .output()
        .expect("spawn uavdc-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.as_ref(),
        golden,
        "JSON report drifted from tests/golden/report.json; if the change \
         is intentional, regenerate the snapshot with:\n  \
         cd crates/lint/tests/fixtures && cargo run -q -p uavdc-lint -- \
         --json float_ord.rs_fixture raw_quantity.rs_fixture \
         unit_unwrap.rs_fixture 2>/dev/null \
         > ../golden/report.json"
    );
}

#[test]
fn list_rules_names_three_rules_and_two_pragma_checks() {
    let (code, stdout) = run_lint(&["--list-rules"]);
    assert_eq!(code, 0);
    let rules: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        rules,
        [
            "float-ord",
            "raw-quantity",
            "unit-unwrap",
            "unused-allow",
            "malformed-allow",
        ],
        "stdout:\n{stdout}"
    );
}

/// Golden test for the CI gate: a full workspace scan must match the
/// committed snapshot byte-for-byte — today that is the clean document
/// (schema 6, all rules, zero findings). A drift here means either a new
/// finding slipped in or the schema changed without regenerating
/// `tests/golden/workspace_report.json`.
#[test]
fn workspace_json_matches_golden_snapshot() {
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/workspace_report.json");
    let golden = std::fs::read_to_string(&golden_path).expect("read workspace golden");
    let findings =
        uavdc_lint::scan_workspace(&uavdc_lint::workspace_root()).expect("workspace scan");
    let mut doc = uavdc_lint::report_json(&findings);
    doc.push('\n');
    assert_eq!(
        doc, golden,
        "workspace report drifted from tests/golden/workspace_report.json; \
         if intentional, regenerate with:\n  \
         cargo run -q -p uavdc-lint -- --json > crates/lint/tests/golden/workspace_report.json"
    );
}

#[test]
fn fix_unused_check_mode_fails_on_stale_pragmas() {
    // CI gate: `--fix-unused --check` exits 1 while stale pragmas exist
    // (with an actionable message), 0 once they are gone. The plain
    // dry-run keeps exiting 0 either way.
    let copy = scratch_copy("unused_pragma_check.rs_fixture.tmp");
    std::fs::copy(fixture("unused_pragma.rs_fixture"), &copy).expect("copy");
    let out = Command::new(env!("CARGO_BIN_EXE_uavdc-lint"))
        .args(["--fix-unused", "--check", copy.to_str().unwrap()])
        .output()
        .expect("spawn uavdc-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stale pragmas must fail --check"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fix-unused --write"),
        "actionable message names the fix command:\n{stderr}"
    );
    let before = std::fs::read_to_string(&copy).unwrap();
    let (_, _) = run_lint(&["--fix-unused", "--write", copy.to_str().unwrap()]);
    let after = std::fs::read_to_string(&copy).unwrap();
    assert_ne!(before, after, "--write removed the stale pragmas");
    let out = Command::new(env!("CARGO_BIN_EXE_uavdc-lint"))
        .args(["--fix-unused", "--check", copy.to_str().unwrap()])
        .output()
        .expect("spawn uavdc-lint");
    assert_eq!(out.status.code(), Some(0), "clean file passes --check");
}

#[test]
fn whole_workspace_is_clean() {
    let findings =
        uavdc_lint::scan_workspace(&uavdc_lint::workspace_root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
