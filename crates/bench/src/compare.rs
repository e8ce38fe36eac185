//! Noise-aware comparison of two baseline JSON artefacts
//! (`planner_baseline`, `robustness_sweep`).
//!
//! Every artefact has one shape, written by
//! [`write_report`](crate::json::write_report):
//! `{"header": {…}, "summary": {…}, "entries": [{"key": "…", "exact":
//! {…}, "timing": {…}}]}`. [`compare`] reads nothing else and knows no
//! producer or field by name:
//!
//! - `header` (schema, mode, scale, seeds, …) is deep-diffed; any
//!   difference is a structural failure;
//! - entries pair by `key`; a key on one side only, or twice on one
//!   side, is a structural failure — nothing is silently skipped;
//! - `exact` holds deterministic values (counters, plan hashes,
//!   fingerprints) and is deep-diffed: any difference diverges;
//! - every `timing` field is integer nanoseconds of wall time, machine
//!   noise up to a point. A field slower by more than [`TIMING_REL_TOL`]
//!   *and* [`TIMING_MIN_ABS_NS`] is reported, but as an informational
//!   note: run-to-run spread on one machine exceeds the tolerance, so it
//!   cannot gate;
//! - `summary` is derived from the entries and is not read.
//!
//! [`CompareReport::markdown`] renders the diff table CI posts to the
//! job summary.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A timing up to `(1 + TIMING_REL_TOL) ×` its baseline is not reported.
pub const TIMING_REL_TOL: f64 = 0.5;

/// A timing difference below this many nanoseconds is never reported,
/// whatever the ratio: tiny phases jitter by large ratios.
pub const TIMING_MIN_ABS_NS: u64 = 5_000_000;

/// How one compared field fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Timing slower beyond both tolerances — informational.
    TimingRegression,
    /// Deterministic value differs — always a failure.
    Diverged,
}

/// One row of the diff: a field of one paired entry.
#[derive(Clone, Debug)]
pub struct Row {
    /// Entry key, e.g. `fig4 delta_m=5 Algorithm 2 seed=39582`.
    pub key: String,
    /// Field path, e.g. `exact.lazy.evaluations`.
    pub field: String,
    /// Baseline value as text.
    pub baseline: String,
    /// Current value as text.
    pub current: String,
    /// Outcome for this field.
    pub verdict: Verdict,
}

/// Everything [`compare`] found.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Rows that differed (identical fields are not listed).
    pub rows: Vec<Row>,
    /// Structural problems: header mismatches, unpaired entries.
    pub structural: Vec<String>,
    /// Number of entries paired between the two files.
    pub paired_entries: usize,
}

impl CompareReport {
    /// Any deterministic divergence (structural problems count).
    pub fn has_divergence(&self) -> bool {
        !self.structural.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Diverged)
    }

    /// Any timing slower beyond tolerance.
    pub fn has_timing_regression(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.verdict == Verdict::TimingRegression)
    }

    /// Renders the GitHub-flavoured-markdown summary CI appends to
    /// `$GITHUB_STEP_SUMMARY`.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## bench-compare\n\n");
        let _ = writeln!(out, "{} entries paired.\n", self.paired_entries);
        if self.structural.is_empty() && self.rows.is_empty() {
            out.push_str("No differences beyond tolerance. ✅\n");
            return out;
        }
        for s in &self.structural {
            let _ = writeln!(out, "- ❌ {s}");
        }
        if !self.rows.is_empty() {
            out.push_str("\n| entry | field | baseline | current | status |\n");
            out.push_str("|---|---|---:|---:|---|\n");
            for r in &self.rows {
                let status = match r.verdict {
                    Verdict::TimingRegression => "⚠️ timing regression (informational)",
                    Verdict::Diverged => "❌ diverged",
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} |",
                    r.key, r.field, r.baseline, r.current, status
                );
            }
        }
        out
    }
}

fn render(v: Option<&Json>) -> String {
    match v {
        None => "∅".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.to_string(),
    }
}

/// What [`diff`] does with a pair of unequal leaves.
type Leaf = fn(&mut Vec<Row>, &str, &str, Option<&Json>, Option<&Json>);

/// Walks two JSON values in step and hands every unequal leaf to
/// `leaf`: objects walk the union of their keys, equal-length arrays
/// pair elementwise, anything else (a scalar, a missing side, a shape
/// change) is a leaf.
fn diff(
    rows: &mut Vec<Row>,
    key: &str,
    path: &str,
    a: Option<&Json>,
    b: Option<&Json>,
    leaf: Leaf,
) {
    if a == b {
        return;
    }
    match (a, b) {
        (Some(Json::Obj(ao)), Some(Json::Obj(bo))) => {
            let fields: BTreeSet<&String> = ao.keys().chain(bo.keys()).collect();
            for field in fields {
                let sub = format!("{path}.{field}");
                diff(rows, key, &sub, ao.get(field), bo.get(field), leaf);
            }
        }
        (Some(Json::Arr(aa)), Some(Json::Arr(ba))) if aa.len() == ba.len() => {
            for (i, (ae, be)) in aa.iter().zip(ba).enumerate() {
                diff(rows, key, &format!("{path}[{i}]"), Some(ae), Some(be), leaf);
            }
        }
        _ => leaf(rows, key, path, a, b),
    }
}

fn diverged(rows: &mut Vec<Row>, key: &str, field: &str, a: Option<&Json>, b: Option<&Json>) {
    rows.push(Row {
        key: key.to_string(),
        field: field.to_string(),
        baseline: render(a),
        current: render(b),
        verdict: Verdict::Diverged,
    });
}

fn compare_timing(rows: &mut Vec<Row>, key: &str, field: &str, a: Option<&Json>, b: Option<&Json>) {
    let (Some(base), Some(cur)) = (a.and_then(Json::as_u64), b.and_then(Json::as_u64)) else {
        diverged(rows, key, field, a, b); // missing or malformed timing
        return;
    };
    if cur <= base {
        return; // faster is never a regression
    }
    let abs = cur - base;
    let rel = abs as f64 / (base.max(1)) as f64;
    if abs >= TIMING_MIN_ABS_NS && rel > TIMING_REL_TOL {
        rows.push(Row {
            key: key.to_string(),
            field: field.to_string(),
            baseline: format!("{:.2} ms", base as f64 / 1e6),
            current: format!("{:.2} ms (+{:.0}%)", cur as f64 / 1e6, rel * 100.0),
            verdict: Verdict::TimingRegression,
        });
    }
}

/// The entries of one document by key, with duplicate keys reported.
fn entries_by_key<'a>(
    doc: &'a Json,
    side: &str,
    structural: &mut Vec<String>,
) -> Result<BTreeMap<&'a str, &'a Json>, String> {
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{side} has no `entries` array"))?;
    let mut by_key = BTreeMap::new();
    for (i, e) in entries.iter().enumerate() {
        let key = e
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{side} entry {i} has no string `key`"))?;
        // A duplicate would silently shadow its twin in the map.
        if by_key.insert(key, e).is_some() {
            structural.push(format!("duplicate entry key in {side}: {key}"));
        }
    }
    Ok(by_key)
}

/// Compares two parsed baseline documents.
///
/// Returns `Err` only when a document is too malformed to walk (no
/// `entries` array, an entry without a string `key`); everything else is
/// reported in the [`CompareReport`].
pub fn compare(baseline: &Json, current: &Json) -> Result<CompareReport, String> {
    let mut report = CompareReport::default();

    let mut header = Vec::new();
    let (a, b) = (baseline.get("header"), current.get("header"));
    diff(&mut header, "", "header", a, b, diverged);
    for r in header {
        report.structural.push(format!(
            "`{}` differs: baseline {} vs current {}",
            r.field, r.baseline, r.current
        ));
    }

    let base = entries_by_key(baseline, "baseline", &mut report.structural)?;
    let mut cur = entries_by_key(current, "current", &mut report.structural)?;
    for (key, b) in base {
        let Some(c) = cur.remove(key) else {
            report.structural.push(format!(
                "entry removed (baseline only, missing from current): {key}"
            ));
            continue;
        };
        report.paired_entries += 1;
        let rows = &mut report.rows;
        diff(rows, key, "exact", b.get("exact"), c.get("exact"), diverged);
        diff(
            rows,
            key,
            "timing",
            b.get("timing"),
            c.get("timing"),
            compare_timing,
        );
    }
    for key in cur.keys() {
        report.structural.push(format!(
            "entry added (current only, missing from baseline): {key}"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn fixture(loop_ns: u64, evals: u64, patches: u64, retours: u64, hash: &str) -> Json {
        parse(&format!(
            r#"{{"header": {{"schema": "planner-fixture/4", "mode": "quick",
                            "scale": 0.2, "seeds": [39582]}},
                "summary": {{"headline_fig4_delta5": {{"alg2_wall_speedup": 1.5}}}},
                "entries": [
                  {{"key": "fig4 delta_m=5 Algorithm 2 seed=39582",
                    "exact": {{"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2",
                      "seed": 39582, "candidates": 100, "iterations": 10,
                      "exhaustive_bound": 1000, "plans_identical": true,
                      "plan_hash": "{hash}",
                      "lazy": {{"evaluations": {evals}, "marginal_evals": 5,
                               "delta_rescans": 0, "fixups": 0, "heap_pops": 30,
                               "tour_patches": {patches}, "full_retours": {retours}}},
                      "exhaustive": {{"evaluations": 1000, "marginal_evals": 0,
                               "delta_rescans": 0, "fixups": 0, "heap_pops": 0,
                               "tour_patches": {patches}, "full_retours": {retours}}}}},
                    "timing": {{"lazy.setup_ns": 1000000, "lazy.loop_ns": {loop_ns},
                               "exhaustive.setup_ns": 1000000,
                               "exhaustive.loop_ns": 9000000}}}}
                ]}}"#
        ))
        .expect("fixture parses")
    }

    fn doc(loop_ns: u64, evals: u64, hash: &str) -> Json {
        fixture(loop_ns, evals, 40, 0, hash)
    }

    /// The object at `path` below `doc`; numeric segments index arrays.
    fn obj_at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut BTreeMap<String, Json> {
        let mut v = doc;
        for seg in path {
            v = match v {
                Json::Obj(map) => map.get_mut(*seg).expect("field exists"),
                Json::Arr(items) => &mut items[seg.parse::<usize>().expect("index")],
                other => panic!("no container at {seg}: {other:?}"),
            };
        }
        match v {
            Json::Obj(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn identical_documents_are_clean() {
        let a = doc(8_000_000, 120, "aa");
        let r = compare(&a, &a).expect("walkable");
        assert!(!r.has_divergence());
        assert!(!r.has_timing_regression());
        assert_eq!(r.paired_entries, 1);
        assert!(r.markdown().contains("No differences"));
    }

    #[test]
    fn eval_count_change_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(8_000_000, 121, "aa");
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.evaluations"));
    }

    #[test]
    fn plan_hash_change_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(8_000_000, 120, "bb");
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
    }

    #[test]
    fn timing_jitter_within_tolerance_passes() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(11_000_000, 120, "aa"); // +37% < 50% TIMING_REL_TOL
        let r = compare(&a, &b).expect("walkable");
        assert!(!r.has_divergence());
        assert!(!r.has_timing_regression());
    }

    #[test]
    fn large_timing_jump_is_a_regression_not_divergence() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(40_000_000, 120, "aa"); // 5x, far over tolerance
        let r = compare(&a, &b).expect("walkable");
        assert!(!r.has_divergence());
        assert!(r.has_timing_regression());
        assert!(r.rows.iter().any(|row| row.field == "timing.lazy.loop_ns"));
        assert!(r.markdown().contains("timing regression"));
    }

    #[test]
    fn small_absolute_timing_delta_never_fails() {
        let a = doc(100, 120, "aa");
        let b = doc(1_000_000, 120, "aa"); // 10000x but < TIMING_MIN_ABS_NS
        let r = compare(&a, &b).expect("walkable");
        assert!(!r.has_timing_regression());
    }

    #[test]
    fn getting_faster_is_fine() {
        let a = doc(80_000_000, 120, "aa");
        let b = doc(8_000_000, 120, "aa");
        let r = compare(&a, &b).expect("walkable");
        assert!(!r.has_divergence());
        assert!(!r.has_timing_regression());
    }

    #[test]
    fn header_mismatch_is_structural() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        obj_at(&mut b, &["header"]).insert("mode".to_string(), "full".into());
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.structural.iter().any(|s| s.contains("mode")));
    }

    #[test]
    fn unpaired_entries_are_structural() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        obj_at(&mut b, &[]).insert("entries".to_string(), Json::Arr(Vec::new()));
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert_eq!(r.paired_entries, 0);
    }

    #[test]
    fn tour_counter_drift_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let b = fixture(8_000_000, 120, 41, 0, "aa");
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.tour_patches"));
        let c = fixture(8_000_000, 120, 40, 2, "aa");
        let r = compare(&a, &c).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.full_retours"));
    }

    #[test]
    fn missing_tour_counter_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        obj_at(&mut b, &["entries", "0", "exact", "lazy"]).remove("tour_patches");
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.tour_patches"));
    }

    #[test]
    fn schema_mismatch_is_structural() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        obj_at(&mut b, &["header"]).insert("schema".to_string(), "planner-fixture/3".into());
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.structural.iter().any(|s| s.contains("schema")));
    }

    #[test]
    fn unnamed_exact_field_change_diverges() {
        // No code names `split_resolved`: it diverges because it sits
        // under `exact`, both when it changes and when it appears.
        let mut a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        let lazy = ["entries", "0", "exact", "lazy"];
        obj_at(&mut a, &lazy).insert("split_resolved".to_string(), 7u64.into());
        obj_at(&mut b, &lazy).insert("split_resolved".to_string(), 8u64.into());
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.split_resolved"));
        let r = compare(&doc(8_000_000, 120, "aa"), &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.split_resolved" && row.baseline == "∅"));
    }

    #[test]
    fn unknown_schema_compares_by_the_same_rules() {
        let with_schema = |loop_ns, evals| {
            let mut d = doc(loop_ns, evals, "aa");
            obj_at(&mut d, &["header"]).insert("schema".to_string(), "elsewhere/9".into());
            d
        };
        let a = with_schema(8_000_000, 120);
        let r = compare(&a, &a).expect("walkable");
        assert!(!r.has_divergence());
        assert_eq!(r.paired_entries, 1);
        let r = compare(&a, &with_schema(8_000_000, 121)).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .rows
            .iter()
            .any(|row| row.field == "exact.lazy.evaluations"));
        let r = compare(&a, &with_schema(40_000_000, 120)).expect("walkable");
        assert!(!r.has_divergence());
        assert!(r.has_timing_regression());
        // A timing that disappears is a shape change, not noise.
        let mut c = with_schema(8_000_000, 120);
        obj_at(&mut c, &["entries", "0", "timing"]).remove("exhaustive.loop_ns");
        let r = compare(&a, &c).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.rows.iter().any(
            |row| row.field == "timing.exhaustive.loop_ns" && row.verdict == Verdict::Diverged
        ));
    }

    fn robustness_doc(trace_fp: &str, drops: u64) -> Json {
        parse(&format!(
            r#"{{"header": {{"schema": "robustness-fixture/1", "mode": "quick", "scale": 0.2,
                            "seeds": [39582], "levels": ["calm", "storm"]}},
                "summary": {{"degradation": {{"calm": {{"delivered_mb": 812.5}}}}}},
                "entries": [
                  {{"key": "fig4 delta_m=5 Algorithm 2 seed=39582 level=0",
                    "exact": {{"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2",
                      "seed": 39582, "level": 0, "fault_name": "calm",
                      "delivered_mb": 812.5, "planned_mb": 812.5,
                      "delivered_frac": 1, "energy_bits": "4114b5318b4c842a",
                      "trace_fp": "aaaaaaaaaaaaaaaa", "executed_fp": "cccccccccccccccc",
                      "replans": 0, "trims": 0, "drops": 0, "safe": true}},
                    "timing": {{}}}},
                  {{"key": "fig4 delta_m=5 Algorithm 2 seed=39582 level=1",
                    "exact": {{"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2",
                      "seed": 39582, "level": 1, "fault_name": "storm",
                      "delivered_mb": 444.25, "planned_mb": 812.5,
                      "delivered_frac": 0.55, "energy_bits": "4114b5318b4c842b",
                      "trace_fp": "{trace_fp}", "executed_fp": "dddddddddddddddd",
                      "replans": 1, "trims": 2, "drops": {drops}, "safe": true}},
                    "timing": {{}}}}
                ]}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn robustness_identical_documents_are_clean() {
        let a = robustness_doc("bbbbbbbbbbbbbbbb", 3);
        let r = compare(&a, &a).expect("walkable");
        assert!(!r.has_divergence());
        // Both fault levels of the sweep point pair separately.
        assert_eq!(r.paired_entries, 2);
    }

    #[test]
    fn robustness_levels_header_change_is_structural() {
        let a = robustness_doc("bbbbbbbbbbbbbbbb", 3);
        let mut b = robustness_doc("bbbbbbbbbbbbbbbb", 3);
        obj_at(&mut b, &["header"]).insert(
            "levels".to_string(),
            Json::Arr(vec!["calm".into(), "gale".into()]),
        );
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.rows.is_empty(), "entries are identical");
        assert!(r.structural.iter().any(|s| s.contains("levels")));
    }

    #[test]
    fn duplicate_entry_keys_are_structural_not_silent() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        if let Some(Json::Arr(entries)) = obj_at(&mut b, &[]).get_mut("entries") {
            let twin = entries[0].clone();
            entries.push(twin);
        }
        // current has the same key twice: must fail, both directions.
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .structural
            .iter()
            .any(|s| s.contains("duplicate entry key in current")));
        let r = compare(&b, &a).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .structural
            .iter()
            .any(|s| s.contains("duplicate entry key in baseline")));
    }

    #[test]
    fn entry_only_in_current_fails_hard() {
        let mut a = doc(8_000_000, 120, "aa");
        let b = doc(8_000_000, 120, "aa");
        obj_at(&mut a, &[]).insert("entries".to_string(), Json::Arr(Vec::new()));
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .structural
            .iter()
            .any(|s| s.contains("entry added (current only")));
    }

    #[test]
    fn robustness_entries_hard_diff_every_field() {
        let a = robustness_doc("bbbbbbbbbbbbbbbb", 3);
        let b = robustness_doc("bbbbbbbbbbbbbbbc", 4); // flipped fp bit + drop count
        let r = compare(&a, &b).expect("walkable");
        assert!(r.has_divergence());
        assert!(!r.has_timing_regression(), "no timings in this schema");
        assert!(r.rows.iter().any(|row| row.field == "exact.trace_fp"));
        assert!(r.rows.iter().any(|row| row.field == "exact.drops"));
        // The diverging rows belong to the storm-level entry only.
        assert!(r.rows.iter().all(|row| row.key.ends_with("level=1")));
    }
}
