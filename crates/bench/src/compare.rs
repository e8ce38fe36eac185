//! Noise-aware comparison of two baseline JSON artefacts
//! (`planner_baseline`, `robustness_sweep`).
//!
//! The baseline file mixes two kinds of numbers. *Deterministic* fields —
//! candidate counts, iteration counts, every evaluation and tour counter,
//! plan hashes, the lazy/exhaustive identity bit — are products of the
//! workspace's determinism discipline: any difference is a behaviour
//! change and fails the comparison outright. *Timing* fields (`setup_ns`,
//! `loop_ns`) are machine noise up to a point, so they are gated by a
//! relative tolerance combined with a minimum absolute delta (tiny phases
//! jitter by large ratios without meaning anything).
//!
//! [`compare`] pairs entries by (figure, x value, algorithm, seed[,
//! fault level]) and returns a [`CompareReport`];
//! [`CompareReport::markdown`] renders the diff table CI posts to the
//! job summary. Entries present on only one side and duplicate entry
//! keys within one side are structural failures — nothing is silently
//! skipped.

use crate::json::Json;
use std::fmt::Write as _;

/// Tolerances for the timing comparison.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Relative tolerance for timings: a current value up to
    /// `(1 + rel_tol) ×` baseline passes. Default `0.5` — CI runners are
    /// noisy, and the deterministic counters are the real gate.
    pub rel_tol: f64,
    /// A timing difference below this many nanoseconds never fails,
    /// whatever the ratio. Default 5 ms.
    pub min_abs_ns: u64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            rel_tol: 0.5,
            min_abs_ns: 5_000_000,
        }
    }
}

/// How one compared field fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Values match (deterministic) or are within tolerance (timing).
    Ok,
    /// Timing above tolerance — a regression when timings are gated.
    TimingRegression,
    /// Deterministic field differs — always a failure.
    Diverged,
}

/// One row of the diff: a field of one paired entry.
#[derive(Clone, Debug)]
pub struct Row {
    /// Entry key, e.g. `fig4 delta_m=5 Algorithm 2 seed=39582`.
    pub key: String,
    /// Field path, e.g. `lazy.evaluations`.
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

    /// Any timing above tolerance.
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
                    Verdict::Ok => "within tolerance",
                    Verdict::TimingRegression => "⚠️ timing regression",
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

/// Header fields that must match exactly for entries to be comparable at
/// all.
const HEADER_EXACT: [&str; 3] = ["schema", "mode", "scale"];

/// Deterministic per-engine counters inside `lazy` / `exhaustive`.
const ENGINE_COUNTERS: [&str; 7] = [
    "evaluations",
    "marginal_evals",
    "delta_rescans",
    "fixups",
    "heap_pops",
    "tour_patches",
    "full_retours",
];

/// Timing fields inside `lazy` / `exhaustive`.
const ENGINE_TIMINGS: [&str; 2] = ["setup_ns", "loop_ns"];

fn render(v: Option<&Json>) -> String {
    match v {
        None => "∅".to_string(),
        Some(Json::Null) => "null".to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Num(n)) => {
            // lint:allow(float-ord): exactness probe — integral values round-trip bit-identically
            if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Some(Json::Str(s)) => s.clone(),
        Some(other) => format!("{other:?}"),
    }
}

fn entry_key(e: &Json, x_label: &str) -> String {
    let mut key = format!(
        "{} {}={} {} seed={}",
        e.get("figure").and_then(Json::as_str).unwrap_or("?"),
        x_label,
        render(e.get(x_label)),
        e.get("algorithm").and_then(Json::as_str).unwrap_or("?"),
        render(e.get("seed")),
    );
    // Robustness entries repeat each sweep point across the fault
    // ladder; the level disambiguates the key.
    if let Some(level) = e.get("fault_level") {
        let _ = write!(key, " level={}", render(Some(level)));
    }
    key
}

/// The sweep-coordinate field of an entry (`capacity_j` or `delta_m`).
fn x_label(e: &Json) -> &str {
    if e.get("delta_m").is_some() {
        "delta_m"
    } else {
        "capacity_j"
    }
}

/// Recursively hard-diffs two JSON values field by field. Used for
/// schemas whose entries are deterministic end to end (the robustness
/// baseline): every scalar divergence is its own report row, objects
/// walk the union of their keys, arrays pair elementwise.
fn diff_exact(rows: &mut Vec<Row>, key: &str, path: &str, a: Option<&Json>, b: Option<&Json>) {
    if a == b {
        return;
    }
    match (a, b) {
        (Some(Json::Obj(ao)), Some(Json::Obj(bo))) => {
            let mut fields: Vec<&String> = ao.keys().chain(bo.keys()).collect();
            fields.sort_unstable();
            fields.dedup();
            for field in fields {
                let sub = if path.is_empty() {
                    field.clone()
                } else {
                    format!("{path}.{field}")
                };
                diff_exact(rows, key, &sub, ao.get(field), bo.get(field));
            }
        }
        (Some(Json::Arr(aa)), Some(Json::Arr(ba))) if aa.len() == ba.len() => {
            for (i, (ae, be)) in aa.iter().zip(ba).enumerate() {
                diff_exact(rows, key, &format!("{path}[{i}]"), Some(ae), Some(be));
            }
        }
        _ => push_if_diff(rows, key, path, a, b),
    }
}

fn push_if_diff(rows: &mut Vec<Row>, key: &str, field: &str, a: Option<&Json>, b: Option<&Json>) {
    if a != b {
        rows.push(Row {
            key: key.to_string(),
            field: field.to_string(),
            baseline: render(a),
            current: render(b),
            verdict: Verdict::Diverged,
        });
    }
}

fn compare_timing(
    rows: &mut Vec<Row>,
    cfg: &CompareConfig,
    key: &str,
    field: &str,
    a: Option<&Json>,
    b: Option<&Json>,
) {
    let (Some(base), Some(cur)) = (a.and_then(Json::as_u64), b.and_then(Json::as_u64)) else {
        push_if_diff(rows, key, field, a, b); // malformed timings: hard diff
        return;
    };
    if cur <= base {
        return; // faster is never a regression
    }
    let abs = cur - base;
    let rel = abs as f64 / (base.max(1)) as f64;
    if abs >= cfg.min_abs_ns && rel > cfg.rel_tol {
        rows.push(Row {
            key: key.to_string(),
            field: field.to_string(),
            baseline: format!("{:.2} ms", base as f64 / 1e6),
            current: format!("{:.2} ms (+{:.0}%)", cur as f64 / 1e6, rel * 100.0),
            verdict: Verdict::TimingRegression,
        });
    }
}

/// Compares two parsed baseline documents.
///
/// Returns `Err` only when a document is too malformed to walk (missing
/// `entries` array); everything else is reported in the
/// [`CompareReport`].
pub fn compare(
    baseline: &Json,
    current: &Json,
    cfg: &CompareConfig,
) -> Result<CompareReport, String> {
    let mut report = CompareReport::default();

    for field in HEADER_EXACT {
        let (a, b) = (baseline.get(field), current.get(field));
        if a != b {
            report.structural.push(format!(
                "header `{field}` differs: baseline {} vs current {}",
                render(a),
                render(b)
            ));
        }
    }
    if baseline.get("seeds") != current.get("seeds") {
        report.structural.push(format!(
            "header `seeds` differ: baseline {} vs current {}",
            render(baseline.get("seeds")),
            render(current.get("seeds"))
        ));
    }

    let base_entries = baseline
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| "baseline has no `entries` array".to_string())?;
    let cur_entries = current
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| "current has no `entries` array".to_string())?;

    // Pair by key. Keys must be unique per file — a duplicate would
    // silently shadow its twin in the map, so it is reported as a
    // structural failure instead. The BTreeMap keeps the unpaired-entry
    // report deterministic.
    let mut cur_by_key = std::collections::BTreeMap::new();
    for e in cur_entries {
        let key = entry_key(e, x_label(e));
        if cur_by_key.insert(key.clone(), e).is_some() {
            report
                .structural
                .push(format!("duplicate entry key in current: {key}"));
        }
    }

    // Robustness artefacts carry no timings: every entry field is
    // deterministic, so they are diffed exactly, whatever their shape.
    let all_deterministic = baseline
        .get("schema")
        .and_then(Json::as_str)
        .is_some_and(|s| s.starts_with("uavdc-robustness/"));

    let mut base_seen = std::collections::BTreeSet::new();
    for base in base_entries {
        let xl = x_label(base);
        let key = entry_key(base, xl);
        if !base_seen.insert(key.clone()) {
            report
                .structural
                .push(format!("duplicate entry key in baseline: {key}"));
            continue;
        }
        let Some(cur) = cur_by_key.remove(&key) else {
            report.structural.push(format!(
                "entry removed (baseline only, missing from current): {key}"
            ));
            continue;
        };
        report.paired_entries += 1;

        if all_deterministic {
            diff_exact(&mut report.rows, &key, "", Some(base), Some(cur));
            continue;
        }

        for field in ["candidates", "iterations", "exhaustive_bound"] {
            push_if_diff(
                &mut report.rows,
                &key,
                field,
                base.get(field),
                cur.get(field),
            );
        }
        push_if_diff(
            &mut report.rows,
            &key,
            "plans_identical",
            base.get("plans_identical"),
            cur.get("plans_identical"),
        );
        push_if_diff(
            &mut report.rows,
            &key,
            "plan_hash",
            base.get("plan_hash"),
            cur.get("plan_hash"),
        );
        for engine in ["lazy", "exhaustive"] {
            let (be, ce) = (base.get(engine), cur.get(engine));
            for counter in ENGINE_COUNTERS {
                push_if_diff(
                    &mut report.rows,
                    &key,
                    &format!("{engine}.{counter}"),
                    be.and_then(|e| e.get(counter)),
                    ce.and_then(|e| e.get(counter)),
                );
            }
            for timing in ENGINE_TIMINGS {
                compare_timing(
                    &mut report.rows,
                    cfg,
                    &key,
                    &format!("{engine}.{timing}"),
                    be.and_then(|e| e.get(timing)),
                    ce.and_then(|e| e.get(timing)),
                );
            }
        }
    }
    for key in cur_by_key.keys() {
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
            r#"{{"schema": "uavdc-planner-baseline/3", "mode": "quick", "scale": 0.2,
                "seeds": [39582],
                "entries": [
                  {{"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2",
                    "seed": 39582, "candidates": 100, "iterations": 10,
                    "exhaustive_bound": 1000, "plans_identical": true,
                    "plan_hash": "{hash}",
                    "lazy": {{"evaluations": {evals}, "marginal_evals": 5,
                             "delta_rescans": 0, "fixups": 0, "heap_pops": 30,
                             "tour_patches": {patches}, "full_retours": {retours},
                             "setup_ns": 1000000, "loop_ns": {loop_ns}}},
                    "exhaustive": {{"evaluations": 1000, "marginal_evals": 0,
                             "delta_rescans": 0, "fixups": 0, "heap_pops": 0,
                             "tour_patches": {patches}, "full_retours": {retours},
                             "setup_ns": 1000000, "loop_ns": 9000000}}}}
                ]}}"#
        ))
        .expect("fixture parses")
    }

    fn doc(loop_ns: u64, evals: u64, hash: &str) -> Json {
        fixture(loop_ns, evals, 40, 0, hash)
    }

    #[test]
    fn identical_documents_are_clean() {
        let a = doc(8_000_000, 120, "aa");
        let r = compare(&a, &a, &CompareConfig::default()).expect("walkable");
        assert!(!r.has_divergence());
        assert!(!r.has_timing_regression());
        assert_eq!(r.paired_entries, 1);
        assert!(r.markdown().contains("No differences"));
    }

    #[test]
    fn eval_count_change_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(8_000_000, 121, "aa");
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.rows.iter().any(|row| row.field == "lazy.evaluations"));
    }

    #[test]
    fn plan_hash_change_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(8_000_000, 120, "bb");
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
    }

    #[test]
    fn timing_jitter_within_tolerance_passes() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(11_000_000, 120, "aa"); // +37% < 50% default rel_tol
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(!r.has_divergence());
        assert!(!r.has_timing_regression());
    }

    #[test]
    fn large_timing_jump_is_a_regression_not_divergence() {
        let a = doc(8_000_000, 120, "aa");
        let b = doc(40_000_000, 120, "aa"); // 5x, far over tolerance
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(!r.has_divergence());
        assert!(r.has_timing_regression());
        assert!(r.markdown().contains("timing regression"));
    }

    #[test]
    fn small_absolute_timing_delta_never_fails() {
        let a = doc(100, 120, "aa");
        let b = doc(1_000_000, 120, "aa"); // 10000x but < min_abs_ns
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(!r.has_timing_regression());
    }

    #[test]
    fn getting_faster_is_fine() {
        let a = doc(80_000_000, 120, "aa");
        let b = doc(8_000_000, 120, "aa");
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(!r.has_divergence());
        assert!(!r.has_timing_regression());
    }

    #[test]
    fn header_mismatch_is_structural() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        if let Json::Obj(map) = &mut b {
            map.insert("mode".to_string(), Json::Str("full".to_string()));
        }
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.structural.iter().any(|s| s.contains("mode")));
    }

    #[test]
    fn unpaired_entries_are_structural() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        if let Json::Obj(map) = &mut b {
            map.insert("entries".to_string(), Json::Arr(Vec::new()));
        }
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert_eq!(r.paired_entries, 0);
    }

    #[test]
    fn tour_counter_drift_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let b = fixture(8_000_000, 120, 41, 0, "aa");
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.rows.iter().any(|row| row.field == "lazy.tour_patches"));
        let c = fixture(8_000_000, 120, 40, 2, "aa");
        let r = compare(&a, &c, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.rows.iter().any(|row| row.field == "lazy.full_retours"));
    }

    #[test]
    fn missing_tour_counter_diverges() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        if let Json::Obj(map) = &mut b {
            if let Some(Json::Arr(entries)) = map.get_mut("entries") {
                if let Json::Obj(entry) = &mut entries[0] {
                    if let Some(Json::Obj(lazy)) = entry.get_mut("lazy") {
                        lazy.remove("tour_patches");
                    }
                }
            }
        }
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.rows.iter().any(|row| row.field == "lazy.tour_patches"));
    }

    #[test]
    fn schema_mismatch_is_structural() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        if let Json::Obj(map) = &mut b {
            map.insert(
                "schema".to_string(),
                Json::Str("uavdc-planner-baseline/2".to_string()),
            );
        }
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r.structural.iter().any(|s| s.contains("schema")));
    }

    fn robustness_doc(trace_fp: &str, drops: u64) -> Json {
        parse(&format!(
            r#"{{"schema": "uavdc-robustness/1", "mode": "quick", "scale": 0.2,
                "seeds": [39582], "levels": ["calm", "storm"],
                "entries": [
                  {{"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2",
                    "seed": 39582, "fault_level": 0, "fault_name": "calm",
                    "delivered_mb": 812.5, "planned_mb": 812.5,
                    "delivered_frac": 1, "energy_bits": "4114b5318b4c842a",
                    "trace_fp": "aaaaaaaaaaaaaaaa", "executed_fp": "cccccccccccccccc",
                    "replans": 0, "trims": 0, "drops": 0, "safe": true}},
                  {{"figure": "fig4", "delta_m": 5, "algorithm": "Algorithm 2",
                    "seed": 39582, "fault_level": 1, "fault_name": "storm",
                    "delivered_mb": 444.25, "planned_mb": 812.5,
                    "delivered_frac": 0.55, "energy_bits": "4114b5318b4c842b",
                    "trace_fp": "{trace_fp}", "executed_fp": "dddddddddddddddd",
                    "replans": 1, "trims": 2, "drops": {drops}, "safe": true}}
                ]}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn robustness_identical_documents_are_clean() {
        let a = robustness_doc("bbbbbbbbbbbbbbbb", 3);
        let r = compare(&a, &a, &CompareConfig::default()).expect("walkable");
        assert!(!r.has_divergence());
        // Both fault levels of the sweep point pair separately.
        assert_eq!(r.paired_entries, 2);
    }

    #[test]
    fn duplicate_entry_keys_are_structural_not_silent() {
        let a = doc(8_000_000, 120, "aa");
        let mut b = doc(8_000_000, 120, "aa");
        if let Json::Obj(map) = &mut b {
            if let Some(Json::Arr(entries)) = map.get_mut("entries") {
                let twin = entries[0].clone();
                entries.push(twin);
            }
        }
        // current has the same key twice: must fail, both directions.
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(r
            .structural
            .iter()
            .any(|s| s.contains("duplicate entry key in current")));
        let r = compare(&b, &a, &CompareConfig::default()).expect("walkable");
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
        if let Json::Obj(map) = &mut a {
            map.insert("entries".to_string(), Json::Arr(Vec::new()));
        }
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
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
        let r = compare(&a, &b, &CompareConfig::default()).expect("walkable");
        assert!(r.has_divergence());
        assert!(!r.has_timing_regression(), "no timings in this schema");
        assert!(r.rows.iter().any(|row| row.field == "trace_fp"));
        assert!(r.rows.iter().any(|row| row.field == "drops"));
        // The diverging rows belong to the storm-level entry only.
        assert!(r.rows.iter().all(|row| row.key.ends_with("level=1")));
    }
}
