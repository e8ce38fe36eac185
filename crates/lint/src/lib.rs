//! `uavdc-lint` — dependency-free dimension and ordering checks for the
//! uavdc workspace.
//!
//! The planners' correctness rests on numeric invariants from the paper
//! (energy feasibility, metric closure of the auxiliary orienteering
//! graph, data conservation across virtual hovering locations). Those
//! invariants are easy to violate silently by mixing Joules, metres and
//! megabytes or by ordering floats NaN-unsafely, which this tool
//! machine-checks on every `.rs` file in the workspace.
//!
//! The tool is one pass per file: a real lexer ([`lexer`]) produces the
//! single token stream all rules consume (string/comment bytes can never
//! match a rule), and an item-level parser ([`parser`]) models `fn`
//! signatures, `struct`/`enum` fields, and `#[cfg(test)]` regions so
//! rules can reason about visibility, types, and parameter names.
//!
//! Rules (JSON schema `uavdc-lint/6`):
//!
//! * [`Rule::FloatOrd`] — `partial_cmp` comparators (NaN-unsafe) and
//!   `==`/`!=` against float literals, `0.0` included (clippy's
//!   `float_cmp` exempts zero). The one approved home for float ordering
//!   is `uavdc_geom::{cmp_f64, cmp_f64_desc, TotalF64}`.
//! * [`Rule::RawQuantity`] — public signatures/fields in the planner
//!   crates that take or return bare `f64` under a dimension-vocabulary
//!   name (`energy`, `budget`, `dist`, `len`, `speed`, …) instead of the
//!   `uavdc-net::units` newtypes (`Joules`, `Meters`, `Seconds`, …).
//! * [`Rule::UnitUnwrap`] — `.value()` / `Unit(..).0` escapes from the
//!   unit layer outside the declared perf-critical modules.
//!
//! Panic sites, out-of-bounds indexing, hash-order containers, ambient
//! env and clock reads and float equality are clippy's job, not this
//! tool's: the root `clippy.toml` bans `std::env::var{,_os,s}`,
//! `Instant::now`, `SystemTime::now` and `HashMap`/`HashSet`/`RandomState`,
//! and every library crate root warns on `unwrap_used`, `expect_used`,
//! `panic`, `unreachable`, `todo`, `unimplemented` and `float_cmp`
//! outside `cfg(test)`; the planner crates add `indexing_slicing`, which
//! each bounds-audited file expects at its top. A sanctioned site carries
//! `#[expect(clippy::…, reason = "…")]`, and
//! `cargo clippy --workspace --all-targets -- -D warnings` fails on both
//! unjustified sites and stale expectations.
//!
//! Findings are reported as `path:line: rule: message`, one per line.
//! A finding is suppressed with a pragma comment on the same line or the
//! line directly above (doc comments are never pragmas):
//!
//! ```text
//! // lint:allow(unit-unwrap): boundary formatting of a report row
//! ```
//!
//! The reason after the colon is mandatory, and pragmas that suppress
//! nothing are themselves reported ([`Rule::UnusedAllow`]), so stale
//! suppressions cannot accumulate.
//!
//! Exit codes of the CLI: `0` clean, `1` findings, `2` I/O or usage
//! error.

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

pub mod lexer;
pub mod parser;

use lexer::{Comment, Lexed, Tok, TokKind};
use std::fmt;
use std::path::{Path, PathBuf};

/// The violation classes checked by this tool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// NaN-unsafe float ordering: `partial_cmp` outside the approved
    /// helper module, or `==`/`!=` against a float literal.
    FloatOrd,
    /// Bare `f64` under a dimension-vocabulary name in a public
    /// signature or field of a planner crate.
    RawQuantity,
    /// `.value()` / `Unit(..).0` escape from the unit layer outside a
    /// declared perf-critical module.
    UnitUnwrap,
    /// A `lint:allow` pragma that suppressed nothing.
    UnusedAllow,
    /// A `lint:allow` pragma without a rule name or without a reason.
    MalformedAllow,
}

impl Rule {
    /// Stable machine-readable rule name, as used inside `lint:allow(..)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatOrd => "float-ord",
            Rule::RawQuantity => "raw-quantity",
            Rule::UnitUnwrap => "unit-unwrap",
            Rule::UnusedAllow => "unused-allow",
            Rule::MalformedAllow => "malformed-allow",
        }
    }

    /// Parse a rule name as written in a pragma.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "float-ord" => Some(Rule::FloatOrd),
            "raw-quantity" => Some(Rule::RawQuantity),
            "unit-unwrap" => Some(Rule::UnitUnwrap),
            "unused-allow" => Some(Rule::UnusedAllow),
            "malformed-allow" => Some(Rule::MalformedAllow),
            _ => None,
        }
    }

    /// All rules that scan source directly (pragma meta-rules excluded).
    pub fn all_source_rules() -> [Rule; 3] {
        [Rule::FloatOrd, Rule::RawQuantity, Rule::UnitUnwrap]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a file's contents are classified, which decides rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: every rule applies.
    Library,
    /// Tests, benches, examples, binaries: only float ordering applies.
    TestLike,
}

/// Whether path-based crate scoping applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanScope {
    /// Workspace scan: the crate-scoped rules (`raw-quantity`,
    /// `unit-unwrap`) only fire inside their declared crates.
    Workspace,
    /// Explicit-path scan (CLI arguments, fixtures): every rule fires
    /// regardless of crate, so fixture files exercise all rules.
    ForceAll,
}

/// Classify a workspace-relative path.
pub fn classify(path: &Path) -> FileKind {
    let p = path.to_string_lossy().replace('\\', "/");
    let test_like = ["/tests/", "/benches/", "/examples/", "/bin/"];
    if test_like.iter().any(|m| p.contains(m))
        || p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.starts_with("examples/")
        || p.ends_with("/main.rs")
        || p.ends_with("build.rs")
    {
        FileKind::TestLike
    } else {
        FileKind::Library
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation with the offending token.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

impl Finding {
    /// Machine-readable single-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.path.to_string_lossy()),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

/// The full machine-readable report for a scan: a single JSON document
/// with a schema tag, the enabled rules, and the sorted findings.
pub fn report_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"schema\":\"uavdc-lint/6\",\"rules\":[");
    let mut first = true;
    for r in Rule::all_source_rules() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(r.name());
        out.push('"');
    }
    out.push_str("],\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.to_json());
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed `lint:allow(rule): reason` pragma.
#[derive(Debug)]
struct Allow {
    line: usize,
    rule: Option<Rule>,
    has_reason: bool,
    used: bool,
    raw: String,
}

/// Extract pragmas from the comment stream. Doc comments never count:
/// a pragma is an instruction to the tool, not documentation, so prose
/// in `///` docs that quotes the syntax is ignored.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        if c.doc || !c.text.starts_with("lint:allow") {
            continue;
        }
        let rest = &c.text["lint:allow".len()..];
        let mut rule = None;
        let mut has_reason = false;
        if let Some(open) = rest.find('(') {
            if let Some(close) = rest.find(')') {
                if close > open {
                    rule = Rule::from_name(rest[open + 1..close].trim());
                    if let Some(colon) = rest[close..].find(':') {
                        has_reason = !rest[close + colon + 1..].trim().is_empty();
                    }
                }
            }
        }
        allows.push(Allow {
            line: c.line,
            rule,
            has_reason,
            used: false,
            raw: c.text.clone(),
        });
    }
    allows
}

/// Check whether `finding_line` (1-based) is suppressed for `rule`,
/// marking the pragma used. A pragma acts on its own line and the line
/// directly below it.
fn is_allowed(allows: &mut [Allow], rule: Rule, finding_line: usize) -> bool {
    for a in allows.iter_mut() {
        if a.rule == Some(rule)
            && a.has_reason
            && (a.line == finding_line || a.line + 1 == finding_line)
        {
            a.used = true;
            return true;
        }
    }
    false
}

/// Paths (workspace-relative, `/`-separated suffixes) where `float-ord`
/// does not apply: the approved total-order helper itself.
const FLOAT_ORD_EXEMPT: [&str; 1] = ["crates/geom/src/order.rs"];

/// Crates whose *public* API boundaries must speak the `units` newtypes.
const RAW_QUANTITY_CRATES: [&str; 4] = [
    "crates/core/src/",
    "crates/graph/src/",
    "crates/orienteering/src/",
    "crates/sim/src/",
];

/// Where `unit-unwrap` patrols: the planner core, which owns the hot
/// paths that are allowed to drop to raw `f64` — but only inside the
/// declared perf-critical modules below.
const UNIT_UNWRAP_CRATES: [&str; 1] = ["crates/core/src/"];

/// Declared perf-critical modules (see DESIGN.md §9): inner loops here
/// may hold raw `f64` and call `.value()` freely; the unit types guard
/// their *boundaries* instead.
pub const PERF_CRITICAL_MODULES: [&str; 9] = [
    "crates/core/src/greedy.rs",
    "crates/core/src/alg2.rs",
    "crates/core/src/alg3.rs",
    "crates/core/src/benchmark.rs",
    "crates/core/src/tourutil.rs",
    "crates/core/src/multi.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/polish.rs",
    "crates/core/src/repair.rs",
];

/// Dimension vocabulary for `raw-quantity`: an identifier *word* (after
/// `_`/camelCase splitting) matching one of these marks the identifier
/// as dimension-named. Plural forms are listed explicitly.
const DIMENSION_WORDS: [&str; 36] = [
    "energy",
    "energies",
    "budget",
    "budgets",
    "dist",
    "dists",
    "distance",
    "distances",
    "len",
    "lens",
    "length",
    "lengths",
    "t",
    "time",
    "times",
    "duration",
    "durations",
    "sojourn",
    "speed",
    "speeds",
    "velocity",
    "rate",
    "rates",
    "bandwidth",
    "radius",
    "radii",
    "power",
    "capacity",
    "capacities",
    "vol",
    "volume",
    "volumes",
    "meters",
    "joules",
    "seconds",
    "headroom",
];

/// The unit newtypes exported by `uavdc-net::units`.
const UNIT_TYPES: [&str; 8] = [
    "Joules",
    "Seconds",
    "Meters",
    "MegaBytes",
    "Watts",
    "MetersPerSecond",
    "MegaBytesPerSecond",
    "JoulesPerMeter",
];

fn is_dimension_named(ident: &str) -> bool {
    parser::ident_words(ident)
        .iter()
        .any(|w| DIMENSION_WORDS.contains(&w.as_str()))
}

fn path_in(norm: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| norm.contains(p))
}

fn path_ends(norm: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|p| norm.ends_with(p))
}

/// Is token `j` (skipping one leading unary minus) a float literal?
fn float_lit_at(toks: &[Tok], mut j: usize) -> Option<&Tok> {
    if toks.get(j).is_some_and(|t| t.is_punct("-")) {
        j += 1;
    }
    toks.get(j).filter(|t| t.kind == TokKind::Float)
}

/// Scan one file's contents. `display_path` is used for reports and
/// for the path-scoped rules; `kind` decides which rules apply; `scope`
/// decides whether crate scoping restricts the dimension rules.
/// Findings come back sorted like [`analyze`]'s.
pub fn scan_source(
    display_path: &Path,
    source: &str,
    kind: FileKind,
    scope: ScanScope,
) -> Vec<Finding> {
    analyze(
        vec![AnalysisInput {
            path: display_path.to_path_buf(),
            source: source.to_string(),
            kind,
        }],
        scope,
    )
}

/// One file handed to [`analyze`].
pub struct AnalysisInput {
    /// Display path (workspace-relative for workspace scans).
    pub path: PathBuf,
    /// File contents.
    pub source: String,
    /// Library vs test-like classification.
    pub kind: FileKind,
}

/// One lexed and parsed file.
struct FileCtx {
    /// Display path (workspace-relative for workspace scans).
    path: PathBuf,
    /// `/`-normalised path string used by all path-scoped decisions.
    norm: String,
    /// Library vs test-like classification.
    kind: FileKind,
    /// Token stream and comments.
    lexed: Lexed,
    /// Item model.
    model: parser::Model,
}

/// Full analysis pipeline over a set of files, one file at a time: the
/// three rules, then the pragma meta-rules (so a pragma a rule consumed
/// counts as used). Findings come back sorted by (path, line, rule,
/// message).
pub fn analyze(inputs: Vec<AnalysisInput>, scope: ScanScope) -> Vec<Finding> {
    let mut findings = Vec::new();
    for inp in inputs {
        let lexed = lexer::lex(&inp.source);
        let ctx = FileCtx {
            norm: inp.path.to_string_lossy().replace('\\', "/"),
            path: inp.path,
            kind: inp.kind,
            model: parser::parse(&lexed.toks),
            lexed,
        };
        let mut allows = parse_allows(&ctx.lexed.comments);
        findings.extend(per_file_rules(&ctx, scope, &mut allows));
        findings.extend(meta_rules(&ctx, &allows));
    }
    findings.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.message.cmp(&b.message))
    });
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.rule == b.rule);
    findings
}

/// The three per-file rules: float-ord, raw-quantity, unit-unwrap.
fn per_file_rules(ctx: &FileCtx, scope: ScanScope, allows: &mut [Allow]) -> Vec<Finding> {
    let toks = &ctx.lexed.toks[..];
    let model = &ctx.model;
    let display_path = ctx.path.as_path();
    let kind = ctx.kind;
    let norm = ctx.norm.as_str();
    let mut findings: Vec<Finding> = Vec::new();

    let float_ord_exempt = path_ends(norm, &FLOAT_ORD_EXEMPT);
    let force = scope == ScanScope::ForceAll;
    let raw_quantity_in_scope = force || path_in(norm, &RAW_QUANTITY_CRATES);
    let unit_unwrap_in_scope =
        (force || path_in(norm, &UNIT_UNWRAP_CRATES)) && !path_ends(norm, &PERF_CRITICAL_MODULES);
    let library = kind == FileKind::Library;

    let mut push = |allows: &mut [Allow], line: usize, rule: Rule, message: String| {
        if !is_allowed(allows, rule, line) {
            findings.push(Finding {
                path: display_path.to_path_buf(),
                line,
                rule,
                message,
            });
        }
    };

    // --- Token-stream rules -------------------------------------------
    for (i, t) in toks.iter().enumerate() {
        // float-ord: applies to all code, test or not.
        if !float_ord_exempt {
            if t.is_ident("partial_cmp") {
                push(
                    &mut *allows,
                    t.line,
                    Rule::FloatOrd,
                    "`partial_cmp` is NaN-unsafe; use uavdc_geom::cmp_f64 / cmp_f64_desc / TotalF64"
                        .into(),
                );
            }
            if t.is_punct("==") || t.is_punct("!=") {
                let lit = (i > 0 && toks[i - 1].kind == TokKind::Float)
                    .then(|| toks[i - 1].text.clone())
                    .or_else(|| float_lit_at(toks, i + 1).map(|x| x.text.clone()));
                if let Some(lit) = lit {
                    push(
                        &mut *allows,
                        t.line,
                        Rule::FloatOrd,
                        format!(
                            "exact float comparison against `{lit}`; compare with a tolerance (uavdc_geom::approx_eq) or justify with lint:allow"
                        ),
                    );
                }
            }
        }

        // unit-unwrap: library non-test code in its declared crates.
        if unit_unwrap_in_scope && library && !model.tok_in_test[i] {
            if t.is_punct(".")
                && toks.get(i + 1).is_some_and(|x| x.is_ident("value"))
                && toks.get(i + 2).is_some_and(|x| x.is_punct("("))
                && toks.get(i + 3).is_some_and(|x| x.is_punct(")"))
            {
                push(
                    &mut *allows,
                    t.line,
                    Rule::UnitUnwrap,
                    "`.value()` escapes the unit layer; keep raw-f64 math inside a declared perf-critical module (DESIGN.md \u{a7}9) or justify with lint:allow"
                        .into(),
                );
            }
            // `Unit(expr).0`: close paren directly before `.0`, whose
            // matching open is preceded by a unit type name.
            if t.is_punct(".")
                && toks
                    .get(i + 1)
                    .is_some_and(|x| x.kind == TokKind::Int && x.text == "0")
                && i > 0
                && toks[i - 1].is_punct(")")
            {
                let mut depth = 0i64;
                let mut k = i - 1;
                loop {
                    match toks[k].text.as_str() {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                if k > 0
                    && toks[k - 1].kind == TokKind::Ident
                    && UNIT_TYPES.contains(&toks[k - 1].text.as_str())
                {
                    push(
                        &mut *allows,
                        t.line,
                        Rule::UnitUnwrap,
                        format!(
                            "`{}(..).0` escapes the unit layer; keep raw-f64 math inside a declared perf-critical module (DESIGN.md \u{a7}9) or justify with lint:allow",
                            toks[k - 1].text
                        ),
                    );
                }
            }
        }
    }

    // --- Item-model rules ---------------------------------------------
    if raw_quantity_in_scope {
        for f in &model.fns {
            if !f.is_pub || f.in_test || !library {
                continue;
            }
            for p in &f.params {
                if parser::type_has_f64(&p.ty) && p.names.iter().any(|n| is_dimension_named(n)) {
                    let name = p
                        .names
                        .iter()
                        .find(|n| is_dimension_named(n))
                        .cloned()
                        .unwrap_or_default();
                    push(
                        &mut *allows,
                        p.line,
                        Rule::RawQuantity,
                        format!(
                            "public fn `{}` takes dimension-named `{name}` as bare f64; use the uavdc-net units newtypes (Joules, Meters, Seconds, \u{2026}) at API boundaries",
                            f.name
                        ),
                    );
                }
            }
            if let Some(ret) = &f.ret {
                if parser::type_has_f64(ret) && is_dimension_named(&f.name) {
                    push(
                        &mut *allows,
                        f.line,
                        Rule::RawQuantity,
                        format!(
                            "public fn `{}` returns a dimension-named quantity as bare f64; use the uavdc-net units newtypes at API boundaries",
                            f.name
                        ),
                    );
                }
            }
        }
        for fld in &model.fields {
            if fld.is_pub
                && !fld.in_test
                && library
                && parser::type_has_f64(&fld.ty)
                && is_dimension_named(&fld.name)
            {
                push(
                    &mut *allows,
                    fld.line,
                    Rule::RawQuantity,
                    format!(
                        "public field `{}.{}` holds a dimension-named quantity as bare f64; use the uavdc-net units newtypes",
                        fld.owner, fld.name
                    ),
                );
            }
        }
    }

    findings
}

/// Meta-rules over the pragma stream: malformed pragmas, and pragmas
/// that suppressed nothing. Runs after the rules so that consumed
/// pragmas count as used.
fn meta_rules(ctx: &FileCtx, allows: &[Allow]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for a in allows {
        if a.rule.is_none() || !a.has_reason {
            findings.push(Finding {
                path: ctx.path.clone(),
                line: a.line,
                rule: Rule::MalformedAllow,
                message: format!(
                    "pragma `{}` must be `lint:allow(<rule>): <reason>` with a known rule and a non-empty reason",
                    a.raw
                ),
            });
        } else if !a.used {
            findings.push(Finding {
                path: ctx.path.clone(),
                line: a.line,
                rule: Rule::UnusedAllow,
                message: format!("pragma `{}` suppresses nothing; remove it", a.raw),
            });
        }
    }
    findings
}

/// Recursively collect workspace `.rs` files under `root`, skipping
/// build output, VCS metadata, and nested packages that declare their
/// own `[workspace]` (such as `perfbench/`), which are not members of
/// this one.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target"
                    || name == ".git"
                    || name == "results"
                    || name == "results_quick"
                    || is_nested_workspace(&path)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Does `dir` hold a `Cargo.toml` with its own `[workspace]` table?
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"))
}

/// Read every `.rs` file under `root` into [`AnalysisInput`]s with
/// workspace-relative display paths and path-based classification.
pub fn workspace_inputs(root: &Path) -> std::io::Result<Vec<AnalysisInput>> {
    let mut inputs = Vec::new();
    for file in collect_rs_files(root)? {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let source = std::fs::read_to_string(&file)?;
        let kind = classify(&rel);
        inputs.push(AnalysisInput {
            path: rel,
            source,
            kind,
        });
    }
    Ok(inputs)
}

/// Scan every `.rs` file under `root` (classification by path) through
/// [`analyze`] and return all findings, sorted by path, line, rule,
/// message.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(analyze(workspace_inputs(root)?, ScanScope::Workspace))
}

/// Gather the analysis inputs for a CLI invocation: the workspace when
/// no paths are given, otherwise exactly the named files/directories
/// with `Library` strictness (display paths as written).
fn cli_inputs(paths: &[PathBuf]) -> Result<(Vec<AnalysisInput>, ScanScope, PathBuf), String> {
    if paths.is_empty() {
        let root = workspace_root();
        let inputs =
            workspace_inputs(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
        return Ok((inputs, ScanScope::Workspace, root));
    }
    let mut inputs = Vec::new();
    for p in paths {
        let targets = if p.is_dir() {
            collect_rs_files(p).map_err(|e| format!("reading {}: {e}", p.display()))?
        } else {
            vec![p.clone()]
        };
        for t in targets {
            let source =
                std::fs::read_to_string(&t).map_err(|e| format!("reading {}: {e}", t.display()))?;
            inputs.push(AnalysisInput {
                path: t,
                source,
                kind: FileKind::Library,
            });
        }
    }
    Ok((inputs, ScanScope::ForceAll, PathBuf::from(".")))
}

/// Deletes the `// lint:allow(..)` comment reported by an
/// `unused-allow` finding from its line: the whole line when the pragma
/// stands alone, otherwise just the trailing comment. Returns the
/// removed pragma text, or `None` when the line does not contain a line
/// comment (block-comment pragmas are left for manual cleanup).
fn strip_pragma_line(line: &str) -> Option<(String, Option<String>)> {
    let at = line.find("//")?;
    if !line[at..].contains("lint:allow") {
        return None;
    }
    let removed = line[at..].trim().to_string();
    if line[..at].trim().is_empty() {
        Some((removed, None))
    } else {
        Some((removed, Some(line[..at].trim_end().to_string())))
    }
}

/// `--fix-unused` driver: removes every `unused-allow` pragma found by
/// the given scan. Dry-run prints what it would do; `write` applies the
/// edits. Returns the number of pragmas removed (or removable).
fn fix_unused(findings: &[Finding], root: &Path, write: bool) -> std::io::Result<usize> {
    use std::collections::BTreeMap;
    let mut by_file: BTreeMap<&Path, Vec<usize>> = BTreeMap::new();
    for f in findings {
        if f.rule == Rule::UnusedAllow {
            by_file.entry(f.path.as_path()).or_default().push(f.line);
        }
    }
    let mut removed = 0usize;
    for (rel, mut lines) in by_file {
        let on_disk = if rel.is_absolute() || rel.exists() {
            rel.to_path_buf()
        } else {
            root.join(rel)
        };
        let content = std::fs::read_to_string(&on_disk)?;
        let mut out: Vec<Option<String>> = content.lines().map(|l| Some(l.to_string())).collect();
        lines.sort_unstable();
        lines.dedup();
        for &ln in &lines {
            let Some(slot) = out.get_mut(ln - 1) else {
                continue;
            };
            let Some(text) = slot.clone() else { continue };
            match strip_pragma_line(&text) {
                Some((pragma, rest)) => {
                    removed += 1;
                    let action = if write { "removed" } else { "would remove" };
                    println!("{}:{}: {action} `{pragma}`", rel.display(), ln);
                    *slot = rest;
                }
                None => {
                    eprintln!(
                        "{}:{}: pragma not on a `//` comment; skipping",
                        rel.display(),
                        ln
                    );
                }
            }
        }
        if write {
            let mut new_content: String = out.into_iter().flatten().collect::<Vec<_>>().join("\n");
            if content.ends_with('\n') {
                new_content.push('\n');
            }
            std::fs::write(&on_disk, new_content)?;
        }
    }
    Ok(removed)
}

/// CLI entry point. Returns the process exit code.
///
/// Usage: `uavdc-lint [--json]
/// [--fix-unused [--write|--check]] [--list-rules] [paths…]`. With no
/// paths, scans the workspace this crate is part of. Explicit paths are
/// scanned with `Library` strictness and `ForceAll` scope regardless of
/// location, so fixture files under `tests/` still produce findings for
/// every rule.
pub fn run_cli() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut fix = false;
    let mut write = false;
    let mut check = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--json" => json = true,
            "--fix-unused" => fix = true,
            "--write" => write = true,
            "--check" => check = true,
            "--list-rules" => {
                for r in Rule::all_source_rules() {
                    println!("{r}");
                }
                println!("{}", Rule::UnusedAllow);
                println!("{}", Rule::MalformedAllow);
                return 0;
            }
            "--help" | "-h" => {
                println!(
                    "usage: uavdc-lint [--json] [--fix-unused [--write|--check]] [--list-rules] [paths...]"
                );
                println!("  --json        machine-readable report (schema uavdc-lint/6)");
                println!("  --fix-unused  delete unused-allow pragmas (dry-run; --write applies,");
                println!("                --check exits 1 when stale pragmas exist, for CI)");
                println!("exit codes: 0 clean, 1 findings, 2 error");
                return 0;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                return 2;
            }
            p => paths.push(PathBuf::from(p)),
        }
    }
    if (write || check) && !fix {
        eprintln!("--write/--check only make sense with --fix-unused");
        return 2;
    }
    if write && check {
        eprintln!("--write and --check are mutually exclusive");
        return 2;
    }

    let (inputs, scope, root) = match cli_inputs(&paths) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("uavdc-lint: {e}");
            return 2;
        }
    };

    let findings = analyze(inputs, scope);

    if fix {
        return match fix_unused(&findings, &root, write) {
            Ok(0) => {
                eprintln!("uavdc-lint: no unused pragmas");
                0
            }
            Ok(n) if write => {
                eprintln!("uavdc-lint: removed {n} unused pragma(s)");
                0
            }
            Ok(n) if check => {
                eprintln!(
                    "uavdc-lint: {n} stale pragma(s) suppress nothing; run `cargo run -p uavdc-lint -- --fix-unused --write` locally and commit the result"
                );
                1
            }
            Ok(n) => {
                eprintln!("uavdc-lint: {n} unused pragma(s); re-run with --write to remove");
                0
            }
            Err(e) => {
                eprintln!("uavdc-lint: fixing: {e}");
                2
            }
        };
    }

    if json {
        println!("{}", report_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
    }
    if findings.is_empty() {
        eprintln!("uavdc-lint: clean");
        0
    } else {
        eprintln!("uavdc-lint: {} finding(s)", findings.len());
        1
    }
}

/// The workspace root, resolved from this crate's manifest directory at
/// compile time (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_path_exists() {
        let root = workspace_root();
        let lists: [(&str, &[&str]); 4] = [
            ("FLOAT_ORD_EXEMPT", &FLOAT_ORD_EXEMPT),
            ("RAW_QUANTITY_CRATES", &RAW_QUANTITY_CRATES),
            ("UNIT_UNWRAP_CRATES", &UNIT_UNWRAP_CRATES),
            ("PERF_CRITICAL_MODULES", &PERF_CRITICAL_MODULES),
        ];
        for (name, paths) in lists {
            for path in paths {
                assert!(root.join(path).exists(), "{name} lists missing {path}");
            }
        }
    }

    fn scan_lib(src: &str) -> Vec<Finding> {
        scan_source(
            Path::new("crates/demo/src/lib.rs"),
            src,
            FileKind::Library,
            ScanScope::ForceAll,
        )
    }

    fn scan_scoped(path: &str, src: &str) -> Vec<Finding> {
        scan_source(
            Path::new(path),
            src,
            classify(Path::new(path)),
            ScanScope::Workspace,
        )
    }

    #[test]
    fn flags_float_ord_hazards() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    if v[0] == 0.5 {}\n}\n";
        let f = scan_lib(src);
        assert!(f.iter().any(|x| x.rule == Rule::FloatOrd && x.line == 2));
        assert!(f.iter().any(|x| x.rule == Rule::FloatOrd && x.line == 3));
    }

    #[test]
    fn float_eq_literal_detection_via_tokens() {
        // Literals (including exponent-only forms) are flagged; ints,
        // tuple-field access, and ordered comparisons are not.
        assert!(scan_lib("fn f(x: f64) -> bool { x == 0.0 }\n")
            .iter()
            .any(|x| x.rule == Rule::FloatOrd));
        assert!(scan_lib("fn f(y: f64) -> bool { 0.5f64 != y }\n")
            .iter()
            .any(|x| x.rule == Rule::FloatOrd));
        assert!(scan_lib("fn f(x: f64) -> bool { x == 1e-9 }\n")
            .iter()
            .any(|x| x.rule == Rule::FloatOrd));
        assert!(scan_lib("fn f(n: u32) -> bool { n == 3 }\n")
            .iter()
            .all(|x| x.rule != Rule::FloatOrd));
        assert!(
            scan_lib("fn f(a: (u8, (u8, u8))) -> bool { a.1.0 == a.1.1 }\n")
                .iter()
                .all(|x| x.rule != Rule::FloatOrd)
        );
        assert!(scan_lib("fn f(x: f64) -> bool { x <= 0.5 }\n")
            .iter()
            .all(|x| x.rule != Rule::FloatOrd));
    }

    #[test]
    fn library_rules_skip_tests_benches_and_cfg_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(e: Joules) -> f64 { e.value() }\n}\n";
        assert!(
            scan_lib(src).iter().all(|x| x.rule != Rule::UnitUnwrap),
            "cfg(test) module must be exempt"
        );
        let f = scan_source(
            Path::new("crates/core/tests/t.rs"),
            "fn g(e: Joules) -> f64 { e.value() }\n",
            classify(Path::new("crates/core/tests/t.rs")),
            ScanScope::Workspace,
        );
        assert!(f.is_empty(), "integration tests are exempt: {f:?}");
    }

    #[test]
    fn allow_pragma_suppresses_and_requires_reason() {
        let ok = "fn f(e: Joules) -> f64 {\n    // lint:allow(unit-unwrap): boundary formatting only\n    e.value()\n}\n";
        assert!(scan_lib(ok).is_empty(), "{:?}", scan_lib(ok));

        let no_reason =
            "fn f(e: Joules) -> f64 {\n    // lint:allow(unit-unwrap)\n    e.value()\n}\n";
        let f = scan_lib(no_reason);
        assert!(f.iter().any(|x| x.rule == Rule::MalformedAllow));
        assert!(
            f.iter().any(|x| x.rule == Rule::UnitUnwrap),
            "malformed pragma must not suppress"
        );

        let unused = "// lint:allow(unit-unwrap): nothing here\nfn f() {}\n";
        let f = scan_lib(unused);
        assert!(f.iter().any(|x| x.rule == Rule::UnusedAllow));
    }

    #[test]
    fn pragmas_for_rules_moved_to_clippy_are_malformed() {
        // panic-site, nondeterminism, env-read and float-eq are clippy
        // lints now; a leftover pragma naming one is an unknown rule and
        // must be reported rather than silently accepted.
        for rule in ["panic-site", "nondeterminism", "env-read", "float-eq"] {
            let src = format!(
                "fn f(x: Option<u8>) -> u8 {{\n    // lint:allow({rule}): checked non-empty above\n    x.unwrap()\n}}\n"
            );
            let f = scan_lib(&src);
            assert_eq!(f.len(), 1, "{rule}: {f:?}");
            assert_eq!((f[0].rule, f[0].line), (Rule::MalformedAllow, 2), "{rule}");
        }
    }

    #[test]
    fn doc_comments_are_never_pragmas() {
        // Doc prose quoting the pragma syntax must not register as an
        // (unused) pragma.
        let src = "/// Suppress with `lint:allow(float-ord): reason`.\nfn f() {}\n";
        assert!(scan_lib(src).is_empty(), "{:?}", scan_lib(src));
    }

    #[test]
    fn comments_and_strings_never_match() {
        let src = "// a.partial_cmp(b).unwrap() in a comment\nfn f() -> &'static str { \"partial_cmp .unwrap() HashMap\" }\n/* block .expect( */\n";
        assert!(scan_lib(src).is_empty(), "{:?}", scan_lib(src));
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_confuse_the_lexer() {
        let src = "fn f<'a>(s: &'a str) -> char {\n    let c = '\"';\n    let _x: &'static str = s;\n    c\n}\nfn g(v: f64) -> bool { v == 0.5 }\n";
        let f = scan_lib(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::FloatOrd);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn raw_quantity_flags_dimension_named_f64_apis() {
        let src = "pub fn tour_energy(order: &[usize]) -> f64 { 0.0 }\npub fn plan(budget: f64) {}\npub struct S { pub dist: f64, pub count: usize, dist_private: f64 }\n";
        let f = scan_lib(src);
        assert!(f.iter().any(|x| x.rule == Rule::RawQuantity && x.line == 1));
        assert!(f.iter().any(|x| x.rule == Rule::RawQuantity && x.line == 2));
        assert!(f.iter().any(|x| x.rule == Rule::RawQuantity && x.line == 3));
        // `count: usize` and the private field are fine.
        assert_eq!(f.iter().filter(|x| x.rule == Rule::RawQuantity).count(), 3);
    }

    #[test]
    fn raw_quantity_ignores_unit_typed_and_restricted_apis() {
        let src = "pub fn tour_energy(order: &[usize]) -> Joules { Joules::ZERO }\npub(crate) fn helper(budget: f64) {}\nfn private(dist: f64) {}\n";
        let f = scan_lib(src);
        assert!(f.iter().all(|x| x.rule != Rule::RawQuantity), "{f:?}");
    }

    #[test]
    fn raw_quantity_respects_crate_scope_in_workspace_mode() {
        let src = "pub fn travel_time(dist: f64) -> f64 { dist }\n";
        // net is not a dimension-checked crate…
        assert!(scan_scoped("crates/net/src/x.rs", src)
            .iter()
            .all(|x| x.rule != Rule::RawQuantity));
        // …core is.
        assert!(scan_scoped("crates/core/src/x.rs", src)
            .iter()
            .any(|x| x.rule == Rule::RawQuantity));
    }

    #[test]
    fn unit_unwrap_flags_value_calls_outside_perf_modules() {
        let src = "fn f(e: Joules) -> f64 { e.value() }\n";
        assert!(scan_lib(src).iter().any(|x| x.rule == Rule::UnitUnwrap));
        // Inside a declared perf-critical module nothing fires.
        assert!(scan_scoped("crates/core/src/greedy.rs", src)
            .iter()
            .all(|x| x.rule != Rule::UnitUnwrap));
        // With a justified pragma nothing fires either.
        let allowed = "fn f(e: Joules) -> f64 {\n    // lint:allow(unit-unwrap): boundary formatting only\n    e.value()\n}\n";
        assert!(scan_lib(allowed).is_empty(), "{:?}", scan_lib(allowed));
    }

    #[test]
    fn unit_unwrap_flags_tuple_field_escape() {
        let src = "fn f(x: f64) -> f64 { Joules(x).0 }\n";
        assert!(scan_lib(src).iter().any(|x| x.rule == Rule::UnitUnwrap));
        // Ordinary tuple access is not an escape.
        let ok = "fn g(p: (f64, f64)) -> f64 { p.0 }\n";
        assert!(scan_lib(ok).iter().all(|x| x.rule != Rule::UnitUnwrap));
    }

    #[test]
    fn report_json_has_stable_schema() {
        let f = vec![Finding {
            path: PathBuf::from("a.rs"),
            line: 3,
            rule: Rule::FloatOrd,
            message: "m".into(),
        }];
        let j = report_json(&f);
        assert!(j.starts_with("{\"schema\":\"uavdc-lint/6\""));
        assert!(j.contains("\"rules\":[\"float-ord\",\"raw-quantity\",\"unit-unwrap\"]"));
        assert!(j.ends_with("\"count\":1}"));
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify(Path::new("crates/core/src/alg1.rs")),
            FileKind::Library
        );
        assert_eq!(
            classify(Path::new("crates/core/tests/x.rs")),
            FileKind::TestLike
        );
        assert_eq!(
            classify(Path::new("crates/bench/benches/fig3.rs")),
            FileKind::TestLike
        );
        assert_eq!(
            classify(Path::new("examples/smart_city.rs")),
            FileKind::TestLike
        );
        assert_eq!(classify(Path::new("src/bin/uavdc.rs")), FileKind::TestLike);
        assert_eq!(classify(Path::new("src/lib.rs")), FileKind::Library);
        assert_eq!(
            classify(Path::new("tests/energy_feasibility.rs")),
            FileKind::TestLike
        );
    }
}
