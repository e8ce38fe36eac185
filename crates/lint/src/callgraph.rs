//! Workspace call graph plus per-function hazard sites.
//!
//! Built on [`crate::resolve`]: one node per parsed `fn`, one edge per
//! resolved call site (deduplicated, deterministic order). Alongside the
//! edges, each node records the *local* hazard sites the interprocedural
//! rules propagate:
//!
//! * indexing sites,
//! * unit escapes (`.value()` / `Unit(..).0`) for raw-`f64` flow.
//!
//! Panic-family calls, wall-clock reads, hash-order containers and env
//! reads are not collected: clippy requires a local justification at
//! every such site (`unwrap_used`, `panic`, `disallowed_types`,
//! `disallowed_methods`; see the root `clippy.toml`), so none of them can
//! be an unjustified source to propagate. The `rand` shim has no
//! entropy-seeded constructor, so unseeded RNG cannot occur either.
//!
//! A site that carries a justified pragma is collected with
//! `justified = true`: it still exists in the graph (the `--graph` dump
//! shows it) but never propagates. Test-like files and `#[cfg(test)]`
//! regions contribute edges but no hazard sites — planners cannot call
//! into them.

use crate::lexer::TokKind;
use crate::resolve::{extract_calls, CallSite, FileCtx, FnId, Workspace};
use crate::{FileKind, Rule};
use std::fmt::Write as _;

/// One local hazard site inside a function body.
#[derive(Clone, Debug)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// Offending construct, for the message (`` `unwrap()` ``).
    pub what: String,
    /// Suppressed by a pragma (or an audit list): never propagates.
    pub justified: bool,
}

/// One call-graph node: a parsed `fn` plus its local hazards.
pub struct Node {
    /// Owning (file, fn) id.
    pub id: FnId,
    /// Resolved callees, deduplicated, deterministic order.
    pub callees: Vec<FnId>,
    /// Call sites that resolved to nothing (opaque), for the dump.
    pub opaque_calls: usize,
    /// Raw call sites (kept for wrap detection in unit-flow).
    pub calls: Vec<(CallSite, Vec<FnId>)>,
    /// Indexing sites (`expr[..]`).
    pub index_sites: Vec<Site>,
    /// Spawn sites (`scope.spawn` / `thread::spawn`) with closure body
    /// ranges (lint v4 concurrency layer).
    pub spawn_sites: Vec<crate::concurrency::SpawnSite>,
    /// Direct `.lock()` acquisitions with guard-liveness ranges.
    pub lock_sites: Vec<crate::concurrency::LockSite>,
    /// Body contains a `.value()` / `Unit(..).0` unit escape.
    pub unit_escape: Option<usize>,
    /// Return type mentions `f64`.
    pub returns_f64: bool,
    /// Public, non-test, library-classified fn (entry-point candidate).
    pub is_public_api: bool,
}

/// The assembled graph.
pub struct CallGraph {
    /// Node per fn, indexed in (file, fn) iteration order.
    pub nodes: Vec<Node>,
    /// `(file, fn)` → node index.
    index: std::collections::BTreeMap<FnId, usize>,
    /// Reverse edges: for each node, the nodes that call it.
    pub callers: Vec<Vec<usize>>,
}

/// Decides whether a file's hazard sites are collected at all: fns in
/// sanctioned observability code are panic *sinks* — the recorder
/// invisibility property (DESIGN.md §10, property-proven) guarantees
/// they cannot influence planner output, so hazards must not flow out of
/// them into every caller that takes a recorder.
pub fn obs_sanctioned(norm: &str) -> bool {
    norm.contains("crates/obs/src/") || norm.contains("crates/compat/")
}

impl CallGraph {
    /// Node index for a fn id, if the fn was parsed.
    pub fn node_of(&self, id: FnId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Builds the graph and collects hazard sites.
    ///
    /// `allowed(file, rule, line)` reports whether a pragma suppresses
    /// `rule` at `line` and marks it used (so site justifications count
    /// against the unused-allow meta-rule). `index_audited(norm)`
    /// implements the bounds-audited baseline for indexing sites.
    pub fn build(
        ws: &Workspace,
        mut allowed: impl FnMut(usize, Rule, usize) -> bool,
        index_audited: impl Fn(&str) -> bool,
    ) -> CallGraph {
        let mut nodes = Vec::new();
        let mut index = std::collections::BTreeMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (ni, fun) in file.model.fns.iter().enumerate() {
                let id = (fi, ni);
                let mut node = Node {
                    id,
                    callees: Vec::new(),
                    opaque_calls: 0,
                    calls: Vec::new(),
                    index_sites: Vec::new(),
                    spawn_sites: Vec::new(),
                    lock_sites: Vec::new(),
                    unit_escape: None,
                    returns_f64: fun.ret.as_deref().is_some_and(crate::parser::type_has_f64),
                    is_public_api: fun.is_pub && !fun.in_test && file.kind == FileKind::Library,
                };
                if let Some((lo, hi)) = fun.body {
                    for call in extract_calls(&file.lexed.toks, lo, hi) {
                        let targets = ws.resolve(fi, &call);
                        if targets.is_empty() {
                            node.opaque_calls += 1;
                        }
                        for t in &targets {
                            if !node.callees.contains(t) {
                                node.callees.push(*t);
                            }
                        }
                        node.calls.push((call, targets));
                    }
                    node.callees.sort_unstable();
                    let hazard_scope = file.kind == FileKind::Library
                        && !fun.in_test
                        && !obs_sanctioned(&file.norm);
                    if hazard_scope {
                        collect_hazards(
                            file,
                            lo,
                            hi,
                            &mut node,
                            |rule, line| allowed(fi, rule, line),
                            &index_audited,
                        );
                    }
                    // Spawn and lock sites are collected even in
                    // sanctioned obs/compat code — the recorder's Mutex
                    // is exactly what the lock rule patrols.
                    if file.kind == FileKind::Library && !fun.in_test {
                        crate::concurrency::collect_sites(file, lo, hi, &mut node, |rule, line| {
                            allowed(fi, rule, line)
                        });
                    }
                }
                index.insert(id, nodes.len());
                nodes.push(node);
            }
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            for c in &n.callees {
                if let Some(&j) = index.get(c) {
                    if !callers[j].contains(&i) {
                        callers[j].push(i);
                    }
                }
            }
        }
        for c in &mut callers {
            c.sort_unstable();
        }
        CallGraph {
            nodes,
            index,
            callers,
        }
    }

    /// Deterministic plain-text dump of the graph for `--graph`: one line
    /// per fn with its coordinate, callees, opaque-call count, and local
    /// hazard summary. Debugging aid and CI failure artifact.
    pub fn dump(&self, ws: &Workspace) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            let (fi, ni) = node.id;
            let file = &ws.files[fi];
            let fun = &file.model.fns[ni];
            let mut coord = file.crate_ident.clone();
            for m in &file.mods {
                coord.push_str("::");
                coord.push_str(m);
            }
            let _ = write!(
                out,
                "{}::{} [{}:{}]",
                coord,
                fun.name,
                file.path.display(),
                fun.line
            );
            let callees: Vec<String> = node
                .callees
                .iter()
                .map(|&(cfi, cni)| {
                    let cf = &ws.files[cfi];
                    format!("{}::{}", cf.crate_ident, cf.model.fns[cni].name)
                })
                .collect();
            let _ = write!(out, " -> [{}]", callees.join(", "));
            if node.opaque_calls > 0 {
                let _ = write!(out, " opaque={}", node.opaque_calls);
            }
            let live = |sites: &[Site]| sites.iter().filter(|s| !s.justified).count();
            let justified = |sites: &[Site]| sites.iter().filter(|s| s.justified).count();
            let _ = write!(
                out,
                " indexing={}+{}{}",
                live(&node.index_sites),
                justified(&node.index_sites),
                if node.unit_escape.is_some() {
                    " unit-escape"
                } else {
                    ""
                },
            );
            if !node.lock_sites.is_empty() {
                let _ = write!(
                    out,
                    " locks={}+{}",
                    node.lock_sites.iter().filter(|s| !s.justified).count(),
                    node.lock_sites.iter().filter(|s| s.justified).count(),
                );
            }
            if !node.spawn_sites.is_empty() {
                let lines: Vec<String> = node
                    .spawn_sites
                    .iter()
                    .map(|s| format!("l{}", s.line))
                    .collect();
                let _ = write!(out, " spawns=[{}]", lines.join(", "));
                // Spawn-edge annotation: resolved callees whose call
                // site sits inside a spawned closure body, so witness
                // paths through spawned closures are reproducible from
                // the artifact alone.
                let mut spawn_edges: Vec<String> = Vec::new();
                for (call, targets) in &node.calls {
                    let Some(site) = node.spawn_sites.iter().find(|s| s.covers(call.name_tok))
                    else {
                        continue;
                    };
                    for &(cfi, cni) in targets {
                        let cf = &ws.files[cfi];
                        let label = format!(
                            "{}::{}@l{}",
                            cf.crate_ident, cf.model.fns[cni].name, site.line
                        );
                        if !spawn_edges.contains(&label) {
                            spawn_edges.push(label);
                        }
                    }
                }
                if !spawn_edges.is_empty() {
                    let _ = write!(out, " spawn-> [{}]", spawn_edges.join(", "));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Scans a body token range for hazard sites. `allowed(rule, line)`
/// checks (and consumes) a pragma.
fn collect_hazards(
    file: &FileCtx,
    lo: usize,
    hi: usize,
    node: &mut Node,
    mut allowed: impl FnMut(Rule, usize) -> bool,
    index_audited: &impl Fn(&str) -> bool,
) {
    let toks = &file.lexed.toks;
    let hi = hi.min(toks.len());
    let audited = index_audited(&file.norm);
    for i in lo..hi {
        if file.model.tok_in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        // Indexing: `ident[` / `)[` / `][`.
        if t.is_punct("[")
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(")")
                || toks[i - 1].is_punct("]"))
        {
            let justified = audited || allowed(Rule::PanicReach, t.line);
            node.index_sites.push(Site {
                line: t.line,
                what: "indexing".into(),
                justified,
            });
        }
        // Unit escapes: `.value()` and `Unit(..).0`.
        if node.unit_escape.is_none() {
            if t.is_punct(".")
                && toks.get(i + 1).is_some_and(|x| x.is_ident("value"))
                && toks.get(i + 2).is_some_and(|x| x.is_punct("("))
                && toks.get(i + 3).is_some_and(|x| x.is_punct(")"))
            {
                node.unit_escape = Some(t.line);
            }
            if t.kind == TokKind::Ident
                && crate::UNIT_TYPES.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|x| x.is_punct("("))
            {
                // `Joules(x).0` — confirm the tuple access follows the
                // matching close paren.
                let mut depth = 0i64;
                let mut j = i + 1;
                while j < hi {
                    match toks[j].text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if toks.get(j + 1).is_some_and(|x| x.is_punct("."))
                    && toks
                        .get(j + 2)
                        .is_some_and(|x| x.kind == TokKind::Int && x.text == "0")
                {
                    node.unit_escape = Some(t.line);
                }
            }
        }
    }
}
