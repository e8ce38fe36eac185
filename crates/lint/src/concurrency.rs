//! Concurrency and shared-state analysis (lint v4).
//!
//! The planners are serial; threads run only between requests (the
//! experiments' per-instance fan-out) and share two Mutex-backed
//! structures across them: the collecting recorder and the artifact
//! cache. This module adds two hazard inventories to the call graph
//! (spawn sites with the spawned closure's body range, lock/guard
//! acquisitions with a token-range liveness approximation) and one
//! interprocedural rule on top of the v3 dataflow layer:
//!
//! * **lock-across-spawn** — no `MutexGuard` live across a spawn site,
//!   no call into another locking function while a guard on the same
//!   lock is held (re-entrant deadlock), and no pair of locks acquired
//!   in opposite orders anywhere in the workspace (lock-order cycle over
//!   a per-lock-identity graph).
//!
//! Soundness boundaries (see DESIGN.md §14): guard liveness is the
//! enclosing block for `let`-bound guards (truncated at `drop(guard)`)
//! and the enclosing statement for temporaries; lock identity is the
//! receiver's trailing field name qualified by the defining crate.

use crate::callgraph::{CallGraph, Node};
use crate::dataflow::{self, ReachInfo};
use crate::lexer::{Tok, TokKind};
use crate::resolve::{FileCtx, Workspace};
use crate::{FileKind, Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// One `spawn(..)` call site inside a function body.
#[derive(Clone, Debug)]
pub struct SpawnSite {
    /// 1-based line of the `spawn` token.
    pub line: usize,
    /// Token index of the `spawn` identifier.
    pub tok: usize,
    /// Token range `[lo, hi)` of the spawned closure's body; empty when
    /// the spawn argument is not a closure literal.
    pub body: (usize, usize),
}

impl SpawnSite {
    /// Is token index `t` inside the spawned closure's body?
    pub fn covers(&self, t: usize) -> bool {
        self.body.0 < self.body.1 && t >= self.body.0 && t < self.body.1
    }
}

/// One direct `.lock()` acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct LockSite {
    /// 1-based line of the `lock` token.
    pub line: usize,
    /// Token index of the `lock` identifier.
    pub tok: usize,
    /// Receiver's trailing identifier, naming the lock (`inner` in
    /// `self.inner.lock()`).
    pub what: String,
    /// Guard liveness as a token range `[lo, hi)`.
    pub live: (usize, usize),
    /// Suppressed by a `lint:allow(lock-across-spawn)` pragma at the
    /// acquisition: never propagates.
    pub justified: bool,
}

// ---------------------------------------------------------------------------
// Hazard collection (called from CallGraph::build)
// ---------------------------------------------------------------------------

/// Scans a body token range for spawn and lock sites. Unlike the v3
/// hazard collector this is *not* gated by `obs_sanctioned` — the
/// recorder's Mutex is exactly what the lock rule must see.
/// `allowed(rule, line)` checks (and consumes) a pragma.
pub(crate) fn collect_sites(
    file: &FileCtx,
    lo: usize,
    hi: usize,
    node: &mut Node,
    mut allowed: impl FnMut(Rule, usize) -> bool,
) {
    let toks = &file.lexed.toks;
    let hi = hi.min(toks.len());
    for i in lo..hi {
        if file.model.tok_in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        // Spawn site: `scope.spawn(..)`, `thread::spawn(..)`, `spawn(..)`.
        if t.is_ident("spawn") && toks.get(i + 1).is_some_and(|x| x.is_punct("(")) {
            node.spawn_sites.push(SpawnSite {
                line: t.line,
                tok: i,
                body: closure_body(toks, i + 1, hi),
            });
        }
        // Direct lock acquisition: `recv.lock(..)`.
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|x| x.is_ident("lock"))
            && toks.get(i + 2).is_some_and(|x| x.is_punct("("))
        {
            let line = toks[i + 1].line;
            node.lock_sites.push(LockSite {
                line,
                tok: i + 1,
                what: receiver_tail(toks, i),
                live: guard_live_range(toks, hi, i + 1),
                justified: allowed(Rule::LockAcrossSpawn, line),
            });
        }
    }
}

/// Token range `[lo, hi)` of the closure body in a `spawn(move |..| ..)`
/// argument, where `open` is the spawn call's opening paren. Empty when
/// the argument is not a closure literal.
fn closure_body(toks: &[Tok], open: usize, hi: usize) -> (usize, usize) {
    let mut j = open + 1;
    if toks.get(j).is_some_and(|x| x.is_ident("move")) {
        j += 1;
    }
    if toks.get(j).is_some_and(|x| x.is_punct("||")) {
        j += 1;
    } else if toks.get(j).is_some_and(|x| x.is_punct("|")) {
        j += 1;
        while j < hi && !toks[j].is_punct("|") {
            j += 1;
        }
        j += 1;
    } else {
        return (0, 0);
    }
    if toks.get(j).is_some_and(|x| x.is_punct("{")) {
        // Brace-block body: everything inside the matching braces.
        let mut depth = 0i64;
        let mut k = j;
        while k < hi {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j + 1, k);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        (j + 1, hi)
    } else {
        // Expression body: up to the paren that closes the spawn call.
        let mut depth = 1i64;
        let mut k = open + 1;
        while k < hi {
            match toks[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j, k);
                    }
                }
                _ => {}
            }
            k += 1;
        }
        (j, hi)
    }
}

/// The identifier directly before the `.` at `dot` (`inner` in
/// `self.inner.lock()`); `"<temp>"` for expression receivers.
fn receiver_tail(toks: &[Tok], dot: usize) -> String {
    if dot > 0 && toks[dot - 1].kind == TokKind::Ident {
        toks[dot - 1].text.clone()
    } else {
        "<temp>".to_string()
    }
}

/// Approximates the token range over which the guard produced by the
/// call whose name token is `name_tok` stays live: the enclosing block
/// (truncated at `drop(binding)`) when the statement is a simple
/// `let [mut] binding = ..;`, otherwise the enclosing statement.
pub(crate) fn guard_live_range(toks: &[Tok], hi: usize, name_tok: usize) -> (usize, usize) {
    let hi = hi.min(toks.len());
    // Statement end: next `;` at depth 0, or the `}`/`)` closing the
    // enclosing group.
    let mut depth = 0i64;
    let mut stmt_end = hi;
    let mut k = name_tok;
    while k < hi {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    stmt_end = k;
                    break;
                }
            }
            ";" if depth == 0 => {
                stmt_end = k;
                break;
            }
            _ => {}
        }
        k += 1;
    }
    // Statement start: walk back to the nearest `;` / `{` / `}`.
    let mut b = name_tok;
    while b > 0 {
        let prev = &toks[b - 1];
        if prev.is_punct(";") || prev.is_punct("{") || prev.is_punct("}") {
            break;
        }
        b -= 1;
    }
    let binding = if toks.get(b).is_some_and(|x| x.is_ident("let")) {
        let mut p = b + 1;
        if toks.get(p).is_some_and(|x| x.is_ident("mut")) {
            p += 1;
        }
        if toks.get(p).is_some_and(|x| x.kind == TokKind::Ident)
            && toks.get(p + 1).is_some_and(|x| x.is_punct("="))
        {
            Some(toks[p].text.clone())
        } else {
            None
        }
    } else {
        None
    };
    let Some(name) = binding else {
        return (name_tok, stmt_end);
    };
    // `let`-bound: live to the end of the enclosing block, or until an
    // explicit `drop(name)`.
    let mut depth = 0i64;
    let mut k = name_tok;
    while k < hi {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return (name_tok, k);
                }
            }
            "drop"
                if toks.get(k + 1).is_some_and(|x| x.is_punct("("))
                    && toks.get(k + 2).is_some_and(|x| x.text == name)
                    && toks.get(k + 3).is_some_and(|x| x.is_punct(")")) =>
            {
                return (name_tok, k);
            }
            _ => {}
        }
        k += 1;
    }
    (name_tok, hi)
}

// ---------------------------------------------------------------------------
// lock-across-spawn
// ---------------------------------------------------------------------------

/// Runs lock-across-spawn over the built graph. `allowed(file, rule,
/// line)` checks and consumes a pragma.
pub(crate) fn check(
    ws: &Workspace,
    graph: &CallGraph,
    mut allowed: impl FnMut(usize, Rule, usize) -> bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_scope = |n: usize| {
        let (fi, ni) = graph.nodes[n].id;
        let ctx = &ws.files[fi];
        ctx.kind == FileKind::Library && !ctx.model.fns[ni].in_test
    };

    // --- lock-across-spawn ------------------------------------------------
    // Sources: every function with an unjustified direct lock site,
    // keyed by lock identity (defining crate + receiver field).
    let lock_sources: Vec<(usize, (String, usize))> = graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(n, node)| {
            node.lock_sites.iter().find(|s| !s.justified).map(|s| {
                let key = format!("{}::{}", ws.files[node.id.0].crate_ident, s.what);
                (n, (key, s.line))
            })
        })
        .collect();
    let lock_reach = dataflow::reach(graph, &lock_sources);
    // Lock-order graph: held-lock -> acquired-lock, with the first
    // witnessing site (deterministic: nodes and calls in scan order).
    let mut lock_edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for n in 0..graph.nodes.len() {
        if !in_scope(n) {
            continue;
        }
        let (fi, ni) = graph.nodes[n].id;
        let ctx = &ws.files[fi];
        let fun = &ctx.model.fns[ni];
        let toks = &ctx.lexed.toks;
        let Some((_, body_hi)) = fun.body else {
            continue;
        };
        let body_hi = body_hi.min(toks.len());
        // All acquisitions in this body: direct `.lock()` sites plus
        // calls into guard-returning lock wrappers.
        struct Acq {
            line: usize,
            tok: usize,
            key: String,
            live: (usize, usize),
        }
        let mut acqs: Vec<Acq> = graph.nodes[n]
            .lock_sites
            .iter()
            .filter(|s| !s.justified)
            .map(|s| Acq {
                line: s.line,
                tok: s.tok,
                key: format!("{}::{}", ctx.crate_ident, s.what),
                live: s.live,
            })
            .collect();
        for (call, targets) in &graph.nodes[n].calls {
            let Some(tix) = targets.iter().find_map(|&t| {
                let (tfi, tni) = t;
                let ret = ws.files[tfi].model.fns[tni].ret.as_deref().unwrap_or("");
                if ret.split(' ').any(|w| w == "MutexGuard") {
                    graph.node_of(t).filter(|&ix| lock_reach[ix].is_some())
                } else {
                    None
                }
            }) else {
                continue;
            };
            let key = lock_reach[tix].as_ref().map(|r| r.payload.0.clone());
            if let Some(key) = key {
                if !allowed(fi, Rule::LockAcrossSpawn, call.line) {
                    acqs.push(Acq {
                        line: call.line,
                        tok: call.name_tok,
                        key,
                        live: guard_live_range(toks, body_hi, call.name_tok),
                    });
                }
            }
        }
        for acq in &acqs {
            // (1) Guard live across a spawn site.
            for s in &graph.nodes[n].spawn_sites {
                if s.tok > acq.tok && s.tok < acq.live.1 {
                    findings.push(Finding {
                        path: ctx.path.clone(),
                        line: acq.line,
                        rule: Rule::LockAcrossSpawn,
                        message: format!(
                            "`MutexGuard` on `{}` acquired in `{}` is still live across the spawn at line {}; narrow the guard (drop it before spawning) or justify with lint:allow(lock-across-spawn)",
                            acq.key, fun.name, s.line,
                        ),
                    });
                }
            }
            // (2) Guard held while calling into another locking function.
            for (call, targets) in &graph.nodes[n].calls {
                if call.name_tok <= acq.tok || call.name_tok >= acq.live.1 {
                    continue;
                }
                let Some(tix) = targets
                    .iter()
                    .filter_map(|&t| graph.node_of(t))
                    .find(|&ix| ix != n && lock_reach[ix].is_some())
                else {
                    continue;
                };
                let Some(tinfo) = &lock_reach[tix] else {
                    continue;
                };
                let tkey = &tinfo.payload.0;
                if *tkey == acq.key {
                    if !allowed(fi, Rule::LockAcrossSpawn, call.line) {
                        findings.push(Finding {
                            path: ctx.path.clone(),
                            line: call.line,
                            rule: Rule::LockAcrossSpawn,
                            message: format!(
                                "calling `{}` here re-locks `{}` while the guard from line {} is still held (self-deadlock) via {}; drop the guard first or justify with lint:allow(lock-across-spawn)",
                                call.name,
                                acq.key,
                                acq.line,
                                witness(ws, graph, &lock_reach, tix),
                            ),
                        });
                    }
                } else {
                    lock_edges
                        .entry((acq.key.clone(), tkey.clone()))
                        .or_insert((n, call.line));
                }
            }
        }
    }
    // (3) Lock-order cycles: an edge A -> B participates in a cycle when
    // B reaches A through the edge set.
    let edge_keys: BTreeSet<(String, String)> = lock_edges.keys().cloned().collect();
    for ((a, b), &(n, line)) in &lock_edges {
        if a != b && lock_order_reaches(&edge_keys, b, a) {
            let (fi, _) = graph.nodes[n].id;
            let ctx = &ws.files[fi];
            if !allowed(fi, Rule::LockAcrossSpawn, line) {
                findings.push(Finding {
                    path: ctx.path.clone(),
                    line,
                    rule: Rule::LockAcrossSpawn,
                    message: format!(
                        "lock-order cycle: `{a}` is held here while acquiring `{b}`, but another call path acquires them in the opposite order; establish one global lock order or justify with lint:allow(lock-across-spawn)",
                    ),
                });
            }
        }
    }

    findings
}

/// Does the lock-order edge set contain a path `from -> … -> to`?
fn lock_order_reaches(edges: &BTreeSet<(String, String)>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if !seen.insert(cur) {
            continue;
        }
        for (a, b) in edges {
            if a == cur {
                stack.push(b);
            }
        }
    }
    false
}

/// Witness call path rendered as fn names joined by ` -> `.
fn witness<P: Clone>(
    ws: &Workspace,
    g: &CallGraph,
    reach: &[Option<ReachInfo<P>>],
    from: usize,
) -> String {
    dataflow::witness_path(reach, from)
        .iter()
        .map(|&n| {
            let (fi, ni) = g.nodes[n].id;
            ws.files[fi].model.fns[ni].name.clone()
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}
