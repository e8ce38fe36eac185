//! Workspace name resolution for the interprocedural rules.
//!
//! [`crate::parser::Model`] sees one file at a time; the whole-workspace
//! rules (effect-taint, panic-reach, unit-flow, obs-twin) need to know
//! which *function* a call lands in, across crate boundaries. This module
//! maps every parsed file to a `(crate, module-path)` coordinate, indexes
//! every `fn` by name, extracts call sites from body token streams, and
//! resolves each site to a set of candidate workspace functions.
//!
//! Resolution is deliberately an *over-approximation* with three declared
//! escape hatches (see DESIGN.md §13 for the soundness argument):
//!
//! * **Path calls** (`crate::tourutil::f(..)`, `uavdc_geom::cmp_f64(..)`)
//!   resolve by suffix-matching the written qualifier against each
//!   candidate's `[crate, modules…]` coordinate, after normalising
//!   `crate`/`self`/`super`.
//! * **Type-qualified and method calls** (`CandidateSet::build(..)`,
//!   `x.plan(..)`) resolve to *every* workspace `fn` with that name —
//!   receiver types are not tracked. A short deny list of ubiquitous
//!   std-trait names ([`METHOD_DENY`]) keeps `clone`/`fmt`/`next`-style
//!   calls from fanning out to unrelated impls; calls through those
//!   names are treated as opaque.
//! * **Unresolved calls are opaque**: a call that matches no workspace
//!   `fn` contributes no edge (std and external callees cannot panic
//!   into our analysis). Opaque-call counts are surfaced in the
//!   `--graph` dump so the blind spots stay visible.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::parser::Model;
use crate::FileKind;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Identifier of one function: `(file index, fn index within file)`.
pub type FnId = (usize, usize);

/// One parsed file plus its workspace coordinate.
pub struct FileCtx {
    /// Display path (workspace-relative for workspace scans).
    pub path: PathBuf,
    /// `/`-normalised path string used by all path-scoped decisions.
    pub norm: String,
    /// Library vs test-like classification.
    pub kind: FileKind,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Item model.
    pub model: Model,
    /// Crate identifier (`uavdc_core`, `rand`, `uavdc`).
    pub crate_ident: String,
    /// Module path within the crate (`["matching", "blossom"]`).
    pub mods: Vec<String>,
}

/// Maps a normalised workspace path to `(crate identifier, module path)`.
///
/// `crates/<name>/src/a/b.rs` → (`uavdc_<name>`, `["a", "b"]`);
/// `crates/compat/<name>/…` → (`<name>`, …); the root `src/` tree is the
/// `uavdc` facade crate. `lib.rs`/`mod.rs`/`main.rs` name no module of
/// their own; `src/bin/x.rs` is its own root module.
pub fn crate_and_module(norm: &str) -> (String, Vec<String>) {
    let (crate_ident, rest) = if let Some(r) = norm.split_once("crates/compat/") {
        let (name, tail) = r.1.split_once('/').unwrap_or((r.1, ""));
        (name.replace('-', "_"), tail)
    } else if let Some(r) = norm.split_once("crates/") {
        let (name, tail) = r.1.split_once('/').unwrap_or((r.1, ""));
        (format!("uavdc_{}", name.replace('-', "_")), tail)
    } else {
        ("uavdc".to_string(), norm)
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let mut mods: Vec<String> = rest
        .trim_end_matches(".rs")
        .split('/')
        .filter(|s| !s.is_empty() && *s != "lib" && *s != "mod" && *s != "main" && *s != "bin")
        .map(|s| s.to_string())
        .collect();
    // `tests/foo.rs`, `benches/foo.rs`: integration targets are their own
    // root; drop the directory component.
    if mods
        .first()
        .is_some_and(|m| m == "tests" || m == "benches" || m == "examples")
    {
        mods.remove(0);
    }
    (crate_ident, mods)
}

/// Method/type-qualified call names that are never resolved: ubiquitous
/// std-trait or std-container names where name-only matching would fan
/// out to unrelated impls across the workspace. Calls through these are
/// opaque to the interprocedural rules (documented soundness boundary).
pub const METHOD_DENY: [&str; 26] = [
    "build",
    "clone",
    "cmp",
    "default",
    "deref",
    "drop",
    "eq",
    "fmt",
    "from",
    "get",
    "hash",
    "index",
    "insert",
    "into",
    "is_empty",
    "iter",
    "len",
    "min",
    "max",
    "ne",
    "new",
    "next",
    "parse",
    "push",
    "value",
    "partial_cmp",
];

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Called name (last path segment / method name).
    pub name: String,
    /// Path qualifiers before the name (empty for bare and method calls).
    pub quals: Vec<String>,
    /// Method-call syntax (`recv.name(..)`)?
    pub method: bool,
    /// 1-based line of the call.
    pub line: usize,
    /// Token index of the call's name token (for wrap detection).
    pub name_tok: usize,
}

/// Keywords that look like `ident (` but are not calls.
const CALL_KEYWORDS: [&str; 9] = [
    "if", "while", "match", "for", "loop", "return", "else", "in", "move",
];

/// Extracts call sites from a body token range `[lo, hi)`.
pub fn extract_calls(toks: &[Tok], lo: usize, hi: usize) -> Vec<CallSite> {
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        // Method call: `. name (` or `. name :: <…> (` (turbofish).
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|x| x.kind == TokKind::Ident)
            && i + 2 < hi
        {
            let name = &toks[i + 1];
            let mut j = i + 2;
            if toks[j].is_punct("::") && toks.get(j + 1).is_some_and(|x| x.is_punct("<")) {
                j = skip_angles(toks, j + 1, hi);
            }
            if toks.get(j).is_some_and(|x| x.is_punct("(")) {
                out.push(CallSite {
                    name: name.text.clone(),
                    quals: Vec::new(),
                    method: true,
                    line: name.line,
                    name_tok: i + 1,
                });
            }
            i += 2;
            continue;
        }
        // Path / bare call: `seg (:: seg)* [::<…>] (`, not preceded by `.`
        // (method receiver) or `fn` (definition).
        if t.kind == TokKind::Ident
            && !(i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_ident("fn")))
            && !(i > 0 && toks[i - 1].is_punct("::"))
        {
            let mut segs: Vec<(usize, String)> = vec![(i, t.text.clone())];
            let mut j = i + 1;
            while toks.get(j).is_some_and(|x| x.is_punct("::"))
                && toks.get(j + 1).is_some_and(|x| x.kind == TokKind::Ident)
            {
                segs.push((j + 1, toks[j + 1].text.clone()));
                j += 2;
            }
            // Optional turbofish between the path and the argument list.
            if toks.get(j).is_some_and(|x| x.is_punct("::"))
                && toks.get(j + 1).is_some_and(|x| x.is_punct("<"))
            {
                j = skip_angles(toks, j + 1, hi);
            }
            let (last_tok, last_name) = match segs.last() {
                Some(s) => (s.0, s.1.clone()),
                None => {
                    i += 1;
                    continue;
                }
            };
            if toks.get(j).is_some_and(|x| x.is_punct("("))
                && !CALL_KEYWORDS.contains(&last_name.as_str())
            {
                out.push(CallSite {
                    name: last_name,
                    quals: segs[..segs.len() - 1].iter().map(|s| s.1.clone()).collect(),
                    method: false,
                    line: toks[last_tok].line,
                    name_tok: last_tok,
                });
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// Skips a balanced `<…>` group whose opening `<` is at `i`; returns the
/// index just past the closing `>`. Bails at `(`/`;`/`{` (malformed).
fn skip_angles(toks: &[Tok], i: usize, hi: usize) -> usize {
    let mut depth: i64 = 0;
    let mut j = i;
    while j < hi {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return j + 1;
                }
            }
            ";" | "{" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// The resolved workspace: all files plus a name → functions index.
pub struct Workspace {
    /// All files, in scan order.
    pub files: Vec<FileCtx>,
    /// Every `fn` by bare name, in deterministic (file, fn) order.
    name_index: BTreeMap<String, Vec<FnId>>,
}

impl Workspace {
    /// Builds the symbol table over the given files.
    pub fn build(files: Vec<FileCtx>) -> Workspace {
        let mut name_index: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ni, fun) in f.model.fns.iter().enumerate() {
                name_index
                    .entry(fun.name.clone())
                    .or_default()
                    .push((fi, ni));
            }
        }
        Workspace { files, name_index }
    }

    /// Functions with this bare name, in deterministic order.
    pub fn by_name(&self, name: &str) -> &[FnId] {
        self.name_index.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves a call site in `caller_file` to candidate functions.
    ///
    /// Returns an empty set for opaque calls (std/external, denied names,
    /// or unmatched qualifiers).
    pub fn resolve(&self, caller_file: usize, call: &CallSite) -> Vec<FnId> {
        let cands = self.by_name(&call.name);
        if cands.is_empty() {
            return Vec::new();
        }
        if call.method {
            if METHOD_DENY.contains(&call.name.as_str()) {
                return Vec::new();
            }
            return cands.to_vec();
        }
        if call.quals.is_empty() {
            // Bare call: same-file functions win; otherwise fall back to
            // the name index (imports are not tracked per se — the
            // over-approximation subsumes them).
            let local: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&(fi, _)| fi == caller_file)
                .collect();
            if !local.is_empty() {
                return local;
            }
            if METHOD_DENY.contains(&call.name.as_str()) {
                return Vec::new();
            }
            return cands.to_vec();
        }
        // Type-qualified call (`CandidateSet::build`): the qualifier is a
        // type name our item model does not track; resolve by name.
        if call
            .quals
            .last()
            .is_some_and(|q| q.chars().next().is_some_and(|c| c.is_uppercase()))
        {
            if METHOD_DENY.contains(&call.name.as_str()) {
                return Vec::new();
            }
            return cands.to_vec();
        }
        // Module-qualified call: suffix-match the normalised qualifier
        // against each candidate's `[crate, modules…]` coordinate.
        let caller = &self.files[caller_file];
        let mut quals: Vec<String> = Vec::new();
        for (k, q) in call.quals.iter().enumerate() {
            match q.as_str() {
                "crate" if k == 0 => quals.push(caller.crate_ident.clone()),
                "self" if k == 0 => {
                    quals.push(caller.crate_ident.clone());
                    quals.extend(caller.mods.iter().cloned());
                }
                "super" if k == 0 => {
                    quals.push(caller.crate_ident.clone());
                    let keep = caller.mods.len().saturating_sub(1);
                    quals.extend(caller.mods[..keep].iter().cloned());
                }
                _ => quals.push(q.replace('-', "_")),
            }
        }
        cands
            .iter()
            .copied()
            .filter(|&(fi, _)| {
                let f = &self.files[fi];
                let mut full: Vec<&str> = Vec::with_capacity(1 + f.mods.len());
                full.push(f.crate_ident.as_str());
                full.extend(f.mods.iter().map(String::as_str));
                full.len() >= quals.len()
                    && full[full.len() - quals.len()..]
                        .iter()
                        .zip(&quals)
                        .all(|(a, b)| *a == b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::Path;

    fn ctx(path: &str, src: &str) -> FileCtx {
        let lexed = lex(src);
        let model = parse(&lexed.toks);
        let norm = path.to_string();
        let (crate_ident, mods) = crate_and_module(&norm);
        FileCtx {
            path: Path::new(path).to_path_buf(),
            norm,
            kind: crate::classify(Path::new(path)),
            lexed,
            model,
            crate_ident,
            mods,
        }
    }

    #[test]
    fn crate_coordinates() {
        assert_eq!(
            crate_and_module("crates/core/src/alg2.rs"),
            ("uavdc_core".into(), vec!["alg2".to_string()])
        );
        assert_eq!(
            crate_and_module("crates/graph/src/matching/blossom.rs"),
            (
                "uavdc_graph".into(),
                vec!["matching".to_string(), "blossom".to_string()]
            )
        );
        assert_eq!(
            crate_and_module("crates/core/src/lib.rs"),
            ("uavdc_core".into(), vec![])
        );
        assert_eq!(
            crate_and_module("src/viz.rs"),
            ("uavdc".into(), vec!["viz".to_string()])
        );
        assert_eq!(
            crate_and_module("src/bin/uavdc.rs"),
            ("uavdc".into(), vec!["uavdc".to_string()])
        );
        assert_eq!(
            crate_and_module("crates/compat/rand/src/lib.rs"),
            ("rand".into(), vec![])
        );
    }

    #[test]
    fn call_extraction_forms() {
        let l = lex("fn f() { g(); a::b::h(1); x.m(2); y.collect::<Vec<_>>(); if x { } vec![1]; Point2::new(0.0, 0.0); }");
        let m = parse(&l.toks);
        let (lo, hi) = m.fns[0].body.unwrap();
        let calls = extract_calls(&l.toks, lo, hi);
        let names: Vec<(&str, bool)> = calls.iter().map(|c| (c.name.as_str(), c.method)).collect();
        assert_eq!(
            names,
            vec![
                ("g", false),
                ("h", false),
                ("m", true),
                ("collect", true),
                ("new", false)
            ]
        );
        assert_eq!(calls[1].quals, vec!["a", "b"]);
        assert_eq!(calls[4].quals, vec!["Point2"]);
    }

    #[test]
    fn turbofish_in_call_position_resolves_the_path() {
        let l = lex("fn f() { parse::<u32>(s); m::g::<T>(x); }");
        let m = parse(&l.toks);
        let (lo, hi) = m.fns[0].body.unwrap();
        let calls = extract_calls(&l.toks, lo, hi);
        assert_eq!(calls.len(), 2, "{calls:?}");
        assert_eq!(calls[0].name, "parse");
        assert_eq!(calls[1].name, "g");
        assert_eq!(calls[1].quals, vec!["m"]);
    }

    #[test]
    fn resolution_by_suffix_and_name() {
        let ws = Workspace::build(vec![
            ctx("crates/core/src/alg2.rs", "fn caller() { crate::tourutil::order(); tourutil::order(); helper(); S::assemble(); }\nfn helper() {}\n"),
            ctx("crates/core/src/tourutil.rs", "pub fn order() {}\npub fn assemble() {}\n"),
            ctx("crates/graph/src/tour.rs", "pub fn order() {}\n"),
        ]);
        let (lo, hi) = ws.files[0].model.fns[0].body.unwrap();
        let calls = extract_calls(&ws.files[0].lexed.toks, lo, hi);
        // crate::tourutil::order → exactly the core fn.
        assert_eq!(ws.resolve(0, &calls[0]), vec![(1, 0)]);
        // tourutil::order suffix-matches core::tourutil only.
        assert_eq!(ws.resolve(0, &calls[1]), vec![(1, 0)]);
        // bare helper → same file.
        assert_eq!(ws.resolve(0, &calls[2]), vec![(0, 1)]);
        // S::assemble is type-qualified → name-wide over-approximation.
        assert_eq!(ws.resolve(0, &calls[3]), vec![(1, 1)]);
    }

    #[test]
    fn denied_and_external_calls_are_opaque() {
        let ws = Workspace::build(vec![
            ctx(
                "crates/core/src/a.rs",
                "fn f(v: &V) { v.clone(); v.plan(); std::mem::take(x); }\n",
            ),
            ctx(
                "crates/core/src/b.rs",
                "pub fn plan() {}\npub fn clone() {}\n",
            ),
        ]);
        let (lo, hi) = ws.files[0].model.fns[0].body.unwrap();
        let calls = extract_calls(&ws.files[0].lexed.toks, lo, hi);
        assert!(ws.resolve(0, &calls[0]).is_empty(), "clone is denied");
        assert_eq!(ws.resolve(0, &calls[1]), vec![(1, 0)]);
        assert!(ws.resolve(0, &calls[2]).is_empty(), "std is opaque");
    }
}
