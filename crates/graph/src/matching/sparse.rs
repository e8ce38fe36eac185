//! Sparse exact minimum-weight perfect matching with a certificate that
//! the answer is the one the dense blossom solver would return.
//!
//! The dense solver (`blossom.rs`) works on the complete graph in
//! `O(n³)` time and `O(n²)` memory. Christofides' odd sets are Euclidean,
//! so the optimum almost always uses short edges only. This module solves
//! the matching on the `K`-nearest-neighbour edges of each vertex, then
//! makes one `O(n²)` pass over *all* pairs with the solver's final duals:
//!
//! 1. **Dual feasibility.** Every pair must have a non-negative reduced
//!    cost. Pairs that do not are added to the edge set and the sparse
//!    problem is solved again (a bounded number of times).
//! 2. **Optimality.** Matched pairs are tight and every blossom with a
//!    positive dual has exactly one vertex matched outside it. With (1)
//!    this proves the matching optimal over all perfect matchings of the
//!    complete graph.
//! 3. **Uniqueness.** Level by level through the laminar family of
//!    positive-dual blossoms, tight non-matching pairs may not close an
//!    alternating cycle (see [`check`]). A unique optimum is the one the
//!    dense solver returns, ties included.
//!
//! Both solvers use the same integer weights (`2^30 / dmax` scaling, as
//! in `blossom.rs`), on which they are exact. Whenever a check fails the
//! caller falls back to the dense solver, so the returned `mates` always
//! equal the dense ones. The solver follows the edge-list formulation of
//! the primal–dual blossom algorithm (Galil 1986; van Rantwijk's
//! `mwmatching`): memory is `O(n + m)` for `m` edges, and weights are read
//! from the [`DistMatrix`] rows.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertex, node and edge ids it created itself; `matching_fuzz` checks it against the dense blossom"
)]

use crate::DistMatrix;
use std::mem::take;

/// Neighbours per vertex in the initial edge set.
const K: usize = 14;
/// Rounds of "add the violated pairs and solve again" before giving up.
const MAX_REPAIRS: u64 = 3;
/// More tight non-matching pairs than this per vertex means a tie-heavy
/// instance: give up rather than hold an `O(n²)` list.
const TIGHT_PER_VERTEX: usize = 16;
/// "No vertex / edge / endpoint".
const NONE: usize = usize::MAX;

/// Result of one sparse attempt.
pub(super) struct Attempt {
    /// The certified-unique optimum, or `None` when the caller must fall
    /// back to the dense solver.
    pub mates: Option<Vec<usize>>,
    /// Repair rounds run (solves after the first).
    pub repairs: u64,
    /// Solver effort summed over the solves.
    pub effort: Effort,
}

/// What the sparse solves did: stages (one augmentation each), dual
/// adjustments, and blossoms formed.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Effort {
    pub stages: u64,
    pub dual_steps: u64,
    pub blossoms: u64,
}

/// Solves the matching on a sparse edge set and certifies it; see the
/// module docs. `m.len()` must be even and positive.
pub(super) fn certified_matching(m: &DistMatrix) -> Attempt {
    let w = Weights::new(m);
    let mut pairs = knn_pairs(m, K);
    let mut attempt = Attempt {
        mates: None,
        repairs: 0,
        effort: Effort::default(),
    };
    loop {
        let Some((mates, dual)) = solve_sparse(&w, &pairs, &mut attempt.effort) else {
            return attempt;
        };
        match check(&w, &mates, &dual) {
            Verdict::Unique => {
                attempt.mates = Some(mates);
                return attempt;
            }
            Verdict::Violated(extra) if attempt.repairs < MAX_REPAIRS => {
                attempt.repairs += 1;
                pairs.extend(extra);
                pairs.sort_unstable();
                pairs.dedup();
            }
            Verdict::Violated(_) | Verdict::Rejected => return attempt,
        }
    }
}

/// The integer weights of the matching problem.
///
/// `int` must stay the dense solver's `to_int` (same scale, same
/// rounding): both solvers are exact on these integers, which is what
/// makes a unique integer optimum the dense solver's answer. The sparse
/// solver maximises `w′ = −2·int(d)` over maximum-cardinality matchings;
/// the factor 2 keeps every vertex dual even (see
/// [`Solver::greedy_start`]).
struct Weights<'a> {
    m: &'a DistMatrix,
    scale: f64,
}

impl<'a> Weights<'a> {
    fn new(m: &'a DistMatrix) -> Self {
        let dmax = m.max_weight();
        let scale = if dmax > 0.0 {
            (1u64 << 30) as f64 / dmax
        } else {
            1.0
        };
        Weights { m, scale }
    }

    #[inline]
    fn int(&self, d: f64) -> i64 {
        (d * self.scale).round() as i64
    }

    /// Transformed (maximised) weight of pair `(u, v)`.
    #[inline]
    fn prime(&self, u: usize, v: usize) -> i64 {
        -2 * self.int(self.m.get(u, v))
    }
}

/// The `k` nearest other vertices of each vertex, as sorted unique
/// `(u, v)` pairs with `u < v`. Ties go to the lower index.
fn knn_pairs(m: &DistMatrix, k: usize) -> Vec<(usize, usize)> {
    let n = m.len();
    let mut pairs = Vec::with_capacity(n * k);
    let mut row: Vec<(f64, usize)> = Vec::with_capacity(n);
    for u in 0..n {
        row.clear();
        row.extend(
            m.row(u)
                .iter()
                .enumerate()
                .filter(|&(v, _)| v != u)
                .map(|(v, &d)| (d, v)),
        );
        if row.len() > k {
            // The `k` least `(d, v)`: nearest first, lower index on ties.
            row.select_nth_unstable_by(k, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            row.truncate(k);
        }
        pairs.extend(row.iter().map(|&(_, v)| (u.min(v), u.max(v))));
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Final duals of a solve, in the solver's units.
///
/// Nodes `0..n` are vertices and `n..2n` blossoms. The reduced cost of a
/// pair is `rc(u, v) = value[u] + value[v] + 2·Σ value[B] − 2·w′(u, v)`
/// over the blossoms `B` holding both `u` and `v`.
struct Dual {
    value: Vec<i64>,
    /// Enclosing blossom of each node, `NONE` at the top.
    parent: Vec<usize>,
}

/// Runs the sparse solver on `pairs`. Returns 0-indexed mates (`NONE` for
/// an unmatched vertex) and the final duals, or `None` if the solver hit
/// one of its internal guards.
fn solve_sparse(
    w: &Weights<'_>,
    pairs: &[(usize, usize)],
    effort: &mut Effort,
) -> Option<(Vec<usize>, Dual)> {
    let weights: Vec<i64> = pairs.iter().map(|&(u, v)| w.prime(u, v)).collect();
    let mut s = Solver::new(w.m.len(), pairs, weights);
    s.maximise();
    effort.stages += s.effort.stages;
    effort.dual_steps += s.effort.dual_steps;
    effort.blossoms += s.effort.blossoms;
    if s.broken {
        return None;
    }
    let mates = s
        .mate
        .iter()
        .map(|&p| if p == NONE { NONE } else { s.ends[p] })
        .collect();
    Some((
        mates,
        Dual {
            value: s.dual,
            parent: s.parent,
        },
    ))
}

/// What the all-pairs pass concluded.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The matching is the unique optimum over all perfect matchings.
    Unique,
    /// These pairs have negative reduced cost (the most negative one per
    /// vertex): add them and solve again.
    Violated(Vec<(usize, usize)>),
    /// Optimality or uniqueness could not be shown.
    Rejected,
}

/// Checks `mates` against `dual` over all `n(n−1)/2` pairs.
///
/// Optimality is linear-programming complementary slackness. Uniqueness:
/// any other optimum `M′` uses tight pairs only and, like `M`, has exactly
/// one edge leaving each positive blossom. Contract the children of each
/// positive blossom `S` (and of the whole vertex set). Where `M` and `M′`
/// share the edge leaving `S`, both perfectly match the children of `S`
/// other than the one holding that edge (`X_S`). Take the topmost level
/// where they differ: an `M′` edge between children `A` and `B` yields an
/// arc `A → mateChild(B)`, and the symmetric difference is a directed
/// cycle of such arcs (a parallel edge is a self-loop). So if no level has
/// a cycle among its tight non-matching pairs not touching `X_S`, `M` is
/// the only optimum.
fn check(w: &Weights<'_>, mates: &[usize], dual: &Dual) -> Verdict {
    let n = mates.len();
    let nodes = 2 * n;
    if mates.contains(&NONE) {
        return Verdict::Violated(free_pairs(w.m, mates));
    }
    // Positive-dual blossoms enclosing each vertex, outermost first, and
    // the dual sum of each such blossom and its positive ancestors.
    let mut chain_start = Vec::with_capacity(n + 1);
    let mut chain: Vec<usize> = Vec::with_capacity(2 * n);
    let mut zsum = vec![0i64; nodes];
    chain_start.push(0);
    for v in 0..n {
        let from = chain.len();
        let mut b = dual.parent[v];
        while b != NONE {
            let z = dual.value[b];
            if z < 0 {
                return Verdict::Rejected;
            }
            if z > 0 {
                chain.push(b);
            }
            b = dual.parent[b];
        }
        chain[from..].reverse();
        let mut acc = 0;
        for &b in &chain[from..] {
            acc += dual.value[b];
            zsum[b] = acc;
        }
        chain_start.push(chain.len());
    }
    let chain_of = |v: usize| &chain[chain_start[v]..chain_start[v + 1]];
    // Outermost positive blossom of each vertex: pairs under different
    // ones share no blossom dual.
    let outer: Vec<usize> = (0..n)
        .map(|v| chain_of(v).first().copied().unwrap_or(NONE))
        .collect();

    // Per node: the child at the same level its leaving `M` edge reaches,
    // whether that edge also leaves the node's parent, and (for blossoms)
    // how many of its vertices are matched outside it.
    let mut mate_child = vec![NONE; nodes];
    let mut ext_child = vec![false; nodes];
    let mut ext_count = vec![0u32; nodes];
    let mut tight: Vec<(usize, usize)> = Vec::new();
    let mut worst = vec![(0i64, NONE); n];
    let mut violated = false;
    for (u, &mate_u) in mates.iter().enumerate() {
        let cu_chain = chain_of(u);
        for (v, &d) in w.m.row(u).iter().enumerate().skip(u + 1) {
            let cv_chain = chain_of(v);
            let common = if outer[u] != NONE && outer[u] == outer[v] {
                cu_chain
                    .iter()
                    .zip(cv_chain)
                    .take_while(|(a, b)| a == b)
                    .count()
            } else {
                0
            };
            let z = if common > 0 {
                zsum[cu_chain[common - 1]]
            } else {
                0
            };
            let rc = dual.value[u] + dual.value[v] + 2 * z + 4 * w.int(d);
            if rc > 0 && mate_u != v {
                // Slack and unmatched: the common case, nothing to record.
                continue;
            }
            if rc < 0 {
                violated = true;
                for (a, b) in [(u, v), (v, u)] {
                    if rc < worst[a].0 {
                        worst[a] = (rc, b);
                    }
                }
                continue;
            }
            let cu = cu_chain.get(common).copied().unwrap_or(u);
            let cv = cv_chain.get(common).copied().unwrap_or(v);
            if mate_u == v {
                if rc != 0 {
                    return Verdict::Rejected;
                }
                mate_child[cu] = cv;
                mate_child[cv] = cu;
                for (x, below) in [(u, &cu_chain[common..]), (v, &cv_chain[common..])] {
                    for &b in below {
                        ext_count[b] += 1;
                    }
                    // Everything under the level's child also sends this
                    // edge out of its own parent.
                    ext_child[x] = !below.is_empty();
                    for &b in below.iter().skip(1) {
                        ext_child[b] = true;
                    }
                }
            } else if rc == 0 {
                if tight.len() >= TIGHT_PER_VERTEX * n {
                    return Verdict::Rejected;
                }
                tight.push((cu, cv));
            }
        }
    }
    if violated {
        let mut extra: Vec<(usize, usize)> = worst
            .iter()
            .enumerate()
            .filter(|&(_, &(_, b))| b != NONE)
            .map(|(a, &(_, b))| (a.min(b), a.max(b)))
            .collect();
        extra.sort_unstable();
        extra.dedup();
        return Verdict::Violated(extra);
    }
    if mates
        .iter()
        .enumerate()
        .any(|(v, &p)| p >= n || mates[p] != v)
    {
        return Verdict::Rejected;
    }
    if chain.iter().any(|&b| ext_count[b] != 1) {
        return Verdict::Rejected;
    }
    let arcs: Vec<(usize, usize)> = tight
        .iter()
        .filter(|&&(a, b)| !ext_child[a] && !ext_child[b])
        .flat_map(|&(a, b)| [(a, mate_child[b]), (b, mate_child[a])])
        .collect();
    if arcs.iter().any(|&(_, t)| t == NONE) || has_cycle(nodes, &arcs) {
        return Verdict::Rejected;
    }
    Verdict::Unique
}

/// The edge set admits no perfect matching: pair each unmatched vertex
/// with its nearest unmatched vertex. Any such pair lengthens a maximum
/// matching, so each repair round matches more vertices.
fn free_pairs(m: &DistMatrix, mates: &[usize]) -> Vec<(usize, usize)> {
    let free: Vec<usize> = (0..mates.len()).filter(|&v| mates[v] == NONE).collect();
    let mut pairs: Vec<(usize, usize)> = free
        .iter()
        .filter_map(|&u| {
            let row = m.row(u);
            free.iter()
                .copied()
                .filter(|&v| v != u)
                .min_by(|&a, &b| uavdc_geom::cmp_f64(row[a], row[b]).then(a.cmp(&b)))
                .map(|v| (u.min(v), u.max(v)))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Does the digraph on `0..nodes` with these arcs have a directed cycle
/// (self-loops included)? Kahn's algorithm.
fn has_cycle(nodes: usize, arcs: &[(usize, usize)]) -> bool {
    let mut start = vec![0usize; nodes + 1];
    let mut indeg = vec![0usize; nodes];
    for &(a, b) in arcs {
        start[a + 1] += 1;
        indeg[b] += 1;
    }
    for i in 0..nodes {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut head = vec![0usize; arcs.len()];
    for &(a, b) in arcs {
        head[fill[a]] = b;
        fill[a] += 1;
    }
    let mut ready: Vec<usize> = (0..nodes).filter(|&v| indeg[v] == 0).collect();
    let mut done = 0;
    while let Some(v) = ready.pop() {
        done += 1;
        for &t in &head[start[v]..start[v + 1]] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    done < nodes
}

/// Appends the vertices of node `b` to `out`.
fn push_leaves(childs: &[Vec<usize>], n: usize, b: usize, out: &mut Vec<usize>) {
    if b < n {
        out.push(b);
    } else {
        for &t in &childs[b] {
            push_leaves(childs, n, t, out);
        }
    }
}

/// Maximum-weight maximum-cardinality matching on an edge list
/// (primal–dual blossom algorithm, edge-indexed). Edge `k` has endpoints
/// `2k` and `2k + 1`; `ends[p]` is the vertex of endpoint `p` and `p ^ 1`
/// its other end. Vertex duals are stored doubled and are unrestricted in
/// sign (the perfect-matching dual), so all arithmetic stays integral.
struct Solver {
    n: usize,
    ends: Vec<usize>,
    weight: Vec<i64>,
    /// CSR: the remote endpoints of vertex `v`'s edges are
    /// `adj[adj_start[v]..adj_start[v + 1]]`.
    adj_start: Vec<usize>,
    adj: Vec<usize>,
    /// Remote endpoint of each vertex's matched edge, or `NONE`.
    mate: Vec<usize>,
    /// 0 free, 1 S, 2 T; bit 4 marks an S node during `scan_blossom`.
    label: Vec<u8>,
    /// Endpoint through which a node got its label.
    labelend: Vec<usize>,
    /// Top-level blossom (or the vertex itself) holding each vertex.
    inblossom: Vec<usize>,
    parent: Vec<usize>,
    childs: Vec<Vec<usize>>,
    /// `endps[b][i]` links `childs[b][i]` to `childs[b][i + 1]`.
    endps: Vec<Vec<usize>>,
    base: Vec<usize>,
    /// Least-slack edge to another S node (S blossoms) or from an S node
    /// (free vertices).
    bestedge: Vec<usize>,
    /// Per S blossom: least-slack edge to each other S node. Empty means
    /// "not listed": its vertices' edges are scanned instead.
    bestedges: Vec<Vec<usize>>,
    unused: Vec<usize>,
    /// Blossoms in use (any level), ascending.
    live: Vec<usize>,
    dual: Vec<i64>,
    allow: Vec<bool>,
    queue: Vec<usize>,
    /// Scratch for `add_blossom`: per node, all `NONE` between calls,
    /// and the nodes it set.
    bestedgeto: Vec<usize>,
    offered: Vec<usize>,
    scratch: Vec<usize>,
    /// Set when an internal guard trips; the result must not be used.
    broken: bool,
    effort: Effort,
}

impl Solver {
    fn new(n: usize, pairs: &[(usize, usize)], weight: Vec<i64>) -> Self {
        let m = pairs.len();
        let mut ends = Vec::with_capacity(2 * m);
        let mut adj_start = vec![0usize; n + 1];
        for &(i, j) in pairs {
            ends.push(i);
            ends.push(j);
            adj_start[i + 1] += 1;
            adj_start[j + 1] += 1;
        }
        for v in 0..n {
            adj_start[v + 1] += adj_start[v];
        }
        let mut fill = adj_start.clone();
        let mut adj = vec![0usize; 2 * m];
        for (k, &(i, j)) in pairs.iter().enumerate() {
            adj[fill[i]] = 2 * k + 1;
            fill[i] += 1;
            adj[fill[j]] = 2 * k;
            fill[j] += 1;
        }
        let mut base: Vec<usize> = (0..n).collect();
        base.resize(2 * n, NONE);
        let mut s = Solver {
            n,
            ends,
            weight,
            adj_start,
            adj,
            mate: vec![NONE; n],
            label: vec![0; 2 * n],
            labelend: vec![NONE; 2 * n],
            inblossom: (0..n).collect(),
            parent: vec![NONE; 2 * n],
            childs: vec![Vec::new(); 2 * n],
            endps: vec![Vec::new(); 2 * n],
            base,
            bestedge: vec![NONE; 2 * n],
            bestedges: vec![Vec::new(); 2 * n],
            unused: (n..2 * n).rev().collect(),
            live: Vec::new(),
            dual: vec![0; 2 * n],
            allow: vec![false; m],
            queue: Vec::new(),
            bestedgeto: vec![NONE; 2 * n],
            offered: Vec::new(),
            scratch: Vec::new(),
            broken: false,
            effort: Effort::default(),
        };
        s.greedy_start();
        s
    }

    /// A dual-feasible start with a matching on tight edges. Each vertex
    /// dual starts at its heaviest incident weight, which makes mutual
    /// nearest neighbours tight; each still-free vertex then lowers its
    /// dual until some edge is tight and takes it if the far end is free.
    /// Weights are even, so every dual stays even and the `slack / 2` of
    /// S–S edges in [`Self::dual_step`] is exact.
    fn greedy_start(&mut self) {
        let n = self.n;
        for v in 0..n {
            let heaviest = self.adj[self.adj_start[v]..self.adj_start[v + 1]]
                .iter()
                .map(|&p| self.weight[p / 2])
                .max();
            // An isolated vertex never constrains anything.
            self.dual[v] = heaviest.unwrap_or(0);
        }
        for v in 0..n {
            if self.mate[v] != NONE {
                continue;
            }
            // Tightest edge, preferring a free far end among ties.
            let mut best: Option<(i64, bool, usize)> = None;
            for &p in &self.adj[self.adj_start[v]..self.adj_start[v + 1]] {
                let need = 2 * self.weight[p / 2] - self.dual[self.ends[p]];
                let free = self.mate[self.ends[p]] == NONE;
                if best.is_none_or(|(b, f, _)| (need, free) > (b, f)) {
                    best = Some((need, free, p));
                }
            }
            let Some((need, _, p)) = best else { continue };
            self.dual[v] = need;
            let u = self.ends[p];
            if self.mate[u] == NONE {
                self.mate[v] = p;
                self.mate[u] = p ^ 1;
            }
        }
        self.tight_paths();
    }

    /// Augments along alternating paths of tight edges found by a
    /// depth-first search from each free vertex, so that fewer vertices
    /// start the first stage free. Duals do not change, and every edge
    /// the matching gains is tight, so the start stays a valid one.
    fn tight_paths(&mut self) {
        let n = self.n;
        let mut seen = vec![NONE; n];
        let mut path = Vec::new();
        for r in 0..n {
            if self.mate[r] != NONE {
                continue;
            }
            seen[r] = r;
            path.clear();
            if self.tight_path_from(r, r, &mut seen, &mut path) {
                for &p in &path {
                    let (x, y) = (self.ends[p ^ 1], self.ends[p]);
                    self.mate[x] = p;
                    self.mate[y] = p ^ 1;
                }
            }
        }
    }

    /// Depth-first search for a tight alternating path from `x` to a free
    /// vertex other than `root`, pushing the unmatched endpoints taken.
    fn tight_path_from(
        &self,
        x: usize,
        root: usize,
        seen: &mut [usize],
        path: &mut Vec<usize>,
    ) -> bool {
        for &p in &self.adj[self.adj_start[x]..self.adj_start[x + 1]] {
            let y = self.ends[p];
            if seen[y] == root || self.slack(p / 2) != 0 {
                continue;
            }
            seen[y] = root;
            let m = self.mate[y];
            let found = if m == NONE {
                true
            } else {
                let z = self.ends[m];
                seen[z] != root && {
                    seen[z] = root;
                    self.tight_path_from(z, root, seen, path)
                }
            };
            if found {
                path.push(p);
                return true;
            }
        }
        false
    }

    /// Twice the slack of edge `k` (valid between distinct top-level
    /// blossoms).
    #[inline]
    fn slack(&self, k: usize) -> i64 {
        self.dual[self.ends[2 * k]] + self.dual[self.ends[2 * k + 1]] - 2 * self.weight[k]
    }

    fn assign_label(&mut self, w: usize, t: u8, p: usize) {
        let (mut w, mut t, mut p) = (w, t, p);
        loop {
            let b = self.inblossom[w];
            self.label[w] = t;
            self.label[b] = t;
            self.labelend[w] = p;
            self.labelend[b] = p;
            self.bestedge[w] = NONE;
            self.bestedge[b] = NONE;
            if t == 1 {
                push_leaves(&self.childs, self.n, b, &mut self.queue);
                return;
            }
            // A T node's base is matched; its mate becomes S.
            let mp = self.mate[self.base[b]];
            if mp == NONE {
                self.broken = true;
                return;
            }
            w = self.ends[mp];
            t = 1;
            p = mp ^ 1;
        }
    }

    /// Traces back from `v` and `w` (both S) to find either a common base
    /// (a new blossom; returned) or two distinct roots (`NONE`).
    fn scan_blossom(&mut self, v: usize, w: usize) -> usize {
        let mut path = take(&mut self.scratch);
        path.clear();
        let (mut v, mut w) = (v, w);
        let mut base = NONE;
        while v != NONE {
            let mut b = self.inblossom[v];
            if self.label[b] & 4 != 0 {
                base = self.base[b];
                break;
            }
            path.push(b);
            self.label[b] = 5;
            if self.labelend[b] == NONE {
                v = NONE;
            } else {
                // Step to the T node above, then to its S parent.
                b = self.inblossom[self.ends[self.labelend[b]]];
                if self.labelend[b] == NONE {
                    self.broken = true;
                    break;
                }
                v = self.ends[self.labelend[b]];
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b] = 1;
        }
        self.scratch = path;
        base
    }

    /// Shrinks the odd cycle through edge `k` with the given base.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let Some(b) = self.unused.pop() else {
            self.broken = true;
            return;
        };
        self.effort.blossoms += 1;
        if let Err(at) = self.live.binary_search(&b) {
            self.live.insert(at, b);
        }
        let (mut v, mut w) = (self.ends[2 * k], self.ends[2 * k + 1]);
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        self.base[b] = base;
        self.parent[b] = NONE;
        self.parent[bb] = b;
        let mut path = take(&mut self.childs[b]);
        let mut endps = take(&mut self.endps[b]);
        path.clear();
        endps.clear();
        while bv != bb && self.labelend[bv] != NONE {
            self.parent[bv] = b;
            path.push(bv);
            endps.push(self.labelend[bv]);
            v = self.ends[self.labelend[bv]];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb && self.labelend[bw] != NONE {
            self.parent[bw] = b;
            path.push(bw);
            endps.push(self.labelend[bw] ^ 1);
            w = self.ends[self.labelend[bw]];
            bw = self.inblossom[w];
        }
        if bv != bb || bw != bb {
            // Both paths must reach the base through labelled nodes.
            self.broken = true;
        }
        self.childs[b] = path;
        self.endps[b] = endps;
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dual[b] = 0;
        let mut leaves = take(&mut self.scratch);
        leaves.clear();
        push_leaves(&self.childs, self.n, b, &mut leaves);
        for &x in &leaves {
            if self.label[self.inblossom[x]] == 2 {
                // Former T vertices become S: scan them.
                self.queue.push(x);
            }
            self.inblossom[x] = b;
        }
        // Least-slack edge from the new blossom to each other S node.
        for ci in 0..self.childs[b].len() {
            let c = self.childs[b][ci];
            if !self.bestedges[c].is_empty() {
                let list = take(&mut self.bestedges[c]);
                for &e in &list {
                    self.offer_best(b, e);
                }
                self.bestedges[c] = list;
            } else {
                leaves.clear();
                push_leaves(&self.childs, self.n, c, &mut leaves);
                for &x in &leaves {
                    for i in self.adj_start[x]..self.adj_start[x + 1] {
                        self.offer_best(b, self.adj[i] / 2);
                    }
                }
            }
            self.bestedges[c].clear();
            self.bestedge[c] = NONE;
        }
        self.scratch = leaves;
        let mut list = take(&mut self.bestedges[b]);
        list.clear();
        let mut best = NONE;
        // The offered nodes in node order, as a sweep over all slots
        // would list them.
        self.offered.sort_unstable();
        for &node in &self.offered {
            list.push(self.bestedgeto[node]);
            self.bestedgeto[node] = NONE;
        }
        self.offered.clear();
        for &e in &list {
            if best == NONE || self.slack(e) < self.slack(best) {
                best = e;
            }
        }
        self.bestedges[b] = list;
        self.bestedge[b] = best;
    }

    fn offer_best(&mut self, b: usize, k: usize) {
        let (i, j) = (self.ends[2 * k], self.ends[2 * k + 1]);
        let j = if self.inblossom[j] == b { i } else { j };
        let bj = self.inblossom[j];
        if bj != b
            && self.label[bj] == 1
            && (self.bestedgeto[bj] == NONE || self.slack(k) < self.slack(self.bestedgeto[bj]))
        {
            if self.bestedgeto[bj] == NONE {
                self.offered.push(bj);
            }
            self.bestedgeto[bj] = k;
        }
    }

    /// `childs[b][j]` with Python-style negative indexing.
    #[inline]
    fn child_at(&self, b: usize, j: isize) -> usize {
        let c = &self.childs[b];
        c[j.rem_euclid(c.len() as isize) as usize]
    }

    #[inline]
    fn endp_at(&self, b: usize, j: isize) -> usize {
        let e = &self.endps[b];
        e[j.rem_euclid(e.len() as isize) as usize]
    }

    /// Dissolves top-level blossom `b`: at the end of a stage (its zero-dual
    /// sub-blossoms too), or mid-stage when a T blossom's dual hits zero,
    /// relabelling the children along the even path.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let childs = take(&mut self.childs[b]);
        let mut leaves = take(&mut self.scratch);
        for &s in &childs {
            self.parent[s] = NONE;
            if s < self.n {
                self.inblossom[s] = s;
            } else if endstage && self.dual[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                leaves.clear();
                push_leaves(&self.childs, self.n, s, &mut leaves);
                for &x in &leaves {
                    self.inblossom[x] = s;
                }
            }
        }
        self.childs[b] = childs;
        if !endstage && self.label[b] == 2 {
            let entry = self.inblossom[self.ends[self.labelend[b] ^ 1]];
            let len = self.childs[b].len() as isize;
            let Some(pos) = self.childs[b].iter().position(|&c| c == entry) else {
                self.broken = true;
                self.scratch = leaves;
                return;
            };
            let mut j = pos as isize;
            let (jstep, trick) = if j & 1 != 0 {
                j -= len;
                (1isize, 0usize)
            } else {
                (-1isize, 1usize)
            };
            let mut p = self.labelend[b];
            while j != 0 {
                // Relabel the T sub-blossom and its S mate on the path.
                self.label[self.ends[p ^ 1]] = 0;
                let q = self.endp_at(b, j - trick as isize);
                self.label[self.ends[q ^ trick ^ 1]] = 0;
                self.assign_label(self.ends[p ^ 1], 2, p);
                self.allow[q / 2] = true;
                j += jstep;
                p = self.endp_at(b, j - trick as isize) ^ trick;
                self.allow[p / 2] = true;
                j += jstep;
            }
            let bv = self.child_at(b, j);
            let x = self.ends[p ^ 1];
            self.label[x] = 2;
            self.label[bv] = 2;
            self.labelend[x] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NONE;
            j += jstep;
            while self.child_at(b, j) != entry {
                let bv = self.child_at(b, j);
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                leaves.clear();
                push_leaves(&self.childs, self.n, bv, &mut leaves);
                if let Some(&v) = leaves.iter().find(|&&v| self.label[v] != 0) {
                    self.label[v] = 0;
                    let mp = self.mate[self.base[bv]];
                    if mp == NONE {
                        self.broken = true;
                        break;
                    }
                    self.label[self.ends[mp]] = 0;
                    self.assign_label(v, 2, self.labelend[v]);
                }
                j += jstep;
            }
        }
        self.scratch = leaves;
        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.childs[b].clear();
        self.endps[b].clear();
        self.base[b] = NONE;
        self.bestedges[b].clear();
        self.bestedge[b] = NONE;
        self.unused.push(b);
        if let Ok(at) = self.live.binary_search(&b) {
            self.live.remove(at);
        }
    }

    /// Swaps matched and unmatched edges on the even path from vertex `v`
    /// to the base of blossom `b`, making `v` the new base.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.parent[t] != b {
            t = self.parent[t];
            if t == NONE {
                self.broken = true;
                return;
            }
        }
        if t >= self.n {
            self.augment_blossom(t, v);
        }
        let Some(i) = self.childs[b].iter().position(|&c| c == t) else {
            self.broken = true;
            return;
        };
        let len = self.childs[b].len() as isize;
        let mut j = i as isize;
        let (jstep, trick) = if i & 1 != 0 {
            j -= len;
            (1isize, 0usize)
        } else {
            (-1isize, 1usize)
        };
        while j != 0 {
            j += jstep;
            let t = self.child_at(b, j);
            let p = self.endp_at(b, j - trick as isize) ^ trick;
            if t >= self.n {
                self.augment_blossom(t, self.ends[p]);
            }
            j += jstep;
            let t = self.child_at(b, j);
            if t >= self.n {
                self.augment_blossom(t, self.ends[p ^ 1]);
            }
            self.mate[self.ends[p]] = p ^ 1;
            self.mate[self.ends[p ^ 1]] = p;
        }
        self.childs[b].rotate_left(i);
        self.endps[b].rotate_left(i);
        self.base[b] = self.base[self.childs[b][0]];
    }

    /// Augments along the path through edge `k` between two S trees.
    fn augment_matching(&mut self, k: usize) {
        for (s, p) in [(self.ends[2 * k], 2 * k + 1), (self.ends[2 * k + 1], 2 * k)] {
            let (mut s, mut p) = (s, p);
            loop {
                let bs = self.inblossom[s];
                if bs >= self.n {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.ends[self.labelend[bs]];
                let bt = self.inblossom[t];
                let le = self.labelend[bt];
                if le == NONE {
                    self.broken = true;
                    return;
                }
                s = self.ends[le];
                let j = self.ends[le ^ 1];
                if bt >= self.n {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = le;
                p = le ^ 1;
            }
        }
    }

    /// Scans S vertex `v`'s edges. Returns true after an augmentation.
    fn scan_vertex(&mut self, v: usize) -> bool {
        for i in self.adj_start[v]..self.adj_start[v + 1] {
            let p = self.adj[i];
            let k = p / 2;
            let w = self.ends[p];
            if self.inblossom[v] == self.inblossom[w] {
                continue;
            }
            let mut kslack = 0;
            if !self.allow[k] {
                kslack = self.slack(k);
                if kslack <= 0 {
                    self.allow[k] = true;
                }
            }
            let bw = self.inblossom[w];
            if self.allow[k] {
                if self.label[bw] == 0 {
                    self.assign_label(w, 2, p ^ 1);
                } else if self.label[bw] == 1 {
                    let base = self.scan_blossom(v, w);
                    if base != NONE {
                        self.add_blossom(base, k);
                    } else {
                        self.augment_matching(k);
                        return true;
                    }
                } else if self.label[w] == 0 {
                    self.label[w] = 2;
                    self.labelend[w] = p ^ 1;
                }
            } else if self.label[bw] == 1 {
                let b = self.inblossom[v];
                if self.bestedge[b] == NONE || kslack < self.slack(self.bestedge[b]) {
                    self.bestedge[b] = k;
                }
            } else if self.label[w] == 0
                && (self.bestedge[w] == NONE || kslack < self.slack(self.bestedge[w]))
            {
                self.bestedge[w] = k;
            }
            if self.broken {
                return false;
            }
        }
        false
    }

    fn maximise(&mut self) {
        let n = self.n;
        // Every dual step makes progress; this bound only stops a solver
        // bug from spinning.
        let mut budget = 64 * (n + 1) * (n + 1) + 16 * self.weight.len();
        for _stage in 0..n {
            self.effort.stages += 1;
            self.label.fill(0);
            self.bestedge.fill(NONE);
            for &b in &self.live {
                self.bestedges[b].clear();
            }
            self.allow.fill(false);
            self.queue.clear();
            for v in 0..n {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }
            let mut augmented = false;
            loop {
                while let Some(v) = self.queue.pop() {
                    if self.scan_vertex(v) {
                        augmented = true;
                        break;
                    }
                    if self.broken {
                        return;
                    }
                }
                if augmented || self.broken {
                    break;
                }
                if budget == 0 {
                    self.broken = true;
                    return;
                }
                budget -= 1;
                self.effort.dual_steps += 1;
                if !self.dual_step() {
                    break;
                }
            }
            if !augmented || self.broken {
                return;
            }
            // Top-level blossoms are disjoint, so expanding one leaves the
            // others' conditions as they were.
            let ended: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|&b| self.parent[b] == NONE && self.label[b] == 1 && self.dual[b] == 0)
                .collect();
            for b in ended {
                self.expand_blossom(b, true);
            }
        }
    }

    /// One dual adjustment. Returns false when no dual change can create a
    /// tight edge: the matching has maximum cardinality on this edge set.
    ///
    /// The candidates are weighed in a fixed order (free vertices' edges,
    /// then S–S edges from vertices and from blossoms, then T blossoms'
    /// duals), and a later one wins only when strictly smaller.
    fn dual_step(&mut self) -> bool {
        let n = self.n;
        let (mut free, mut s_s) = ((i64::MAX, NONE), (i64::MAX, NONE));
        for v in 0..n {
            let e = self.bestedge[v];
            if e == NONE {
                continue;
            }
            if self.label[self.inblossom[v]] == 0 {
                let d = self.slack(e);
                if d < free.0 {
                    free = (d, e);
                }
            }
            if self.parent[v] == NONE && self.label[v] == 1 {
                let d = self.slack(e) / 2;
                if d < s_s.0 {
                    s_s = (d, e);
                }
            }
        }
        let mut expand = (i64::MAX, NONE);
        for &b in &self.live {
            if self.parent[b] != NONE {
                continue;
            }
            let e = self.bestedge[b];
            if self.label[b] == 1 && e != NONE {
                let d = self.slack(e) / 2;
                if d < s_s.0 {
                    s_s = (d, e);
                }
            } else if self.label[b] == 2 && self.dual[b] < expand.0 {
                expand = (self.dual[b], b);
            }
        }
        let (mut delta, mut kind, mut edge, mut blossom) = (i64::MAX, 0, NONE, NONE);
        if free.0 < delta {
            (delta, kind, edge) = (free.0, 2, free.1);
        }
        if s_s.0 < delta {
            (delta, kind, edge) = (s_s.0, 3, s_s.1);
        }
        if expand.0 < delta {
            (delta, kind, blossom) = (expand.0, 4, expand.1);
        }
        if kind == 0 {
            return false;
        }
        for v in 0..n {
            match self.label[self.inblossom[v]] {
                1 => self.dual[v] -= delta,
                2 => self.dual[v] += delta,
                _ => {}
            }
        }
        for &b in &self.live {
            if self.parent[b] == NONE {
                match self.label[b] {
                    1 => self.dual[b] += delta,
                    2 => self.dual[b] -= delta,
                    _ => {}
                }
            }
        }
        match kind {
            2 => {
                self.allow[edge] = true;
                let (i, j) = (self.ends[2 * edge], self.ends[2 * edge + 1]);
                let s = if self.label[self.inblossom[i]] == 0 {
                    j
                } else {
                    i
                };
                self.queue.push(s);
            }
            3 => {
                self.allow[edge] = true;
                self.queue.push(self.ends[2 * edge]);
            }
            4 => self.expand_blossom(blossom, false),
            _ => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_points(n: usize, seed: u64, side: f64) -> Vec<(f64, f64)> {
        let mut s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| (next() * side, next() * side)).collect()
    }

    /// Solves `m` on its k-NN pairs, repairing until the duals are
    /// feasible, and returns the final solution with its verdict.
    fn solved(m: &DistMatrix) -> (Vec<usize>, Dual, Verdict) {
        let w = Weights::new(m);
        let mut pairs = knn_pairs(m, K);
        loop {
            let (mates, dual) =
                solve_sparse(&w, &pairs, &mut Effort::default()).expect("solver guard tripped");
            match check(&w, &mates, &dual) {
                Verdict::Violated(extra) => {
                    pairs.extend(extra);
                    pairs.sort_unstable();
                    pairs.dedup();
                }
                v => return (mates, dual, v),
            }
        }
    }

    #[test]
    fn swapped_pairs_are_rejected() {
        let m = DistMatrix::from_euclidean(&lcg_points(40, 3, 1000.0));
        let (mut mates, dual, verdict) = solved(&m);
        assert_eq!(verdict, Verdict::Unique);
        // Re-pair (a, b), (c, d) as (a, c), (b, d): still perfect, but not
        // optimal, so some matched pair is not tight.
        let a = 0;
        let b = mates[a];
        let c = (0..40).find(|&x| x != a && x != b).unwrap();
        let d = mates[c];
        mates[a] = c;
        mates[c] = a;
        mates[b] = d;
        mates[d] = b;
        assert_ne!(check(&Weights::new(&m), &mates, &dual), Verdict::Unique);
    }

    #[test]
    fn square_corners_tie_is_rejected() {
        // Two optimal matchings (both pairs of parallel sides).
        let mut pts = vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        // Pad with far-away pairs so the sparse path is exercised.
        for i in 0..8 {
            let x = 100.0 + 50.0 * i as f64;
            pts.push((x, 0.0));
            pts.push((x, 0.5));
        }
        let m = DistMatrix::from_euclidean(&pts);
        let (_, _, verdict) = solved(&m);
        assert_eq!(verdict, Verdict::Rejected);
    }

    #[test]
    fn negative_reduced_cost_off_the_knn_set_is_caught() {
        let m = DistMatrix::from_euclidean(&lcg_points(50, 7, 1000.0));
        let (mates, dual, verdict) = solved(&m);
        assert_eq!(verdict, Verdict::Unique);
        // The farthest partner of vertex 0 is never one of its k nearest
        // (nor is 0 among its). Make that pair free: with the old duals its
        // reduced cost goes negative, and it is the only pair that changed.
        let far = (1..50)
            .max_by(|&a, &b| uavdc_geom::cmp_f64(m.get(0, a), m.get(0, b)))
            .unwrap();
        assert!(!knn_pairs(&m, K).contains(&(0, far)));
        let mut cheap = m.clone();
        cheap.set(0, far, 0.0);
        assert_eq!(cheap.max_weight().to_bits(), m.max_weight().to_bits());
        assert_eq!(
            check(&Weights::new(&cheap), &mates, &dual),
            Verdict::Violated(vec![(0, far)])
        );
    }

    #[test]
    fn cycle_detection() {
        assert!(!has_cycle(3, &[(0, 1), (1, 2)]));
        assert!(has_cycle(3, &[(0, 1), (1, 0)]));
        assert!(has_cycle(2, &[(1, 1)]));
        assert!(!has_cycle(0, &[]));
    }
}
