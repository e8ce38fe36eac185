//! O(n³) primal–dual blossom algorithm for maximum-weight matching,
//! specialised here to *minimum-weight perfect* matching on complete
//! graphs.
//!
//! The implementation follows the classic O(n³) multiple-tree primal–dual
//! scheme (Galil's presentation): maintain dual labels on vertices and
//! blossoms, grow alternating forests from free vertices, shrink odd
//! cycles into blossoms, expand blossoms whose dual reaches zero, and
//! adjust duals by the minimum slack. Weights are scaled to integers so
//! the `/2` dual arithmetic stays exact.
//!
//! Minimum-weight perfect matching is obtained by running maximum-weight
//! matching on transformed weights `w'(u,v) = C - w(u,v)` with
//! `C > max w`: every transformed weight is strictly positive, so on a
//! complete graph with an even vertex count the maximum matching is
//! perfect, and maximising `Σ(C - w)` minimises `Σw`.
//!
//! Correctness is established in the parent module's tests by comparison
//! against exact bitmask DP over thousands of random instances.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertex, node and edge ids it created itself; `matching_fuzz` checks it against a brute-force oracle"
)]

use super::Matching;
use crate::DistMatrix;
use std::collections::VecDeque;

const INF: i64 = i64::MAX / 4;

/// Entry point: minimum-weight perfect matching via blossom.
///
/// # Panics
/// Panics when `m.len()` is odd (checked by the caller as well).
pub fn min_weight_perfect_matching_blossom(m: &DistMatrix) -> Matching {
    let n = m.len();
    assert!(n.is_multiple_of(2));
    if n == 0 {
        return Matching {
            mates: Vec::new(),
            weight: 0.0,
        };
    }
    // Scale distances to integers: up to ~2^30 of resolution.
    let dmax = m.max_weight();
    let scale = if dmax > 0.0 {
        (1u64 << 30) as f64 / dmax
    } else {
        1.0
    };
    let to_int = |d: f64| -> i64 { (d * scale).round() as i64 };
    let c = to_int(dmax) + 1;
    let mut solver = Solver::new(n);
    for u in 1..=n {
        for v in 1..=n {
            if u != v {
                // Strictly positive transformed weight.
                let w = c - to_int(m.get(u - 1, v - 1)) + 1;
                solver.set_weight(u, v, w);
            }
        }
    }
    let mates1 = solver.solve();
    let mut mates = vec![usize::MAX; n];
    for u in 1..=n {
        assert!(
            mates1[u] != 0,
            "blossom failed to produce a perfect matching"
        );
        mates[u - 1] = mates1[u] - 1;
    }
    let weight = mates
        .iter()
        .enumerate()
        .filter(|&(v, &p)| v < p)
        .map(|(v, &p)| m.get(v, p))
        .sum();
    Matching { mates, weight }
}

/// The solver state. All arrays are 1-indexed like the classical
/// presentation; index 0 is a sentinel meaning "none". Vertices are
/// `1..=n`; blossoms get ids `n+1..=2n`.
struct Solver {
    n: usize,
    n_x: usize,
    dim: usize,
    /// Edge store: for pair (u,v) of *node ids* (vertex or blossom), the
    /// underlying real-vertex edge (eu, ev) and weight w. Flattened dim².
    eu: Vec<u32>,
    ev: Vec<u32>,
    ew: Vec<i64>,
    lab: Vec<i64>,
    mate: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    /// flower_from[b * (n+1) + x]: which sub-blossom of b contains real
    /// vertex x.
    flower_from: Vec<usize>,
    s: Vec<i8>,
    vis: Vec<usize>,
    vis_t: usize,
    flower: Vec<Vec<usize>>,
    q: VecDeque<usize>,
}

impl Solver {
    fn new(n: usize) -> Self {
        let dim = 2 * n + 1;
        Solver {
            n,
            n_x: n,
            dim,
            eu: vec![0; dim * dim],
            ev: vec![0; dim * dim],
            ew: vec![0; dim * dim],
            lab: vec![0; dim],
            mate: vec![0; dim],
            slack: vec![0; dim],
            st: vec![0; dim],
            pa: vec![0; dim],
            flower_from: vec![0; dim * (n + 1)],
            s: vec![-1; dim],
            vis: vec![0; dim],
            vis_t: 0,
            flower: vec![Vec::new(); dim],
            q: VecDeque::new(),
        }
    }

    #[inline]
    fn idx(&self, u: usize, v: usize) -> usize {
        u * self.dim + v
    }

    fn set_weight(&mut self, u: usize, v: usize, w: i64) {
        let i = self.idx(u, v);
        self.eu[i] = u as u32;
        self.ev[i] = v as u32;
        self.ew[i] = w;
    }

    #[inline]
    fn e_delta(&self, u: usize, v: usize) -> i64 {
        let i = self.idx(u, v);
        self.lab[self.eu[i] as usize] + self.lab[self.ev[i] as usize] - self.ew[i] * 2
    }

    #[inline]
    fn ff(&self, b: usize, x: usize) -> usize {
        self.flower_from[b * (self.n + 1) + x]
    }

    #[inline]
    fn set_ff(&mut self, b: usize, x: usize, val: usize) {
        self.flower_from[b * (self.n + 1) + x] = val;
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0 || self.e_delta(u, x) < self.e_delta(self.slack[x], x) {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.ew[self.idx(u, x)] > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            for i in 0..self.flower[x].len() {
                let f = self.flower[x][i];
                self.q_push(f);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            for i in 0..self.flower[x].len() {
                let f = self.flower[x][i];
                self.set_st(f, b);
            }
        }
    }

    /// Position of sub-blossom `xr` within blossom `b`'s cycle, with the
    /// cycle re-oriented so the position is even (so the alternating path
    /// inside the blossom pairs up correctly).
    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "blossom structure invariant — callers pass a sub-blossom of b"
        )]
        let pr = self.flower[b]
            .iter()
            .position(|&f| f == xr)
            .expect("xr must be in flower");
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        let i = self.idx(u, v);
        self.mate[u] = self.ev[i] as usize;
        if u > self.n {
            let eu = self.eu[i] as usize;
            let xr = self.ff(u, eu);
            let pr = self.get_pr(u, xr);
            for k in 0..pr {
                let a = self.flower[u][k];
                let b = self.flower[u][k ^ 1];
                self.set_match(a, b);
            }
            self.set_match(xr, v);
            self.flower[u].rotate_left(pr);
        }
    }

    fn augment(&mut self, u: usize, v: usize) {
        let mut u = u;
        let mut v = v;
        loop {
            let xnv = self.st[self.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pa_xnv = self.pa[xnv];
            let next_u = self.st[pa_xnv];
            self.set_match(xnv, next_u);
            v = xnv;
            u = next_u;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_t += 1;
        let t = self.vis_t;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.st[self.mate[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        // Walk u-side up to the lca.
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        // Walk v-side up to the lca.
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.mate[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            let i = self.idx(b, x);
            let j = self.idx(x, b);
            self.ew[i] = 0;
            self.ew[j] = 0;
        }
        for x in 1..=self.n {
            self.set_ff(b, x, 0);
        }
        for k in 0..self.flower[b].len() {
            let xs = self.flower[b][k];
            for x in 1..=self.n_x {
                let bx = self.idx(b, x);
                if self.ew[bx] == 0 || self.e_delta(xs, x) < self.e_delta(b, x) {
                    let sx = self.idx(xs, x);
                    let xs_rev = self.idx(x, xs);
                    let xb = self.idx(x, b);
                    self.eu[bx] = self.eu[sx];
                    self.ev[bx] = self.ev[sx];
                    self.ew[bx] = self.ew[sx];
                    self.eu[xb] = self.eu[xs_rev];
                    self.ev[xb] = self.ev[xs_rev];
                    self.ew[xb] = self.ew[xs_rev];
                }
            }
            for x in 1..=self.n {
                if xs <= self.n {
                    if xs == x {
                        self.set_ff(b, x, xs);
                    }
                } else if self.ff(xs, x) != 0 {
                    self.set_ff(b, x, xs);
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        for i in 0..self.flower[b].len() {
            let f = self.flower[b][i];
            self.set_st(f, f);
        }
        let pa_b = self.pa[b];
        let eu_pa = self.eu[self.idx(b, pa_b)] as usize;
        let xr = self.ff(b, eu_pa);
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.eu[self.idx(xns, xs)] as usize;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in (pr + 1)..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    /// Processes a tight edge found between trees/vertices. Returns true
    /// when an augmenting path was applied.
    fn on_found_edge(&mut self, eu: usize, ev: usize) -> bool {
        let u = self.st[eu];
        let v = self.st[ev];
        if self.s[v] == -1 {
            self.pa[v] = eu;
            self.s[v] = 1;
            let nu = self.st[self.mate[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grow forests until an augmentation happens (true) or the
    /// duals prove no further augmentation exists (false).
    fn matching_phase(&mut self) -> bool {
        for x in 1..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.mate[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.q.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.q.pop_front() {
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.ew[self.idx(u, v)] > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(u, v) == 0 {
                            if self.on_found_edge(u, v) {
                                return true;
                            }
                        } else {
                            let stv = self.st[v];
                            self.update_slack(u, stv);
                        }
                    }
                }
            }
            // Dual adjustment.
            let mut d = INF;
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(self.slack[x], x);
                    if self.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return false;
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b {
                    match self.s[b] {
                        0 => self.lab[b] += d * 2,
                        1 => self.lab[b] -= d * 2,
                        _ => {}
                    }
                }
            }
            self.q.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(self.slack[x], x) == 0
                {
                    let (eu, ev) = (self.slack[x], x);
                    let i = self.idx(eu, ev);
                    let (reu, rev) = (self.eu[i] as usize, self.ev[i] as usize);
                    if self.on_found_edge(reu, rev) {
                        return true;
                    }
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    /// Runs the full algorithm and returns the 1-indexed mate array.
    fn solve(&mut self) -> Vec<usize> {
        for u in 0..=self.n {
            self.st[u] = u;
            self.flower[u].clear();
        }
        let mut w_max = 0;
        for u in 1..=self.n {
            for v in 1..=self.n {
                if u == v {
                    self.set_ff(u, v, u);
                } else {
                    self.set_ff(u, v, 0);
                }
                w_max = w_max.max(self.ew[self.idx(u, v)]);
            }
        }
        for u in 1..=self.n {
            self.lab[u] = w_max;
        }
        while self.matching_phase() {}
        self.mate[..=self.n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_vertex_instance() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 1.0)]);
        let r = min_weight_perfect_matching_blossom(&m);
        assert_eq!(r.mates, vec![1, 0]);
    }

    #[test]
    fn blossom_forcing_instance() {
        // A 5-cycle with one pendant forces blossom shrinking in the
        // search. Build 6 points where an odd cycle of tight edges forms.
        let pts = [
            (0.0, 0.0),
            (2.0, 0.0),
            (3.0, 1.8),
            (1.0, 3.0),
            (-1.0, 1.8),
            (10.0, 0.0),
        ];
        let m = DistMatrix::from_euclidean(&pts);
        let r = min_weight_perfect_matching_blossom(&m);
        assert!(r.is_perfect());
        // Compare with DP ground truth computed by hand enumeration: use
        // crate-internal DP via public API in parent tests; here just
        // sanity-bound the weight (3 edges, each <= 10.3).
        assert!(r.weight > 0.0 && r.weight < 31.0);
    }

    #[test]
    fn equal_weights_degenerate() {
        // All pairwise distances equal: any perfect matching is optimal.
        let mut m = DistMatrix::zeros(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                m.set(i, j, 5.0);
            }
        }
        let r = min_weight_perfect_matching_blossom(&m);
        assert!(r.is_perfect());
        assert!((r.weight - 15.0).abs() < 1e-9);
    }

    #[test]
    fn coincident_points_zero_weight() {
        let m = DistMatrix::from_euclidean(&[(1.0, 1.0); 4]);
        let r = min_weight_perfect_matching_blossom(&m);
        assert!(r.is_perfect());
        assert_eq!(r.weight, 0.0);
    }
}
