//! Incremental Christofides tour maintenance (DESIGN.md §15).
//!
//! The paper's Algorithm 2 grows its hovering-stop set one candidate at a
//! time; re-running Christofides from scratch after every acceptance costs
//! `O(n³)` in the blossom matching alone. [`IncrementalTour`] maintains a
//! closed tour (depot fixed at stop id 0) *incrementally* under
//! single-stop insertion and removal:
//!
//! * **Patching** — cheapest-insertion splices ([`IncrementalTour::insert`]),
//!   removal splices ([`IncrementalTour::remove`]) and Or-opt / 2-opt local
//!   repair ([`IncrementalTour::or_opt_pass`],
//!   [`IncrementalTour::two_opt_compact`]) adjust the tour in `O(n)`–`O(n²)`
//!   per patch without touching the matching.
//! * **Cached structures** — every pairwise distance ever needed is kept in
//!   a growable triangular matrix. Each cached entry is the pure function
//!   value `((dx·dx + dy·dy)).sqrt()` of the two stop coordinates — exactly
//!   what `Point2::distance` computes — so a cached read is bit-identical
//!   to a fresh evaluation. This is the keystone of the patched ≡ rebuilt
//!   equivalence argument: rebuilds that consume the cache produce the same
//!   bits as rebuilds that recompute.
//! * **Re-tour with matching reuse** — a full Christofides rebuild
//!   ([`IncrementalTour::retour`]) drives the standard pipeline
//!   ([`crate::mst::prim_mst`] → odd vertices → perfect matching → Euler
//!   circuit → shortcut → 2-opt polish) over the cached matrix, memoising
//!   the odd-vertex perfect matching keyed by the odd stop-id list:
//!   rebuilds whose odd sets coincide skip the `O(n³)` matching entirely.
//!   Speculative scoring ([`IncrementalTour::speculative_order`]) rebuilds
//!   with one extra phantom stop — Algorithm 2's per-candidate `TSP(S ∪
//!   {s})` — sharing the same matrix cache and matching memo.
//!
//! The tour never rebuilds on its own: patches only patch, and the caller
//! decides when to compact or call [`IncrementalTour::retour`].
//!
//! Because rebuilds read only cached (≡ recomputed) distances and run the
//! deterministic pipeline, a patched-then-rebuilt tour is bit-identical —
//! same stop order, same length — to a from-scratch Christofides over the
//! same stop set. `tests/incremental_props.rs` drives randomized
//! insert/remove sequences through both paths and asserts exactly that.
//!
//! The module also hosts the two branch-predictable batch kernels the lazy
//! engine of `uavdc-core::alg2` uses to make its (operation-count-frozen)
//! rescans cheap: [`distances_to_point`] and [`InsertionKernel`]. Both are
//! specified — and property-tested — to be bit-identical per lane to their
//! scalar `Point2` counterparts.

use std::collections::BTreeMap;

use crate::christofides::{christofides_with, ChristofidesConfig};
use crate::euler::{euler_circuit, shortcut_circuit};
use crate::improve::{or_opt, two_opt, two_opt_by};
use crate::matching::min_weight_perfect_matching_with;
use crate::mst::{odd_degree_vertices, prim_mst};
use crate::{DistMatrix, Tour};
use uavdc_obs::Recorder;

/// Deterministic counters of incremental-tour maintenance work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TourCounters {
    /// Incremental patches applied: insertion splices, removal splices,
    /// Or-opt relocations and 2-opt compactions that changed the tour.
    pub tour_patches: u64,
    /// Full Christofides rebuilds, including speculative scoring runs and
    /// trivial `n <= 3` identity rebuilds.
    pub full_retours: u64,
}

/// A closed tour over appendable stops with cached distances, patch-based
/// maintenance and memoised Christofides rebuilds. See the module docs.
///
/// Stop id 0 is the depot: it is created by [`IncrementalTour::new`],
/// always stays in the tour, and every produced order starts with it.
#[derive(Clone, Debug)]
pub struct IncrementalTour {
    /// Stop coordinates by id (structure-of-arrays for the kernels).
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Is the stop currently part of the tour?
    in_tour: Vec<bool>,
    /// Lower-triangular pairwise distances: entry `(i, j)` with `i > j`
    /// lives at `i*(i-1)/2 + j`. Grown by one row per appended stop.
    dist: Vec<f64>,
    /// Tour as stop ids; `order[0] == 0`.
    order: Vec<usize>,
    /// `edge_len[k]` = distance between `order[k]` and
    /// `order[(k+1) % len]`; empty while the tour has fewer than 2 stops.
    edge_len: Vec<f64>,
    counters: TourCounters,
    config: ChristofidesConfig,
    /// Odd stop-id list → perfect-matching pairs (odd-list index space).
    matching_memo: BTreeMap<Vec<usize>, Vec<(usize, usize)>>,
}

impl IncrementalTour {
    /// A depot-only tour. The depot becomes stop id 0.
    pub fn new(depot: (f64, f64)) -> Self {
        IncrementalTour {
            xs: vec![depot.0],
            ys: vec![depot.1],
            in_tour: vec![true],
            dist: Vec::new(),
            order: vec![0],
            edge_len: Vec::new(),
            counters: TourCounters::default(),
            config: ChristofidesConfig::default(),
            matching_memo: BTreeMap::new(),
        }
    }

    /// Number of stops currently in the tour.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when only the depot remains (the tour is never fully empty).
    pub fn is_empty(&self) -> bool {
        self.order.len() <= 1
    }

    /// The current tour as stop ids, depot first.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Cached closing-edge-inclusive edge lengths, `edge_lengths()[k]`
    /// spanning `order()[k] → order()[(k+1) % len]`. Empty below 2 stops.
    pub fn edge_costs(&self) -> &[f64] {
        &self.edge_len
    }

    /// Coordinates of stop `id`.
    pub fn point(&self, id: usize) -> (f64, f64) {
        (self.xs[id], self.ys[id])
    }

    /// Is stop `id` currently part of the tour?
    pub fn contains(&self, id: usize) -> bool {
        self.in_tour[id]
    }

    /// Maintenance-work counters accumulated so far.
    pub fn counters(&self) -> TourCounters {
        self.counters
    }

    /// Cached distance between stops `i` and `j` (0 when `i == j`).
    /// Bit-identical to recomputing `Point2::distance` on their
    /// coordinates: the cache stores exactly that value.
    pub fn cost(&self, i: usize, j: usize) -> f64 {
        tri_cost(&self.dist, i, j)
    }

    /// Length of the current closed tour: the left-to-right sum of the
    /// cached edge lengths, matching `uavdc_geom::tour_length`'s
    /// summation order bit for bit.
    pub fn total_cost(&self) -> f64 {
        self.edge_len.iter().sum()
    }

    /// Allocates a stop id for `p` and fills its distance row (one fused
    /// multiply-sqrt per existing stop), without splicing it into the
    /// tour. Pair with [`IncrementalTour::insert_id_at`].
    pub fn append_point(&mut self, p: (f64, f64)) -> usize {
        let id = self.xs.len();
        self.dist.reserve(id);
        for k in 0..id {
            let dx = self.xs[k] - p.0;
            let dy = self.ys[k] - p.1;
            self.dist.push((dx * dx + dy * dy).sqrt());
        }
        self.xs.push(p.0);
        self.ys.push(p.1);
        self.in_tour.push(false);
        id
    }

    /// Cheapest insertion of appended stop `id` into the current tour,
    /// as `(delta, pos)` with `pos >= 1` (`pos == len()` uses the closing
    /// edge). First-strict argmin over edges in tour order — the same
    /// scan, on the same cached operands, as a fresh
    /// `cheapest_insertion_point` over the tour's points.
    pub fn cheapest_insertion_of(&self, id: usize) -> (f64, usize) {
        let n = self.order.len();
        match n {
            0 => (0.0, 1),
            1 => (2.0 * self.cost(self.order[0], id), 1),
            _ => {
                let mut best = f64::INFINITY;
                let mut pos = 1;
                for i in 0..n {
                    let a = self.order[i];
                    let delta = self.cost(a, id) + self.cost(id, self.order[(i + 1) % n])
                        - self.edge_len[i];
                    if delta < best {
                        best = delta;
                        pos = i + 1;
                    }
                }
                (best, pos)
            }
        }
    }

    /// Splices appended stop `id` into the tour at position `pos`
    /// (`1 <= pos <= len()`), patching the two affected edges from the
    /// cache. Counts one patch.
    pub fn insert_id_at(&mut self, id: usize, pos: usize) {
        assert!(!self.in_tour[id], "stop {id} is already in the tour");
        let n = self.order.len();
        assert!(
            pos >= 1 && pos <= n,
            "insertion position {pos} out of 1..={n}"
        );
        self.order.insert(pos, id);
        self.in_tour[id] = true;
        if n == 1 {
            let d = self.cost(self.order[0], id);
            self.edge_len = vec![d, d];
        } else {
            let m = n + 1;
            self.edge_len[pos - 1] = self.cost(self.order[pos - 1], id);
            self.edge_len
                .insert(pos, self.cost(id, self.order[(pos + 1) % m]));
        }
        self.counters.tour_patches += 1;
    }

    /// Appends `p` and splices it at its cheapest-insertion position.
    /// Returns the new stop id.
    pub fn insert(&mut self, p: (f64, f64)) -> usize {
        let id = self.append_point(p);
        let (_, pos) = self.cheapest_insertion_of(id);
        self.insert_id_at(id, pos);
        id
    }

    /// Removes stop `id` (never the depot) from the tour, patching the
    /// surrounding edges from the cache. The id and its distance row stay
    /// allocated, so the stop can be re-inserted later. Counts one patch.
    pub fn remove(&mut self, id: usize) {
        assert!(id != 0, "the depot cannot be removed");
        assert!(self.in_tour[id], "stop {id} is not in the tour");
        // The depot occupies position 0, so `id` sits at some pos >= 1.
        let pos = self.order.iter().position(|&s| s == id).unwrap_or_default();
        self.order.remove(pos);
        self.in_tour[id] = false;
        let n = self.order.len();
        if n <= 1 {
            self.edge_len.clear();
        } else {
            self.edge_len.remove(pos);
            self.edge_len[pos - 1] = self.cost(self.order[pos - 1], self.order[pos % n]);
        }
        self.counters.tour_patches += 1;
    }

    /// 2-opt compaction over the cached matrix: the shared kernel
    /// ([`two_opt_by`]) at the planners' 100-sweep cap, with every
    /// distance read from the cache. Returns `Some(perm)` — `perm[k]` is
    /// the previous position of the stop now at `k` — when the tour
    /// changed (counted as one patch), `None` otherwise.
    pub fn two_opt_compact(&mut self) -> Option<Vec<usize>> {
        let mut perm: Vec<usize> = (0..self.order.len()).collect();
        let dist = &self.dist;
        let moves = two_opt_by(
            &mut self.order,
            |i, j| tri_cost(dist, i, j),
            100,
            |lo, hi| perm[lo..=hi].reverse(),
        )
        .moves;
        if moves == 0 {
            return None;
        }
        self.rebuild_edges();
        self.counters.tour_patches += 1;
        Some(perm)
    }

    /// One Or-opt pass (segment relocation, lengths 1–3) over the cached
    /// matrix, re-anchoring the depot afterwards. Returns `Some(perm)`
    /// when the tour changed (counted as one patch), `None` otherwise.
    pub fn or_opt_pass(&mut self) -> Option<Vec<usize>> {
        let n = self.order.len();
        if n < 4 {
            return None;
        }
        let m = DistMatrix::from_fn(n, |i, j| self.cost(self.order[i], self.order[j]));
        let mut tour = Tour::new((0..n).collect());
        let saved = or_opt(&mut tour, &m);
        if saved <= 0.0 {
            return None;
        }
        tour.rotate_to_start(0);
        let perm = tour.order().to_vec();
        self.order = perm.iter().map(|&k| self.order[k]).collect();
        self.rebuild_edges();
        self.counters.tour_patches += 1;
        Some(perm)
    }

    /// Full Christofides rebuild over the current stops, through the
    /// cached matrix and the odd-vertex matching memo. Applies the result
    /// and returns the permutation (`perm[k]` = previous position of the
    /// stop now at position `k`). Bit-identical to a from-scratch
    /// Christofides over the same points: the matrix entries are pure
    /// recomputations and the pipeline is deterministic, memo hits
    /// included (`tests/incremental_props.rs` proves this per seed).
    pub fn retour(&mut self) -> Vec<usize> {
        self.counters.full_retours += 1;
        let n = self.order.len();
        if n <= 3 {
            return (0..n).collect();
        }
        let m = DistMatrix::from_fn(n, |i, j| self.cost(self.order[i], self.order[j]));
        let ids: Vec<Option<usize>> = self.order.iter().map(|&id| Some(id)).collect();
        let perm = christofides_order_cached(
            &m,
            &ids,
            &mut self.matching_memo,
            &self.config,
            &uavdc_obs::NOOP,
        );
        self.order = perm.iter().map(|&k| self.order[k]).collect();
        self.rebuild_edges();
        perm
    }

    /// Speculative Christofides order for the tour plus one phantom stop
    /// at `p` — Algorithm 2's `TSP(S ∪ {s})` scoring — without modifying
    /// the tour. The returned permutation is over positions `0..len()+1`
    /// where position `len()` is the phantom stop; it is bit-identical to
    /// a from-scratch Christofides over the same point sequence. The base
    /// distance block comes from the cache and the odd-vertex matching
    /// memo is consulted whenever the odd set avoids the phantom stop.
    /// The Christofides call statistics (`christofides.*`) go to `rec`.
    pub fn speculative_order(&mut self, p: (f64, f64), rec: &dyn Recorder) -> Vec<usize> {
        self.counters.full_retours += 1;
        let n = self.order.len();
        let n1 = n + 1;
        if n1 <= 3 {
            return (0..n1).collect();
        }
        let m = DistMatrix::from_fn(n1, |i, j| {
            if i == n || j == n {
                // A diagonal (i == j == n) read never reaches here:
                // from_fn only asks for i != j off-diagonal pairs via
                // symmetry… but guard anyway through the max/min split.
                let k = if i == n { j } else { i };
                if k == n {
                    0.0
                } else {
                    let dx = self.xs[self.order[k]] - p.0;
                    let dy = self.ys[self.order[k]] - p.1;
                    (dx * dx + dy * dy).sqrt()
                }
            } else {
                self.cost(self.order[i], self.order[j])
            }
        });
        let mut ids: Vec<Option<usize>> = self.order.iter().map(|&id| Some(id)).collect();
        ids.push(None); // the phantom stop is never memo-keyed
        christofides_order_cached(&m, &ids, &mut self.matching_memo, &self.config, rec)
    }

    /// Applies a position permutation produced by an external re-tour
    /// (e.g. Algorithm 2's PaperChristofides commit): `perm[k]` is the
    /// previous position of the stop now at position `k`. `perm[0]` must
    /// keep the depot first.
    pub fn apply_permutation(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.order.len(), "permutation length mismatch");
        assert_eq!(
            perm.first().copied(),
            Some(0),
            "depot must stay at position 0"
        );
        self.order = perm.iter().map(|&k| self.order[k]).collect();
        self.rebuild_edges();
    }

    /// Rebuilds the edge cache from the triangular matrix.
    fn rebuild_edges(&mut self) {
        let n = self.order.len();
        self.edge_len.clear();
        if n < 2 {
            return;
        }
        for k in 0..n {
            self.edge_len
                .push(self.cost(self.order[k], self.order[(k + 1) % n]));
        }
    }
}

/// Entry `(i, j)` of a lower-triangular distance store (0 when `i == j`);
/// symmetric by construction.
fn tri_cost(dist: &[f64], i: usize, j: usize) -> f64 {
    if i == j {
        return 0.0;
    }
    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
    dist[hi * (hi - 1) / 2 + lo]
}

/// Christofides order (depot-rotated position permutation) over `m`,
/// memoising the odd-vertex matching. `ids[v]` is the memo identity of
/// matrix vertex `v` (`None` = never memoise through this vertex).
fn christofides_order_cached(
    m: &DistMatrix,
    ids: &[Option<usize>],
    memo: &mut BTreeMap<Vec<usize>, Vec<(usize, usize)>>,
    cfg: &ChristofidesConfig,
    rec: &dyn Recorder,
) -> Vec<usize> {
    let n = m.len();
    debug_assert!(n >= 4, "trivial sizes are handled by the callers");
    rec.add("christofides.calls", 1);
    rec.observe("christofides.n", n as u64);
    let mst = prim_mst(m);
    let mut edges = mst.edges.clone();
    let odd = odd_degree_vertices(n, &edges);
    debug_assert_eq!(odd.len() % 2, 0);
    rec.observe("christofides.odd_vertices", odd.len() as u64);
    if !odd.is_empty() {
        let key: Option<Vec<usize>> = odd.iter().map(|&v| ids[v]).collect();
        let cached = key.as_ref().and_then(|k| memo.get(k).cloned());
        let pairs = match cached {
            Some(pairs) => pairs,
            None => {
                let sub = m.submatrix(&odd);
                let matching = min_weight_perfect_matching_with(&sub, cfg.matching, rec);
                let pairs = matching.edges();
                if let Some(k) = key {
                    memo.insert(k, pairs.clone());
                }
                pairs
            }
        };
        for &(a, b) in &pairs {
            edges.push((odd[a], odd[b]));
        }
    }
    let Some(circuit) = euler_circuit(n, &edges, 0) else {
        // Unreachable: the MST spans and the matching evens every degree,
        // so an Euler circuit exists. Route through the reference
        // implementation rather than panicking so this module needs no
        // panic sites.
        let mut tour = christofides_with(m, cfg, rec);
        tour.rotate_to_start(0);
        return tour.order().to_vec();
    };
    let order = shortcut_circuit(&circuit);
    debug_assert_eq!(order.len(), n, "shortcut must visit every vertex once");
    let mut tour = Tour::new(order);
    if cfg.polish {
        two_opt(&mut tour, m);
    }
    tour.rotate_to_start(0);
    tour.order().to_vec()
}

// ---------------------------------------------------------------------------
// Batch kernels (bit-identical per lane to their scalar counterparts)
// ---------------------------------------------------------------------------

/// Writes the Euclidean distance from `(px, py)` to every `(xs[i],
/// ys[i])` into `out` (cleared and resized to match). Each lane computes
/// `((x - px)² + (y - py)²).sqrt()` — bit-identical to `Point2::distance`
/// of the same pair in either argument order, since negating both
/// differences leaves the squares unchanged — and the loop body is
/// branch-free so it auto-vectorises.
pub fn distances_to_point(xs: &[f64], ys: &[f64], px: f64, py: f64, out: &mut Vec<f64>) {
    debug_assert_eq!(xs.len(), ys.len());
    out.clear();
    out.resize(xs.len(), 0.0);
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - px;
        let dy = y - py;
        *o = (dx * dx + dy * dy).sqrt();
    }
}

/// Cheapest-insertion scan of one satellite against a closed tour using
/// *cached* satellite→tour-point distances instead of recomputing them.
///
/// `row[id]` must hold the satellite's distance to the tour point with
/// stable id `id` (as produced by [`distances_to_point`] when that point
/// entered the tour), `order` the tour's visiting order as point ids, and
/// `edge_costs` the cached edge costs (`edge_costs[i]` spans positions
/// `i → (i+1) % n`). Because the cached distances are bit-identical to a
/// fresh recomputation, the result `(delta, pos)` is specified to be
/// bit-identical to [`InsertionKernel::run`] / the scalar
/// first-strict-argmin edge scan: same `(d(a,p) + d(p,b)) - d(a,b)`
/// association, same strict-`<` update, same position numbering.
pub fn cheapest_insertion_cached(row: &[f64], order: &[usize], edge_costs: &[f64]) -> (f64, u32) {
    let n = order.len();
    if n == 0 {
        return (0.0, 1);
    }
    if n == 1 {
        return (2.0 * row[order[0]], 1);
    }
    debug_assert_eq!(edge_costs.len(), n);
    let mut best = f64::INFINITY;
    let mut pos = 1u32;
    let mut pv = row[order[0]];
    for (i, &e) in edge_costs.iter().enumerate() {
        let nx = row[order[(i + 1) % n]];
        let delta = pv + nx - e;
        if delta < best {
            best = delta;
            pos = (i + 1) as u32;
        }
        pv = nx;
    }
    (best, pos)
}

/// Four-lane twin of [`cheapest_insertion_cached`]: scans four banked
/// rows against the same tour in lockstep. The lanes are fully
/// independent and each performs exactly the scalar scan's arithmetic,
/// comparisons and first-strict-argmin update, so every returned pair is
/// specified to be bit-identical to a scalar call on that row. The
/// interleaving exists purely to pipeline the compare chains: one
/// scalar scan is latency-bound on its `cmp → select` dependency, and
/// four independent chains fill those stalls (this is what makes a
/// rescan *batch* cheap, the same way [`InsertionKernel`] batches the
/// uncached scan).
pub fn cheapest_insertion_cached4(
    rows: [&[f64]; 4],
    order: &[usize],
    edge_costs: &[f64],
) -> [(f64, u32); 4] {
    let n = order.len();
    if n <= 1 {
        return [0, 1, 2, 3].map(|k| cheapest_insertion_cached(rows[k], order, edge_costs));
    }
    debug_assert_eq!(edge_costs.len(), n);
    let mut best = [f64::INFINITY; 4];
    let mut pos = [1u32; 4];
    let mut pv = rows.map(|r| r[order[0]]);
    for (i, &e) in edge_costs.iter().enumerate() {
        let o = order[(i + 1) % n];
        for k in 0..4 {
            let nx = rows[k][o];
            let delta = pv[k] + nx - e;
            let hit = delta < best[k];
            best[k] = if hit { delta } else { best[k] };
            pos[k] = if hit { (i + 1) as u32 } else { pos[k] };
            pv[k] = nx;
        }
    }
    [
        (best[0], pos[0]),
        (best[1], pos[1]),
        (best[2], pos[2]),
        (best[3], pos[3]),
    ]
}

/// Batched cheapest-insertion scorer: evaluates a packed set of satellite
/// points against every edge of one closed tour in a cache-friendly,
/// auto-vectorisable edge-major sweep.
///
/// Per satellite the result is specified to be bit-identical to the
/// scalar first-strict-argmin edge scan (`cheapest_insertion_point` in
/// `uavdc-core`): same `(d(a,p) + d(p,b)) - d(a,b)` association, same
/// strict-`<` update, same position numbering (`pos >= 1`, closing edge =
/// tour length), with `d(a,b)` read from the caller's cached edge
/// lengths. Scratch buffers persist across calls to avoid reallocation.
#[derive(Clone, Debug, Default)]
pub struct InsertionKernel {
    prev: Vec<f64>,
    next: Vec<f64>,
    best: Vec<f64>,
    pos: Vec<u32>,
}

impl InsertionKernel {
    /// An empty kernel (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores every satellite `(sat_xs[j], sat_ys[j])` against the closed
    /// tour given by coordinates in visiting order plus its cached edge
    /// costs (`edge_costs[i]` spans tour points `i → (i+1) % n`; required
    /// length `n` when `n >= 2`). Results are read back through
    /// [`InsertionKernel::delta`] / [`InsertionKernel::pos`].
    pub fn run(
        &mut self,
        tour_xs: &[f64],
        tour_ys: &[f64],
        edge_costs: &[f64],
        sat_xs: &[f64],
        sat_ys: &[f64],
    ) {
        let n = tour_xs.len();
        let s = sat_xs.len();
        debug_assert_eq!(tour_ys.len(), n);
        debug_assert_eq!(sat_ys.len(), s);
        self.best.clear();
        self.pos.clear();
        if n == 0 {
            self.best.resize(s, 0.0);
            self.pos.resize(s, 1);
            return;
        }
        if n == 1 {
            distances_to_point(sat_xs, sat_ys, tour_xs[0], tour_ys[0], &mut self.best);
            for b in &mut self.best {
                *b *= 2.0;
            }
            self.pos.resize(s, 1);
            return;
        }
        debug_assert_eq!(edge_costs.len(), n);
        self.best.resize(s, f64::INFINITY);
        self.pos.resize(s, 1);
        distances_to_point(sat_xs, sat_ys, tour_xs[0], tour_ys[0], &mut self.prev);
        for (i, &e) in edge_costs.iter().enumerate() {
            let bi = (i + 1) % n;
            distances_to_point(sat_xs, sat_ys, tour_xs[bi], tour_ys[bi], &mut self.next);
            let p = (i + 1) as u32;
            for ((b, q), (&pv, &nx)) in self
                .best
                .iter_mut()
                .zip(self.pos.iter_mut())
                .zip(self.prev.iter().zip(self.next.iter()))
            {
                let delta = pv + nx - e;
                if delta < *b {
                    *b = delta;
                    *q = p;
                }
            }
            std::mem::swap(&mut self.prev, &mut self.next);
        }
    }

    /// Cheapest-insertion deltas of the last [`InsertionKernel::run`].
    pub fn delta(&self) -> &[f64] {
        &self.best
    }

    /// Insertion positions of the last [`InsertionKernel::run`].
    pub fn pos(&self) -> &[u32] {
        &self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_geom::Point2;

    fn pts_of(t: &IncrementalTour) -> Vec<Point2> {
        t.order()
            .iter()
            .map(|&id| {
                let (x, y) = t.point(id);
                Point2::new(x, y)
            })
            .collect()
    }

    /// Scalar reference: cheapest insertion over a point tour.
    fn reference_cheapest(pts: &[Point2], p: Point2) -> (f64, usize) {
        match pts.len() {
            0 => (0.0, 1),
            1 => (2.0 * pts[0].distance(p), 1),
            n => {
                let mut best = f64::INFINITY;
                let mut pos = 1;
                for i in 0..n {
                    let a = pts[i];
                    let b = pts[(i + 1) % n];
                    let delta = a.distance(p) + p.distance(b) - a.distance(b);
                    if delta < best {
                        best = delta;
                        pos = i + 1;
                    }
                }
                (best, pos)
            }
        }
    }

    fn closed_len(pts: &[Point2]) -> f64 {
        uavdc_geom::tour_length(pts)
    }

    fn seeded_points(n: usize, mul: usize, add: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| (((i * mul + add) % 97) as f64, ((i * 31 + add) % 89) as f64))
            .collect()
    }

    #[test]
    fn insert_matches_scalar_reference_bitwise() {
        let mut t = IncrementalTour::new((50.0, 50.0));
        for (i, p) in seeded_points(24, 37, 13).into_iter().enumerate() {
            let before = pts_of(&t);
            let (want_d, want_pos) = reference_cheapest(&before, Point2::new(p.0, p.1));
            let id = t.append_point(p);
            let (got_d, got_pos) = t.cheapest_insertion_of(id);
            assert_eq!(got_d.to_bits(), want_d.to_bits(), "delta diverged at {i}");
            assert_eq!(got_pos, want_pos, "position diverged at {i}");
            t.insert_id_at(id, got_pos);
            let after = pts_of(&t);
            assert_eq!(t.total_cost().to_bits(), closed_len(&after).to_bits());
        }
    }

    #[test]
    fn edge_cache_stays_consistent_under_removal() {
        let mut t = IncrementalTour::new((0.0, 0.0));
        let ids: Vec<usize> = seeded_points(12, 41, 7)
            .into_iter()
            .map(|p| t.insert(p))
            .collect();
        for &id in ids.iter().step_by(3) {
            t.remove(id);
            let pts = pts_of(&t);
            assert_eq!(t.total_cost().to_bits(), closed_len(&pts).to_bits());
            assert!(!t.contains(id));
        }
        // Removed stops can come back.
        let (_, pos) = t.cheapest_insertion_of(ids[0]);
        t.insert_id_at(ids[0], pos);
        let pts = pts_of(&t);
        assert_eq!(t.total_cost().to_bits(), closed_len(&pts).to_bits());
    }

    #[test]
    fn two_opt_compact_is_the_kernel_on_point_distances() {
        let mut t = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(20, 61, 3) {
            t.insert(p);
        }
        let before = t.order().to_vec();
        let pts = pts_of(&t);
        let mut want: Vec<usize> = (0..pts.len()).collect();
        let moves = two_opt_by(&mut want, |i, j| pts[i].distance(pts[j]), 100, |_, _| {}).moves;
        assert!(moves > 0, "the seeded tour should need compaction");
        let got_perm = t.two_opt_compact();
        assert_eq!(got_perm.as_deref(), Some(want.as_slice()));
        let want_ids: Vec<usize> = want.iter().map(|&k| before[k]).collect();
        assert_eq!(
            t.order(),
            want_ids.as_slice(),
            "2-opt result order diverged"
        );
        assert_eq!(
            t.total_cost().to_bits(),
            closed_len(&pts_of(&t)).to_bits(),
            "edge cache inconsistent after 2-opt"
        );
    }

    #[test]
    fn or_opt_never_lengthens_and_keeps_depot() {
        let mut t = IncrementalTour::new((1.0, 2.0));
        for p in seeded_points(16, 53, 11) {
            t.insert(p);
        }
        let before = t.total_cost();
        let _ = t.or_opt_pass();
        assert!(t.total_cost() <= before + 1e-9);
        assert_eq!(t.order()[0], 0, "depot must stay first");
        assert_eq!(t.total_cost().to_bits(), closed_len(&pts_of(&t)).to_bits());
    }

    #[test]
    fn retour_matches_from_scratch_christofides() {
        let mut t = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(18, 29, 5) {
            t.insert(p);
        }
        let pts = pts_of(&t);
        let ids_before: Vec<usize> = t.order().to_vec();
        let perm = t.retour();
        // From-scratch reference over the same pre-retour point order.
        let m = DistMatrix::from_fn(pts.len(), |i, j| pts[i].distance(pts[j]));
        let mut tour = christofides_with(&m, &ChristofidesConfig::default(), &uavdc_obs::NOOP);
        tour.rotate_to_start(0);
        assert_eq!(perm, tour.order().to_vec(), "retour permutation diverged");
        let want_ids: Vec<usize> = tour.order().iter().map(|&k| ids_before[k]).collect();
        assert_eq!(t.order(), &want_ids[..]);
        assert_eq!(t.total_cost().to_bits(), closed_len(&pts_of(&t)).to_bits());
        assert_eq!(t.counters().full_retours, 1);
    }

    #[test]
    fn matching_memo_reuse_is_bit_identical() {
        let mut a = IncrementalTour::new((50.0, 50.0));
        let mut b = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(14, 43, 9) {
            a.insert(p);
            b.insert(p);
        }
        // Warm `a`'s memo with an identical speculative run, then compare
        // a memo-hit retour against `b`'s cold retour.
        let spec = a.speculative_order((60.0, 60.0), &uavdc_obs::NOOP);
        let spec2 = a.speculative_order((60.0, 60.0), &uavdc_obs::NOOP);
        assert_eq!(spec, spec2, "speculative scoring must be deterministic");
        let pa = a.retour();
        let pb = b.retour();
        assert_eq!(pa, pb, "memo-warm and cold retours diverged");
        assert_eq!(a.order(), b.order());
        assert_eq!(a.total_cost().to_bits(), b.total_cost().to_bits());
    }

    #[test]
    fn distances_to_point_matches_point2() {
        let pts = seeded_points(33, 59, 21);
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let q = Point2::new(17.5, 42.25);
        let mut out = Vec::new();
        distances_to_point(&xs, &ys, q.x, q.y, &mut out);
        for (i, &d) in out.iter().enumerate() {
            let want = Point2::new(xs[i], ys[i]).distance(q);
            assert_eq!(d.to_bits(), want.to_bits(), "lane {i} diverged");
        }
    }

    #[test]
    fn insertion_kernel_matches_scalar_reference() {
        for n in [0usize, 1, 2, 3, 7, 19] {
            let tour_pts: Vec<Point2> = seeded_points(n, 37, 2)
                .into_iter()
                .map(|p| Point2::new(p.0, p.1))
                .collect();
            let tour_xs: Vec<f64> = tour_pts.iter().map(|p| p.x).collect();
            let tour_ys: Vec<f64> = tour_pts.iter().map(|p| p.y).collect();
            let edge_len: Vec<f64> = if n >= 2 {
                (0..n)
                    .map(|i| tour_pts[i].distance(tour_pts[(i + 1) % n]))
                    .collect()
            } else {
                Vec::new()
            };
            let sats = seeded_points(25, 71, 5);
            let sat_xs: Vec<f64> = sats.iter().map(|p| p.0).collect();
            let sat_ys: Vec<f64> = sats.iter().map(|p| p.1).collect();
            let mut kernel = InsertionKernel::new();
            kernel.run(&tour_xs, &tour_ys, &edge_len, &sat_xs, &sat_ys);
            for (j, &(sx, sy)) in sats.iter().enumerate() {
                let (want_d, want_pos) = reference_cheapest(&tour_pts, Point2::new(sx, sy));
                assert_eq!(
                    kernel.delta()[j].to_bits(),
                    want_d.to_bits(),
                    "n={n} sat {j} delta diverged"
                );
                assert_eq!(
                    kernel.pos()[j] as usize,
                    want_pos,
                    "n={n} sat {j} pos diverged"
                );
            }
        }
    }
}
