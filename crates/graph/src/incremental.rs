//! Incremental tour maintenance for the lazy greedy loops (DESIGN.md
//! §15).
//!
//! Algorithm 2 and Algorithm 3 grow their hovering-stop set one candidate
//! at a time. [`IncrementalTour`] mirrors that closed tour (depot fixed at
//! stop id 0) under the two patches the loops make:
//!
//! * **Splice** — [`IncrementalTour::append_point`] allocates a stop id
//!   and fills its distance row; [`IncrementalTour::insert_id_at`] splices
//!   it in at a caller-chosen position, patching the two touched edges.
//! * **Compaction** — [`IncrementalTour::two_opt_compact`] runs the shared
//!   2-opt kernel over the cached distances.
//!
//! Every pairwise distance is kept in a growable triangular matrix. Each
//! entry is the pure function value `((dx·dx + dy·dy)).sqrt()` of the two
//! stop coordinates — exactly what `Point2::distance` computes — so a
//! cached read is bit-identical to a fresh evaluation, and the per-edge
//! length cache sums to the same bits as `uavdc_geom::tour_length` over
//! the current order. `tests/incremental_props.rs` drives randomized
//! splice/compaction sequences and asserts exactly that.
//!
//! The module also hosts the branch-predictable batch kernels the lazy
//! engines use to make their (operation-count-frozen) rescans cheap:
//! [`distances_to_point`], [`cheapest_insertion_cached`] and
//! [`cheapest_insertion_cached4`]. Each is specified — and
//! property-tested — to be bit-identical per lane to its scalar `Point2`
//! counterpart.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes tour slots and edge ids it built itself; `incremental_props` checks it against a recomputation"
)]

use crate::improve::two_opt_by;

/// A closed tour over appendable stops with cached distances and
/// patch-based maintenance. See the module docs.
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
    /// Patches applied: splices and 2-opt compactions that changed the
    /// tour.
    patches: u64,
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
            patches: 0,
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

    /// Cached closing-edge-inclusive edge lengths, `edge_costs()[k]`
    /// spanning `order()[k] → order()[(k+1) % len]`. Empty below 2 stops.
    pub fn edge_costs(&self) -> &[f64] {
        &self.edge_len
    }

    /// Coordinates of stop `id`.
    pub fn point(&self, id: usize) -> (f64, f64) {
        (self.xs[id], self.ys[id])
    }

    /// Patches applied so far: one per splice, plus one per 2-opt
    /// compaction that changed the tour.
    pub fn patches(&self) -> u64 {
        self.patches
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
        self.patches += 1;
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
            None,
            |lo, hi| perm[lo..=hi].reverse(),
        )
        .moves;
        if moves == 0 {
            return None;
        }
        self.rebuild_edges();
        self.patches += 1;
        Some(perm)
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
/// bit-identical to the scalar first-strict-argmin edge scan
/// (`cheapest_insertion_point` in `uavdc-core`): same
/// `(d(a,p) + d(p,b)) - d(a,b)` association, same strict-`<` update,
/// same position numbering.
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
/// rescan *batch* cheap).
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

    /// Appends `p` and splices it where the scalar reference puts it.
    fn insert_cheapest(t: &mut IncrementalTour, p: (f64, f64)) {
        let (_, pos) = reference_cheapest(&pts_of(t), Point2::new(p.0, p.1));
        let id = t.append_point(p);
        t.insert_id_at(id, pos);
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
            // The cached scan over the appended stop's distance row.
            let row: Vec<f64> = (0..id).map(|k| t.cost(k, id)).collect();
            let (got_d, got_pos) = cheapest_insertion_cached(&row, t.order(), t.edge_costs());
            assert_eq!(got_d.to_bits(), want_d.to_bits(), "delta diverged at {i}");
            assert_eq!(got_pos as usize, want_pos, "position diverged at {i}");
            t.insert_id_at(id, want_pos);
            let after = pts_of(&t);
            assert_eq!(t.total_cost().to_bits(), closed_len(&after).to_bits());
        }
        assert_eq!(t.patches(), 24);
    }

    #[test]
    fn two_opt_compact_is_the_kernel_on_point_distances() {
        let mut t = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(20, 61, 3) {
            insert_cheapest(&mut t, p);
        }
        let before = t.order().to_vec();
        let pts = pts_of(&t);
        let mut want: Vec<usize> = (0..pts.len()).collect();
        let moves = two_opt_by(
            &mut want,
            |i, j| pts[i].distance(pts[j]),
            100,
            None,
            |_, _| {},
        )
        .moves;
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
}
