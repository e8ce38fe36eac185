//! Cheapest insertion positions: a full scan per vertex, and a cache that
//! keeps every vertex's scan result current across insertions.
//!
//! A tour of length `L` has `L` cyclic edges; edge `i` joins `tour[i]` and
//! `tour[(i + 1) % L]`, and inserting on it puts the vertex at position
//! `i + 1`. [`best_insertion`] scans all edges and keeps the first strict
//! minimum, so among equal marginal costs the lowest position wins.
//!
//! [`Insertions`] stores that `(delta, pos)` for every tracked vertex.
//! Inserting `w` at position `p` removes edge `(a, b)` (position `p`) and
//! adds `(a, w)` at position `p` and `(w, b)` at `p + 1`; every other edge
//! keeps its endpoints and moves up one position if it sat above `p`. So a
//! vertex whose best edge survived needs only its position shifted and the
//! two new edges tried: O(1). The update takes a new edge when its delta
//! is strictly lower, or equal at a lower position, which is exactly the
//! scan's tie rule. A vertex whose best edge was `(a, b)` had a delta
//! below every surviving edge before `p` and no larger than any after it,
//! so a new edge whose delta is no larger than that old minimum is the new
//! minimum (the *split rule*); only otherwise is the vertex rescanned in
//! full. So [`Insertions::get`] is
//! bit-identical to a fresh [`best_insertion`] after any sequence of
//! insertions.
//!
//! Every delta is `row_v[a] + row_v[b] − d(a, b)`: the vertex's matrix row
//! read at both ends of the edge, minus the edge length, which the cache
//! keeps per tour edge. The matrix is symmetric bit for bit, so this is
//! the same sum, in the same order, as `d(a, v) + d(v, b) − d(a, b)`.

use crate::OrienteeringInstance;

/// Cyclic edge lengths of `tour`: entry `i` is `d(tour[i], tour[i + 1])`,
/// the last one closing the tour. Empty for tours under two vertices.
fn edge_lengths(inst: &OrienteeringInstance, tour: &[usize]) -> Vec<f64> {
    let n = tour.len();
    if n < 2 {
        return Vec::new();
    }
    (0..n)
        .map(|i| inst.dist(tour[i], tour[(i + 1) % n]))
        .collect()
}

/// [`best_insertion`] of the vertex whose matrix row is `row`, given the
/// tour's [`edge_lengths`].
fn scan(row: &[f64], tour: &[usize], edge: &[f64]) -> (f64, usize) {
    match tour.len() {
        0 => (0.0, 0),
        1 => (2.0 * row[tour[0]], 1),
        n => {
            let mut best = f64::INFINITY;
            let mut pos = 0;
            let mut to_a = row[tour[0]];
            for i in 0..n {
                let to_b = row[tour[if i + 1 < n { i + 1 } else { 0 }]];
                let delta = to_a + to_b - edge[i];
                if delta < best {
                    best = delta;
                    // Inserting on the closing edge appends at the end so
                    // the depot stays first.
                    pos = i + 1;
                }
                to_a = to_b;
            }
            (best, pos)
        }
    }
}

/// `cur` folded with the candidate edge `(d, p)` under the scan's tie
/// rule: strictly lower delta, or equal delta at a lower position.
#[inline]
fn fold(cur: (f64, usize), d: f64, p: usize) -> (f64, usize) {
    if d < cur.0 || (d <= cur.0 && p < cur.1) {
        (d, p)
    } else {
        cur
    }
}

/// Marginal cost of inserting `v` at its best position, and that position.
///
/// Ties go to the lowest position. When no edge has a delta below
/// infinity the result is `(f64::INFINITY, 0)`.
pub fn best_insertion(inst: &OrienteeringInstance, tour: &[usize], v: usize) -> (f64, usize) {
    scan(inst.matrix().row(v), tour, &edge_lengths(inst, tour))
}

/// Each tracked vertex's [`best_insertion`] into one tour, kept current
/// as vertices are inserted through [`Insertions::insert`].
///
/// Building costs one scan per tracked vertex, O(n·L); each insertion
/// then costs O(n) plus one scan per vertex whose best edge it destroyed
/// and the split rule could not settle. Any other change to the tour
/// (2-opt, removals) invalidates the cache: build a new one.
#[derive(Debug)]
pub struct Insertions {
    /// `(delta, pos)` per vertex; meaningful for tracked vertices only.
    best: Vec<(f64, usize)>,
    /// Tracked vertices, ascending.
    tracked: Vec<usize>,
    /// [`edge_lengths`] of the tour the cache describes.
    edge: Vec<f64>,
    rescans: u64,
}

impl Insertions {
    /// Scans `tour` for every vertex `track` accepts, in ascending order.
    pub fn new(inst: &OrienteeringInstance, tour: &[usize], track: impl Fn(usize) -> bool) -> Self {
        let mut cache = Insertions {
            best: vec![(f64::INFINITY, 0); inst.len()],
            tracked: (0..inst.len()).filter(|&v| track(v)).collect(),
            edge: Vec::new(),
            rescans: 0,
        };
        cache.scan_all(inst, tour);
        cache
    }

    /// The cached `best_insertion(inst, tour, v)` of a tracked vertex.
    #[inline]
    pub fn get(&self, v: usize) -> (f64, usize) {
        self.best[v]
    }

    /// Tracked vertices in ascending order.
    #[inline]
    pub fn tracked(&self) -> &[usize] {
        &self.tracked
    }

    /// Vertices rescanned in full because an insertion destroyed their
    /// best edge and the split rule could not settle them, since the
    /// cache was built.
    #[inline]
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Stops tracking `v` (a no-op when it is not tracked).
    pub fn untrack(&mut self, v: usize) {
        if let Ok(i) = self.tracked.binary_search(&v) {
            self.tracked.remove(i);
        }
    }

    /// Scans `tour` for every tracked vertex.
    fn scan_all(&mut self, inst: &OrienteeringInstance, tour: &[usize]) {
        self.edge = edge_lengths(inst, tour);
        for &v in &self.tracked {
            self.best[v] = scan(inst.matrix().row(v), tour, &self.edge);
        }
    }

    /// Inserts `w` into `tour` at `pos`, stops tracking it, and brings
    /// every tracked vertex's entry up to date.
    ///
    /// `tour` must be the tour the cache describes, and `pos` must keep
    /// the first vertex first: `1..=tour.len()`, or `0` on an empty tour.
    pub fn insert(
        &mut self,
        inst: &OrienteeringInstance,
        tour: &mut Vec<usize>,
        pos: usize,
        w: usize,
    ) {
        let n = tour.len();
        debug_assert!(pos <= n && (pos >= 1 || n == 0), "position {pos} of {n}");
        tour.insert(pos, w);
        self.untrack(w);
        if n < 2 {
            // A tour of at most one vertex has no edge that survives.
            self.scan_all(inst, tour);
            self.rescans += self.tracked.len() as u64;
            return;
        }
        let (a, b) = (tour[pos - 1], tour[(pos + 1) % (n + 1)]);
        let row_w = inst.matrix().row(w);
        self.edge[pos - 1] = row_w[a];
        self.edge.insert(pos, row_w[b]);
        let (aw, wb) = (self.edge[pos - 1], self.edge[pos]);
        for &u in &self.tracked {
            let row = inst.matrix().row(u);
            let (delta, at) = self.get(u);
            let (via_a, via_b) = (row[a] + row[w] - aw, row[w] + row[b] - wb);
            self.best[u] = if at != pos {
                // `(delta, at)` is the lexicographic minimum over the
                // surviving edges; fold in the two new ones the same way.
                let cur = (delta, if at > pos { at + 1 } else { at });
                fold(fold(cur, via_a, pos), via_b, pos + 1)
            } else if via_a.min(via_b) <= delta {
                // The split rule: the surviving edges below `pos` had
                // deltas above the old minimum and the others sit above
                // `pos + 1`, so a new edge no larger than it is the new
                // minimum, the lower position winning a tie.
                if via_a <= via_b {
                    (via_a, pos)
                } else {
                    (via_b, pos + 1)
                }
            } else {
                self.rescans += 1;
                scan(row, tour, &self.edge)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_graph::DistMatrix;

    fn square_instance() -> OrienteeringInstance {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        OrienteeringInstance::new(m, vec![0.0, 1.0, 1.0, 1.0], 0, 100.0)
    }

    #[test]
    fn best_insertion_positions() {
        let inst = square_instance();
        // Inserting 1 into tour [0, 2]: both edges cost the same on a
        // square, delta = d(0,1)+d(1,2)-d(0,2) = 2 - sqrt(2), and the tie
        // goes to the lower position.
        let (d, pos) = best_insertion(&inst, &[0, 2], 1);
        assert!((d - (2.0 - 2f64.sqrt())).abs() < 1e-12);
        assert_eq!(pos, 1);
    }

    #[test]
    fn cache_follows_insertions_on_the_square() {
        let inst = square_instance();
        let mut tour = vec![0];
        let mut cache = Insertions::new(&inst, &tour, |v| v != 0);
        for (pos, w) in [(1, 2), (1, 1), (3, 3)] {
            cache.insert(&inst, &mut tour, pos, w);
            for &v in cache.tracked() {
                assert_eq!(cache.get(v), best_insertion(&inst, &tour, v));
            }
        }
        assert_eq!(tour, vec![0, 1, 2, 3]);
        assert!(cache.tracked().is_empty());
    }
}
