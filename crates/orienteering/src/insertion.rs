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
//! two new edges tried: O(1). Only vertices whose best edge was `(a, b)`
//! are rescanned in full. The update takes a new edge when its delta is
//! strictly lower, or equal at a lower position, which is exactly the
//! scan's tie rule, so [`Insertions::get`] is bit-identical to a fresh
//! [`best_insertion`] after any sequence of insertions.

use crate::OrienteeringInstance;

/// Marginal cost of putting `v` between `a` and `b`. The single
/// expression both the scan and the cache evaluate, so their deltas agree
/// bit for bit.
#[inline]
fn edge_delta(inst: &OrienteeringInstance, a: usize, v: usize, b: usize) -> f64 {
    inst.dist(a, v) + inst.dist(v, b) - inst.dist(a, b)
}

/// Marginal cost of inserting `v` at its best position, and that position.
///
/// Ties go to the lowest position. When no edge has a delta below
/// infinity the result is `(f64::INFINITY, 0)`.
pub fn best_insertion(inst: &OrienteeringInstance, tour: &[usize], v: usize) -> (f64, usize) {
    match tour.len() {
        0 => (0.0, 0),
        1 => (2.0 * inst.dist(tour[0], v), 1),
        n => {
            let mut best = f64::INFINITY;
            let mut pos = 0;
            for i in 0..n {
                let delta = edge_delta(inst, tour[i], v, tour[(i + 1) % n]);
                if delta < best {
                    best = delta;
                    // Inserting on the closing edge appends at the end so
                    // the depot stays first.
                    pos = i + 1;
                }
            }
            (best, pos)
        }
    }
}

/// Each tracked vertex's [`best_insertion`] into one tour, kept current
/// as vertices are inserted through [`Insertions::insert`].
///
/// Building costs one scan per tracked vertex, O(n·L); each insertion
/// then costs O(n) plus one scan per vertex whose best edge was removed.
/// Any other change to the tour (2-opt, removals) invalidates the cache:
/// build a new one.
#[derive(Debug)]
pub struct Insertions {
    /// `(delta, pos)` per vertex; meaningful for tracked vertices only.
    best: Vec<(f64, usize)>,
    /// Tracked vertices, ascending.
    tracked: Vec<usize>,
    rescans: u64,
}

impl Insertions {
    /// Scans `tour` for every vertex `track` accepts, in ascending order.
    pub fn new(inst: &OrienteeringInstance, tour: &[usize], track: impl Fn(usize) -> bool) -> Self {
        let tracked: Vec<usize> = (0..inst.len()).filter(|&v| track(v)).collect();
        let mut best = vec![(f64::INFINITY, 0); inst.len()];
        for &v in &tracked {
            best[v] = best_insertion(inst, tour, v);
        }
        Insertions {
            best,
            tracked,
            rescans: 0,
        }
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

    /// Vertices rescanned in full because an insertion removed their best
    /// edge, since the cache was built.
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
            for &u in &self.tracked {
                self.best[u] = best_insertion(inst, tour, u);
            }
            self.rescans += self.tracked.len() as u64;
            return;
        }
        let (a, b) = (tour[pos - 1], tour[(pos + 1) % (n + 1)]);
        for &u in &self.tracked {
            let (delta, at) = self.best[u];
            self.best[u] = if at == pos {
                self.rescans += 1;
                best_insertion(inst, tour, u)
            } else {
                // `(delta, at)` is the lexicographic minimum over the
                // surviving edges; fold in the two new ones the same way.
                let mut cur = (delta, if at > pos { at + 1 } else { at });
                for (d, p) in [
                    (edge_delta(inst, a, u, w), pos),
                    (edge_delta(inst, w, u, b), pos + 1),
                ] {
                    if d < cur.0 || (d <= cur.0 && p < cur.1) {
                        cur = (d, p);
                    }
                }
                cur
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
