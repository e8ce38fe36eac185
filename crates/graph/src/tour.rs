//! Closed tours over the vertices of a [`DistMatrix`].

#![expect(
    clippy::indexing_slicing,
    reason = "indexes the tour's own vertices into the matrix it was built on; the module's unit tests and `two_opt_props` check it"
)]

use crate::DistMatrix;

/// A closed tour: an ordering of a subset of vertices, visited cyclically.
///
/// The tour `[a, b, c]` traverses edges `(a,b)`, `(b,c)`, `(c,a)`.
/// Single-vertex and empty tours have length zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tour {
    order: Vec<usize>,
}

impl Tour {
    /// Wraps a visiting order.
    ///
    /// # Panics
    /// Panics when the order contains duplicate vertices.
    pub fn new(order: Vec<usize>) -> Self {
        let mut seen = vec![false; order.iter().copied().max().map_or(0, |m| m + 1)];
        for &v in &order {
            assert!(!seen[v], "vertex {v} appears twice in tour");
            seen[v] = true;
        }
        Tour { order }
    }

    /// The visiting order.
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Mutable access for in-place improvement heuristics.
    #[inline]
    pub(crate) fn order_mut(&mut self) -> &mut Vec<usize> {
        &mut self.order
    }

    /// Number of visited vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the tour visits no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total cyclic length under `m`.
    // lint:allow(raw-quantity): DistMatrix weights are dimension-generic; uavdc-core assigns joules at the AuxGraph boundary
    pub fn length(&self, m: &DistMatrix) -> f64 {
        let n = self.order.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for k in 0..n {
            total += m.get(self.order[k], self.order[(k + 1) % n]);
        }
        total
    }

    /// Rotates the order so that `start` comes first, preserving the cycle.
    ///
    /// # Panics
    /// Panics when `start` is not on the tour.
    pub fn rotate_to_start(&mut self, start: usize) {
        #[expect(
            clippy::panic,
            reason = "documented API contract (see `# Panics` above); callers pass tour vertices"
        )]
        let pos = self
            .order
            .iter()
            .position(|&v| v == start)
            .unwrap_or_else(|| panic!("vertex {start} not on tour"));
        self.order.rotate_left(pos);
    }

    /// True when `v` is visited by the tour.
    pub fn contains(&self, v: usize) -> bool {
        self.order.contains(&v)
    }
}

impl From<Vec<usize>> for Tour {
    fn from(order: Vec<usize>) -> Self {
        Tour::new(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_matrix() -> DistMatrix {
        // Vertices on a line at x = 0, 1, 2, 3.
        DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    }

    #[test]
    fn degenerate_tours_have_zero_length() {
        let m = line_matrix();
        assert_eq!(Tour::new(vec![]).length(&m), 0.0);
        assert_eq!(Tour::new(vec![2]).length(&m), 0.0);
    }

    #[test]
    fn two_vertex_tour_is_out_and_back() {
        let m = line_matrix();
        assert_eq!(Tour::new(vec![0, 3]).length(&m), 6.0);
    }

    #[test]
    fn length_counts_closing_edge() {
        let m = line_matrix();
        // 0 -> 1 -> 2 -> 3 -> 0 = 1 + 1 + 1 + 3.
        assert_eq!(Tour::new(vec![0, 1, 2, 3]).length(&m), 6.0);
        // 0 -> 2 -> 1 -> 3 -> 0 = 2 + 1 + 2 + 3.
        assert_eq!(Tour::new(vec![0, 2, 1, 3]).length(&m), 8.0);
    }

    #[test]
    fn rotation_preserves_length_and_cycle() {
        let m = line_matrix();
        let mut t = Tour::new(vec![2, 0, 3, 1]);
        let before = t.length(&m);
        t.rotate_to_start(3);
        assert_eq!(t.order()[0], 3);
        assert_eq!(t.length(&m), before);
        assert_eq!(t.order(), &[3, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_vertex_rejected() {
        let _ = Tour::new(vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "not on tour")]
    fn rotate_to_missing_vertex_panics() {
        let mut t = Tour::new(vec![0, 1]);
        t.rotate_to_start(7);
    }

    #[test]
    fn contains_checks_membership() {
        let t = Tour::new(vec![4, 2, 9]);
        assert!(t.contains(9));
        assert!(!t.contains(3));
    }
}
