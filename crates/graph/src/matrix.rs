//! Dense symmetric distance matrices.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes the `n * n` buffer it allocated itself; the module's unit tests and `two_opt_props` check it"
)]

/// A dense symmetric matrix of non-negative edge weights over `n` vertices.
///
/// This is the input format for every algorithm in this crate. Weights are
/// energies or metres depending on the caller; algorithms only assume
/// symmetry and non-negativity (Christofides additionally wants the
/// triangle inequality — check with [`DistMatrix::is_metric`]).
///
/// **Invariant: `get(i, j)` and `get(j, i)` are the same bits.** Every
/// constructor and [`DistMatrix::set`] keeps it: `from_fn` and `set`
/// write both mirrors, and `from_raw` rejects a buffer whose triangles
/// differ in any bit. Readers rely on it: the 2-opt kernel's inverse
/// neighbour lists test `d(y, x)` with a weight read as `d(x, y)`, and
/// the sparse matching certifies against one well-defined optimum.
#[derive(Clone, Debug, PartialEq)]
pub struct DistMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistMatrix {
    /// Creates an `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DistMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` for `i < j` and mirroring.
    ///
    /// The diagonal is fixed at zero regardless of `f`.
    ///
    /// # Panics
    /// Panics when `f` produces a negative or non-finite weight.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DistMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let w = f(i, j);
                assert!(
                    w.is_finite() && w >= 0.0,
                    "edge weight ({i},{j}) must be finite and >= 0, got {w}"
                );
                m.data[i * n + j] = w;
                m.data[j * n + i] = w;
            }
        }
        m
    }

    /// Wraps an existing row-major `n x n` buffer.
    ///
    /// # Panics
    /// Panics when the buffer length is not `n²`, the two triangles differ
    /// in any bit, the diagonal is non-zero, or any weight is negative or
    /// non-finite.
    pub fn from_raw(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "buffer must hold n*n weights");
        #[expect(
            clippy::float_cmp,
            reason = "exact-zero diagonal is the documented storage invariant"
        )]
        for i in 0..n {
            assert_eq!(data[i * n + i], 0.0, "diagonal entry {i} must be zero");
            for j in (i + 1)..n {
                let w = data[i * n + j];
                assert!(w.is_finite() && w >= 0.0, "weight ({i},{j}) invalid: {w}");
                assert_eq!(
                    w.to_bits(),
                    data[j * n + i].to_bits(),
                    "matrix not symmetric at ({i},{j})"
                );
            }
        }
        DistMatrix { n, data }
    }

    /// Builds the Euclidean distance matrix over planar points given as
    /// `(x, y)` pairs.
    pub fn from_euclidean(points: &[(f64, f64)]) -> Self {
        DistMatrix::from_fn(points.len(), |i, j| {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            (dx * dx + dy * dy).sqrt()
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Weight of edge `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Sets the weight of edge `(i, j)` (and its mirror).
    ///
    /// # Panics
    /// Panics on negative/non-finite weights or diagonal writes of
    /// non-zero values.
    pub fn set(&mut self, i: usize, j: usize, w: f64) {
        assert!(
            w.is_finite() && w >= 0.0,
            "weight must be finite and >= 0, got {w}"
        );
        #[expect(
            clippy::float_cmp,
            reason = "exact-zero diagonal is the documented storage invariant"
        )]
        if i == j {
            assert_eq!(w, 0.0, "diagonal must stay zero");
            return;
        }
        self.data[i * self.n + j] = w;
        self.data[j * self.n + i] = w;
    }

    /// Row `i` as a slice (`row(i)[j]` is the weight of `(i, j)`).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Largest edge weight in the matrix (zero for `n < 2`).
    pub fn max_weight(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Checks the triangle inequality `w(i,k) <= w(i,j) + w(j,k)` within
    /// tolerance `tol` for all triples. O(n³) — intended for tests and
    /// debug assertions only.
    pub fn is_metric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in 0..self.n {
                let wij = self.get(i, j);
                for k in 0..self.n {
                    if self.get(i, k) > wij + self.get(j, k) + tol {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Restriction of the matrix to the vertex subset `keep` (in the given
    /// order). Vertex `i` of the result corresponds to `keep[i]`.
    pub fn submatrix(&self, keep: &[usize]) -> DistMatrix {
        DistMatrix::from_fn(keep.len(), |i, j| self.get(keep[i], keep[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_symmetric_zero_diagonal() {
        let m = DistMatrix::from_fn(4, |i, j| (i + j) as f64);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert_eq!(m.get(1, 3), 4.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn from_fn_rejects_negative() {
        let _ = DistMatrix::from_fn(3, |_, _| -1.0);
    }

    #[test]
    fn from_raw_validates() {
        let ok = DistMatrix::from_raw(2, vec![0.0, 3.0, 3.0, 0.0]);
        assert_eq!(ok.get(0, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn from_raw_rejects_asymmetry() {
        let _ = DistMatrix::from_raw(2, vec![0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn from_raw_rejects_one_ulp_asymmetry() {
        let _ = DistMatrix::from_raw(2, vec![0.0, 3.0, f64::from_bits(3.0f64.to_bits() + 1), 0.0]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn from_raw_rejects_nonzero_diagonal() {
        let _ = DistMatrix::from_raw(2, vec![1.0, 3.0, 3.0, 0.0]);
    }

    #[test]
    fn euclidean_matrix() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (3.0, 4.0)]);
        assert_eq!(m.get(0, 1), 5.0);
        assert!(m.is_metric(1e-9));
    }

    #[test]
    fn metric_check_catches_violation() {
        let mut m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert!(m.is_metric(1e-9));
        m.set(0, 2, 100.0);
        assert!(!m.is_metric(1e-9));
    }

    #[test]
    fn submatrix_preserves_weights() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (9.0, 0.0)]);
        let s = m.submatrix(&[3, 0, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0, 1), 9.0); // (3,0)
        assert_eq!(s.get(0, 2), 4.0); // (3,2)
        assert_eq!(s.get(1, 2), 5.0); // (0,2)
    }

    #[test]
    fn max_weight_and_rows() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (0.0, 2.0), (0.0, 7.0)]);
        assert_eq!(m.max_weight(), 7.0);
        assert_eq!(m.row(0), &[0.0, 2.0, 7.0]);
    }

    #[test]
    fn empty_and_single_vertex() {
        let e = DistMatrix::zeros(0);
        assert!(e.is_empty());
        assert_eq!(e.max_weight(), 0.0);
        let s = DistMatrix::zeros(1);
        assert_eq!(s.len(), 1);
        assert!(s.is_metric(0.0));
    }
}
