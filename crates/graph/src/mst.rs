//! Minimum spanning trees on dense matrices (Prim, O(n²)).

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertices of the matrix it is given; `two_opt_props` checks Prim against its oracle"
)]

use crate::DistMatrix;

/// A spanning tree: its edge list and total weight.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanningTree {
    /// Tree edges as vertex index pairs.
    pub edges: Vec<(usize, usize)>,
    /// Sum of edge weights.
    pub weight: f64,
}

/// Computes a minimum spanning tree of the complete graph described by `m`
/// using Prim's algorithm with a dense O(n²) scan — optimal for the
/// complete graphs this crate works on.
///
/// The fringe (vertices outside the tree) is kept as arrays in ascending
/// vertex order. Each round makes one pass over it: it drops the winner
/// in place, lowers the keys through the winner's row, and picks the next
/// winner as the first strict minimum, so ties go to the lowest vertex.
///
/// Returns an empty tree for `n <= 1`.
pub fn prim_mst(m: &DistMatrix) -> SpanningTree {
    let n = m.len();
    if n <= 1 {
        return SpanningTree {
            edges: Vec::new(),
            weight: 0.0,
        };
    }
    // Fringe vertices with their keys (cheapest edge into the tree), in
    // parallel arrays; `from[v]` is the tree end of `v`'s key edge.
    let mut fringe: Vec<usize> = (1..n).collect();
    let mut key: Vec<f64> = m.row(0)[1..].to_vec();
    let mut from: Vec<usize> = vec![0; n];
    let mut best = argmin(&key);
    let mut edges = Vec::with_capacity(n - 1);
    let mut weight = 0.0;
    while !fringe.is_empty() {
        let u = fringe[best];
        edges.push((from[u], u));
        weight += key[best];
        let row = m.row(u);
        let len = fringe.len();
        let mut next = 0;
        let mut next_key = f64::INFINITY;
        // Fringe slot k moves to slot w (k, or k - 1 past the winner).
        let mut relax = |k: usize, w: usize| {
            let v = fringe[k];
            let mut kv = key[k];
            if row[v] < kv {
                kv = row[v];
                from[v] = u;
            }
            fringe[w] = v;
            key[w] = kv;
            if kv < next_key {
                next_key = kv;
                next = w;
            }
        };
        for k in 0..best {
            relax(k, k);
        }
        for k in best + 1..len {
            relax(k, k - 1);
        }
        fringe.truncate(len - 1);
        key.truncate(len - 1);
        best = next;
    }
    SpanningTree { edges, weight }
}

/// Index of the first strict minimum of `key`.
fn argmin(key: &[f64]) -> usize {
    let mut best = 0;
    let mut best_key = f64::INFINITY;
    for (k, &kv) in key.iter().enumerate() {
        if kv < best_key {
            best_key = kv;
            best = k;
        }
    }
    best
}

/// Vertex degrees induced by an edge list over `n` vertices.
pub fn degrees(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut deg = vec![0; n];
    for &(u, v) in edges {
        deg[u] += 1;
        deg[v] += 1;
    }
    deg
}

/// Vertices with odd degree in an edge list — the set Christofides must
/// match (always even in cardinality, by the handshake lemma).
pub fn odd_degree_vertices(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    degrees(n, edges)
        .into_iter()
        .enumerate()
        .filter_map(|(v, d)| (d % 2 == 1).then_some(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trivial_sizes() {
        assert_eq!(prim_mst(&DistMatrix::zeros(0)).edges.len(), 0);
        assert_eq!(prim_mst(&DistMatrix::zeros(1)).edges.len(), 0);
        let two = DistMatrix::from_euclidean(&[(0.0, 0.0), (5.0, 0.0)]);
        let t = prim_mst(&two);
        assert_eq!(t.edges, vec![(0, 1)]);
        assert_eq!(t.weight, 5.0);
    }

    #[test]
    fn line_graph_mst_is_the_line() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (4.0, 0.0)]);
        let t = prim_mst(&m);
        assert_eq!(t.edges.len(), 3);
        assert_eq!(t.weight, 4.0); // 1 + 1 + 2
    }

    #[test]
    fn square_mst_weight() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        // Three unit edges.
        assert_eq!(prim_mst(&m).weight, 3.0);
    }

    #[test]
    fn mst_is_spanning_and_acyclic() {
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| ((i * 37 % 100) as f64, (i * 59 % 100) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let t = prim_mst(&m);
        assert_eq!(t.edges.len(), 29);
        // Union-find connectivity check.
        let mut parent: Vec<usize> = (0..30).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for &(u, v) in &t.edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            assert_ne!(ru, rv, "edge ({u},{v}) closes a cycle");
            parent[ru] = rv;
        }
        let root = find(&mut parent, 0);
        for v in 1..30 {
            assert_eq!(find(&mut parent, v), root, "vertex {v} disconnected");
        }
    }

    #[test]
    fn odd_degree_set_is_even() {
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let odd = odd_degree_vertices(4, &edges);
        assert_eq!(odd, vec![0, 3]);
        assert_eq!(odd.len() % 2, 0);
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let d = degrees(3, &[(0, 1), (0, 2), (0, 1)]);
        assert_eq!(d, vec![3, 2, 1]);
    }

    fn kruskal_weight(m: &DistMatrix) -> f64 {
        let n = m.len();
        let mut es: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                es.push((i, j));
            }
        }
        es.sort_by(|a, b| uavdc_geom::cmp_f64(m.get(a.0, a.1), m.get(b.0, b.1)));
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        let mut w = 0.0;
        for (u, v) in es {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru] = rv;
                w += m.get(u, v);
            }
        }
        w
    }

    proptest! {
        #[test]
        fn prop_prim_matches_kruskal(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..40)
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let prim = prim_mst(&m);
            let kruskal = kruskal_weight(&m);
            prop_assert!((prim.weight - kruskal).abs() < 1e-6 * (1.0 + kruskal));
            prop_assert_eq!(prim.edges.len(), pts.len() - 1);
        }

        #[test]
        fn prop_odd_vertex_count_is_even(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60)
        ) {
            let odd = odd_degree_vertices(20, &edges);
            prop_assert_eq!(odd.len() % 2, 0);
        }
    }
}
