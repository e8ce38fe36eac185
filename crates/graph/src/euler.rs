//! Eulerian circuits on multigraphs (Hierholzer's algorithm).

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertices and edge ids of the multigraph it is given; the module's unit tests and `two_opt_props` check it"
)]

/// Finds an Eulerian circuit of the multigraph on `n` vertices given by
/// `edges`, starting from `start`.
///
/// Returns the circuit as a vertex sequence whose first and last entries
/// are `start` (length `|E| + 1`), or `None` when the graph has a vertex
/// of odd degree, is disconnected (ignoring isolated vertices), or `start`
/// has no incident edge while edges exist.
///
/// The multigraph may contain parallel edges (Christofides unions the MST
/// and matching, which can duplicate an edge) and self-loops.
pub fn euler_circuit(n: usize, edges: &[(usize, usize)], start: usize) -> Option<Vec<usize>> {
    if edges.is_empty() {
        return Some(vec![start]);
    }
    assert!(start < n, "start vertex {start} out of range {n}");
    // Adjacency as (neighbor, edge id) lists; each undirected edge gets one id.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (id, &(u, v)) in edges.iter().enumerate() {
        assert!(u < n && v < n, "edge ({u},{v}) out of range {n}");
        adj[u].push((v, id));
        if u != v {
            adj[v].push((u, id));
        }
    }
    // Degree check: self-loops add 2 to the degree so don't affect parity.
    for (v, a) in adj.iter().enumerate() {
        let loops = a.iter().filter(|&&(w, _)| w == v).count();
        if (a.len() + loops) % 2 == 1 {
            return None;
        }
    }
    if adj[start].is_empty() {
        return None;
    }

    // Hierholzer with explicit stack.
    let mut used = vec![false; edges.len()];
    let mut iter_pos = vec![0usize; n];
    let mut stack = vec![start];
    let mut circuit = Vec::with_capacity(edges.len() + 1);
    while let Some(&v) = stack.last() {
        let mut advanced = false;
        while iter_pos[v] < adj[v].len() {
            let (to, id) = adj[v][iter_pos[v]];
            iter_pos[v] += 1;
            if !used[id] {
                used[id] = true;
                stack.push(to);
                advanced = true;
                break;
            }
        }
        if !advanced {
            circuit.push(v);
            stack.pop();
        }
    }
    // All edges must be used, otherwise the graph was disconnected.
    if used.iter().all(|&u| u) {
        circuit.reverse();
        Some(circuit)
    } else {
        None
    }
}

/// Shortcuts an Eulerian circuit into a Hamiltonian-style tour: keeps the
/// first occurrence of each vertex, preserving order. The closing edge back
/// to the start is implicit in the returned order.
pub fn shortcut_circuit(circuit: &[usize]) -> Vec<usize> {
    let max_v = circuit.iter().copied().max().map_or(0, |m| m + 1);
    let mut seen = vec![false; max_v];
    let mut tour = Vec::new();
    for &v in circuit {
        if !seen[v] {
            seen[v] = true;
            tour.push(v);
        }
    }
    tour
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_circuit(n: usize, edges: &[(usize, usize)], start: usize) {
        let c = euler_circuit(n, edges, start).expect("circuit should exist");
        assert_eq!(c.len(), edges.len() + 1);
        assert_eq!(c[0], start);
        assert_eq!(*c.last().unwrap(), start);
        // Multiset of traversed edges equals the input multiset.
        let mut want: Vec<(usize, usize)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut got: Vec<(usize, usize)> = c
            .windows(2)
            .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got);
    }

    #[test]
    fn empty_graph_is_trivial_circuit() {
        assert_eq!(euler_circuit(3, &[], 1), Some(vec![1]));
    }

    #[test]
    fn triangle() {
        check_circuit(3, &[(0, 1), (1, 2), (2, 0)], 0);
    }

    #[test]
    fn parallel_edges() {
        // Two copies of edge (0,1): circuit 0-1-0.
        check_circuit(2, &[(0, 1), (0, 1)], 0);
    }

    #[test]
    fn self_loop_in_circuit() {
        check_circuit(2, &[(0, 1), (1, 1), (1, 0)], 0);
    }

    #[test]
    fn figure_eight() {
        // Two triangles sharing vertex 0.
        check_circuit(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], 0);
    }

    #[test]
    fn odd_degree_returns_none() {
        assert_eq!(euler_circuit(3, &[(0, 1), (1, 2)], 0), None);
    }

    #[test]
    fn disconnected_edges_return_none() {
        // Two disjoint 2-cycles; starting in one cannot reach the other.
        let edges = [(0, 1), (0, 1), (2, 3), (2, 3)];
        assert_eq!(euler_circuit(4, &edges, 0), None);
    }

    #[test]
    fn start_with_no_edges_returns_none() {
        assert_eq!(euler_circuit(3, &[(1, 2), (2, 1)], 0), None);
    }

    #[test]
    fn shortcut_keeps_first_occurrences() {
        let circuit = vec![0, 1, 2, 0, 3, 4, 0];
        assert_eq!(shortcut_circuit(&circuit), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shortcut_of_empty_is_empty() {
        assert!(shortcut_circuit(&[]).is_empty());
    }
}
