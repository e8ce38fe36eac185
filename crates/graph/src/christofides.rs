//! Christofides' 1.5-approximation for metric TSP \[Christofides 1976\].
//!
//! The paper's Algorithm 2, Algorithm 3 and benchmark heuristic all invoke
//! `TSP(S)` — a Christofides tour over the current hovering-location set —
//! inside their selection loops, so this implementation is a planner hot
//! path. On large odd sets the matching step dominates; the default
//! [`MatchingBackend::Auto`] solves it on a sparse nearest-neighbour edge
//! set and certifies the result against the complete graph (see
//! [`crate::matching`]), so the tour is the one the dense blossom gives.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes matrix vertices it selected itself; `two_opt_props` and `matching_fuzz` check the stages it calls"
)]

use crate::euler::{euler_circuit, shortcut_circuit};
use crate::improve::two_opt;
use crate::matching::{min_weight_perfect_matching_with, MatchingBackend};
use crate::mst::{odd_degree_vertices, prim_mst};
use crate::{DistMatrix, Tour};
use uavdc_obs::Span;

/// Tuning knobs for [`christofides_with`].
#[derive(Clone, Copy, Debug)]
pub struct ChristofidesConfig {
    /// Matching backend for the odd-degree vertices.
    pub matching: MatchingBackend,
    /// Run 2-opt on the shortcut tour. Cheap relative to matching and
    /// usually shaves a few percent.
    pub polish: bool,
}

impl Default for ChristofidesConfig {
    fn default() -> Self {
        ChristofidesConfig {
            matching: MatchingBackend::Auto,
            polish: true,
        }
    }
}

/// Christofides tour over all vertices of `m` with default configuration.
///
/// For a metric `m` (triangle inequality) the result without polishing is
/// within 1.5x of the optimal tour; 2-opt polishing only improves it.
pub fn christofides(m: &DistMatrix) -> Tour {
    christofides_with(m, &ChristofidesConfig::default(), &uavdc_obs::NOOP)
}

/// Christofides tour with explicit configuration, reporting per-call
/// size statistics to `rec`: a `christofides.calls` counter plus
/// `christofides.n` and `christofides.odd_vertices` histograms, the
/// `matching.*` counters of [`min_weight_perfect_matching_with`], and one
/// root span `christofides` with the children `mst`, `matching`, `euler`
/// and `polish` on tours of four or more vertices. The recorder never
/// influences the tour. The planners call this once per set-up; Alg 2's
/// paper mode, which calls it once per scored candidate, hands it a
/// recorder that keeps the counters and drops the spans.
pub fn christofides_with(
    m: &DistMatrix,
    cfg: &ChristofidesConfig,
    rec: &dyn uavdc_obs::Recorder,
) -> Tour {
    let n = m.len();
    rec.add("christofides.calls", 1);
    rec.observe("christofides.n", n as u64);
    if n <= 1 {
        return Tour::new((0..n).collect());
    }
    if n == 2 {
        return Tour::new(vec![0, 1]);
    }
    if n == 3 {
        return Tour::new(vec![0, 1, 2]);
    }
    let root = Span::root(rec, "christofides");
    // 1. Minimum spanning tree.
    let span = root.child("mst");
    let mut edges = prim_mst(m).edges;
    drop(span);
    // 2. Minimum-weight perfect matching on odd-degree vertices.
    let span = root.child("matching");
    let odd = odd_degree_vertices(n, &edges);
    debug_assert_eq!(odd.len() % 2, 0);
    rec.observe("christofides.odd_vertices", odd.len() as u64);
    if !odd.is_empty() {
        let sub = m.submatrix(&odd);
        let matching = min_weight_perfect_matching_with(&sub, cfg.matching, rec);
        for (a, b) in matching.edges() {
            edges.push((odd[a], odd[b]));
        }
    }
    drop(span);
    // 3. Eulerian circuit of MST ∪ matching (all degrees now even, and the
    // union is connected because the MST spans).
    let span = root.child("euler");
    #[expect(
        clippy::expect_used,
        reason = "Euler circuit existence is a theorem here — MST spans and the matching evens all degrees"
    )]
    let circuit =
        euler_circuit(n, &edges, 0).expect("MST ∪ matching is connected with even degrees");
    // 4. Shortcut repeated vertices.
    let order = shortcut_circuit(&circuit);
    debug_assert_eq!(order.len(), n, "shortcut must visit every vertex once");
    let mut tour = Tour::new(order);
    drop(span);
    if cfg.polish {
        let _span = root.child("polish");
        two_opt(&mut tour, m);
    }
    tour
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::held_karp;
    use proptest::prelude::*;

    #[test]
    fn tiny_instances() {
        for n in 0..4 {
            let pts: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 0.0)).collect();
            let m = DistMatrix::from_euclidean(&pts);
            let t = christofides(&m);
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn unit_square_is_optimal() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let t = christofides(&m);
        assert!((t.length(&m) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn visits_every_vertex_once() {
        let pts: Vec<(f64, f64)> = (0..25)
            .map(|i| ((i * 37 % 100) as f64, (i * 61 % 100) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let t = christofides(&m);
        let mut order = t.order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn within_guarantee_vs_exact_small() {
        let pts = [
            (0.0, 0.0),
            (7.0, 1.0),
            (3.0, 8.0),
            (9.0, 9.0),
            (1.0, 5.0),
            (6.0, 4.0),
            (2.0, 2.0),
        ];
        let m = DistMatrix::from_euclidean(&pts);
        let opt = held_karp(&m).expect("small instance");
        let cfg = ChristofidesConfig {
            matching: MatchingBackend::Auto,
            polish: false,
        };
        let t = christofides_with(&m, &cfg, &uavdc_obs::NOOP);
        assert!(
            t.length(&m) <= 1.5 * opt.length(&m) + 1e-9,
            "christofides {} vs opt {}",
            t.length(&m),
            opt.length(&m)
        );
    }

    #[test]
    fn polish_never_hurts() {
        let pts: Vec<(f64, f64)> = (0..18)
            .map(|i| ((i * 53 % 97) as f64, (i * 71 % 89) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let raw = christofides_with(
            &m,
            &ChristofidesConfig {
                matching: MatchingBackend::Auto,
                polish: false,
            },
            &uavdc_obs::NOOP,
        );
        let polished = christofides(&m);
        assert!(polished.length(&m) <= raw.length(&m) + 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_within_1_5_of_held_karp(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 4..10)
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let opt = held_karp(&m).unwrap().length(&m);
            let cfg = ChristofidesConfig { matching: MatchingBackend::ExactDp, polish: false };
            let t = christofides_with(&m, &cfg, &uavdc_obs::NOOP);
            prop_assert!(t.length(&m) <= 1.5 * opt + 1e-6,
                "christofides {} vs opt {}", t.length(&m), opt);
        }

        #[test]
        fn prop_tour_is_permutation(
            pts in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 1..40)
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let t = christofides(&m);
            let mut order = t.order().to_vec();
            order.sort_unstable();
            prop_assert_eq!(order, (0..pts.len()).collect::<Vec<_>>());
        }
    }
}
