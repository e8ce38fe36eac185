//! Deterministic greedy solver: prize/cost-ratio cheapest insertion with
//! 2-opt compaction between waves.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertex ids of the instance it is given; `solver_goldens` checks it"
)]

use crate::local::{fill_insertions, two_opt_cost};
use crate::{OrienteeringInstance, OrienteeringSolution};

/// Greedy ratio-insertion solver.
///
/// Repeats: insert vertices by best prize-per-marginal-cost ratio until
/// nothing fits, compact the tour with 2-opt (freeing budget), and try
/// again. Deterministic; never worse than the depot-only solution.
pub fn solve_greedy(inst: &OrienteeringInstance) -> OrienteeringSolution {
    if inst.is_empty() {
        return OrienteeringSolution {
            tour: Vec::new(),
            cost: 0.0,
            prize: 0.0,
        };
    }
    let mut tour = vec![inst.depot()];
    let mut in_tour = vec![false; inst.len()];
    in_tour[inst.depot()] = true;
    let mut cost = 0.0;
    for _ in 0..8 {
        let before = tour.len();
        let _ = fill_insertions(inst, &mut tour, &mut in_tour, cost, &mut 0);
        cost = two_opt_cost(inst, &mut tour).0; // recomputes the exact cost
                                                // Stop when a whole wave added nothing (2-opt can only free
                                                // budget, so a second chance is only useful after an insertion).
        if tour.len() == before {
            break;
        }
    }
    OrienteeringSolution {
        prize: inst.tour_prize(&tour),
        cost,
        tour,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_graph::DistMatrix;

    #[test]
    fn empty_instance() {
        let inst = OrienteeringInstance::new(DistMatrix::zeros(0), vec![], 0, 5.0);
        let s = solve_greedy(&inst);
        assert!(s.tour.is_empty());
    }

    #[test]
    fn depot_only_when_nothing_fits() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (100.0, 0.0)]);
        let inst = OrienteeringInstance::new(m, vec![0.0, 10.0], 0, 1.0);
        let s = solve_greedy(&inst);
        assert_eq!(s.tour, vec![0]);
    }

    #[test]
    fn prefers_high_ratio_vertices() {
        // Vertex 1: prize 10 at distance 1 (ratio ~5 out-and-back).
        // Vertex 2: prize 12 at distance 50 (ratio 0.12). Budget fits only
        // one of them.
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (50.0, 0.0)]);
        let inst = OrienteeringInstance::new(m, vec![0.0, 10.0, 12.0], 0, 60.0);
        let s = solve_greedy(&inst);
        assert!(s.prize >= 10.0);
        assert!(s.cost <= 60.0 + 1e-9);
    }

    #[test]
    fn collects_cluster_within_budget() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (((i % 5) as f64) * 2.0, ((i / 5) as f64) * 2.0))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let inst = OrienteeringInstance::new(m, vec![1.0; 10], 0, 50.0);
        let s = solve_greedy(&inst);
        // Generous budget: greedy should take everything.
        assert_eq!(s.tour.len(), 10);
        assert!(s.cost <= 50.0);
    }

    #[test]
    fn is_deterministic() {
        let pts: Vec<(f64, f64)> = (0..15)
            .map(|i| ((i * 37 % 50) as f64, (i * 13 % 50) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let prizes: Vec<f64> = (0..15).map(|i| (i % 4 + 1) as f64).collect();
        let inst = OrienteeringInstance::new(m, prizes, 0, 80.0);
        let a = solve_greedy(&inst);
        let b = solve_greedy(&inst);
        assert_eq!(a, b);
    }
}
