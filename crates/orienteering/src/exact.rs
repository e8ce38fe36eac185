//! Exact orienteering by subset dynamic programming.
//!
//! For every subset `S` of non-depot vertices, compute the cheapest path
//! from the depot through exactly `S`, ending at each `v ∈ S` (Held–Karp
//! recurrence). A subset is feasible when some endpoint closes back to the
//! depot within budget; the answer is the feasible subset of maximum
//! prize. `O(2^k · k²)` for `k = n - 1` non-depot vertices.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes DP tables sized by the instance; `exact_backend_dominates_greedy_on_small_instances` checks it"
)]

use crate::{OrienteeringInstance, OrienteeringSolution};

/// Hard cap on the non-depot vertex count: `2^17 · 17` f64 entries ≈ 18 MB.
pub const EXACT_MAX_NON_DEPOT: usize = 17;

/// Exact solver.
///
/// # Panics
/// Panics when the instance has more than [`EXACT_MAX_NON_DEPOT`] + 1
/// vertices.
pub fn solve_exact(inst: &OrienteeringInstance) -> OrienteeringSolution {
    let n = inst.len();
    if n == 0 {
        return OrienteeringSolution {
            tour: Vec::new(),
            cost: 0.0,
            prize: 0.0,
        };
    }
    if n == 1 {
        return inst.trivial_solution();
    }
    let depot = inst.depot();
    // Map non-depot vertices to 0..k.
    let others: Vec<usize> = (0..n).filter(|&v| v != depot).collect();
    let k = others.len();
    assert!(
        k <= EXACT_MAX_NON_DEPOT,
        "exact orienteering limited to {EXACT_MAX_NON_DEPOT} non-depot vertices, got {k}"
    );
    let full: usize = (1 << k) - 1;
    let mut dp = vec![f64::INFINITY; (full + 1) * k];
    let mut parent = vec![usize::MAX; (full + 1) * k];
    for i in 0..k {
        dp[(1 << i) * k + i] = inst.dist(depot, others[i]);
    }
    let mut best = inst.trivial_solution();
    for mask in 1..=full {
        // Prize of this subset (recomputed cheaply via lowest-bit DP would
        // be possible; the direct sum keeps the code simple and the cost
        // is dominated by the inner transition loop anyway).
        let mut subset_prize = inst.prize(depot);
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            subset_prize += inst.prize(others[i]);
        }
        for last in 0..k {
            if mask & (1 << last) == 0 {
                continue;
            }
            let cur = dp[mask * k + last];
            if !cur.is_finite() {
                continue;
            }
            // Feasibility: close the cycle.
            let cycle = cur + inst.dist(others[last], depot);
            if cycle <= inst.budget + 1e-12 && subset_prize > best.prize + 1e-12 {
                let tour = reconstruct(inst, &others, &parent, mask, last);
                best = OrienteeringSolution {
                    cost: inst.tour_cost(&tour),
                    prize: subset_prize,
                    tour,
                };
            }
            // Transitions.
            let rest = full & !mask;
            let mut bits = rest;
            while bits != 0 {
                let nxt = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let nm = mask | (1 << nxt);
                let cand = cur + inst.dist(others[last], others[nxt]);
                if cand < dp[nm * k + nxt] {
                    dp[nm * k + nxt] = cand;
                    parent[nm * k + nxt] = last;
                }
            }
        }
    }
    best
}

fn reconstruct(
    inst: &OrienteeringInstance,
    others: &[usize],
    parent: &[usize],
    mut mask: usize,
    mut last: usize,
) -> Vec<usize> {
    let k = others.len();
    let mut rev = Vec::new();
    while last != usize::MAX {
        rev.push(others[last]);
        let p = parent[mask * k + last];
        mask &= !(1 << last);
        last = p;
    }
    rev.push(inst.depot());
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_graph::DistMatrix;

    fn inst(pts: &[(f64, f64)], prizes: Vec<f64>, budget: f64) -> OrienteeringInstance {
        OrienteeringInstance::new(DistMatrix::from_euclidean(pts), prizes, 0, budget)
    }

    #[test]
    fn empty_and_singleton() {
        let e = OrienteeringInstance::new(DistMatrix::zeros(0), vec![], 0, 1.0);
        assert!(solve_exact(&e).tour.is_empty());
        let s = inst(&[(0.0, 0.0)], vec![7.0], 1.0);
        let sol = solve_exact(&s);
        assert_eq!(sol.tour, vec![0]);
        assert_eq!(sol.prize, 7.0);
    }

    #[test]
    fn picks_dense_prizes_over_far_jackpot() {
        // Near cluster worth 30 total vs a far vertex worth 40 that blows
        // the budget.
        let sol = solve_exact(&inst(
            &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (100.0, 0.0)],
            vec![0.0, 10.0, 10.0, 10.0, 40.0],
            10.0,
        ));
        assert_eq!(sol.prize, 30.0);
        assert_eq!(sol.tour.len(), 4);
    }

    #[test]
    fn takes_jackpot_when_budget_allows() {
        let sol = solve_exact(&inst(
            &[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)],
            vec![0.0, 1.0, 40.0],
            201.0,
        ));
        // 0 -> 1 -> 2 -> 0 costs 1 + 99 + 100 = 200 <= 201: all prizes.
        assert_eq!(sol.prize, 41.0);
        assert!(sol.cost <= 201.0);
    }

    #[test]
    fn exact_budget_boundary_is_feasible() {
        let sol = solve_exact(&inst(&[(0.0, 0.0), (5.0, 0.0)], vec![0.0, 9.0], 10.0));
        assert_eq!(sol.prize, 9.0);
        assert_eq!(sol.cost, 10.0);
    }

    #[test]
    fn just_under_budget_is_infeasible() {
        // Out-and-back costs 10.0; a budget of 9.999 cannot reach it.
        let sol = solve_exact(&inst(&[(0.0, 0.0), (5.0, 0.0)], vec![0.0, 9.0], 9.999));
        assert_eq!(sol.tour, vec![0]);
        assert_eq!(sol.prize, 0.0);
    }
}
