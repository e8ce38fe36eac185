//! Branch-and-bound exact orienteering.
//!
//! Depth-first search over partial paths from the depot, branching on the
//! next vertex to visit. Two prunes keep it exact but fast:
//!
//! * **Reachability** — vertex `v` is only appended when the path can
//!   still close: `cost + d(last, v) + d(v, depot) <= budget`.
//! * **Prize bound** — the best completion of a partial path collects at
//!   most the prizes of the vertices that are *individually* still
//!   reachable; when `prize + bound <= best`, the subtree is cut.
//!
//! Children are explored best-ratio-first so good incumbents appear
//! early. Exact for any size in principle; practical to `n ≈ 30` on
//! Euclidean instances (the subset DP in [`crate::Backend::Exact`] stops
//! at 17 but is faster below that). A node-expansion budget guards
//! against adversarial instances — if it is exhausted the solver panics
//! rather than silently returning a non-optimal answer.

use crate::local::two_opt_cost;
use crate::{OrienteeringInstance, OrienteeringSolution};

/// Hard cap on explored nodes; hit only by adversarial instances.
const MAX_NODES: u64 = 50_000_000;

/// Exact solver by branch and bound.
///
/// # Panics
/// Panics when the node budget is exhausted before the search space is
/// proven — use the GRASP backend for instances that large.
// Outside tests the crate dispatches through solve_bnb_obs directly.
#[cfg_attr(not(test), allow(dead_code))]
pub fn solve_bnb(inst: &OrienteeringInstance) -> OrienteeringSolution {
    solve_bnb_obs(inst, &uavdc_obs::NOOP)
}

/// Like [`solve_bnb`], reporting `bnb.nodes` (expansions) and
/// `bnb.pruned` (subtrees cut by the prize bound) to `rec`. Both are
/// accumulated in the search state and flushed once after the search, so
/// the recorder costs nothing per node.
///
/// # Panics
/// Panics when the node budget is exhausted, exactly as [`solve_bnb`].
pub fn solve_bnb_obs(
    inst: &OrienteeringInstance,
    rec: &dyn uavdc_obs::Recorder,
) -> OrienteeringSolution {
    if inst.is_empty() {
        return OrienteeringSolution {
            tour: Vec::new(),
            cost: 0.0,
            prize: 0.0,
        };
    }
    let depot = inst.depot();
    // Seed the incumbent with the greedy solution: a strong initial
    // bound that prunes most of the tree immediately.
    let mut best = crate::greedy::solve_greedy(inst);
    // Improve its cost ordering so the bound is as tight as possible.
    {
        let mut tour = best.tour.clone();
        let cost = two_opt_cost(inst, &mut tour);
        best = OrienteeringSolution {
            prize: inst.tour_prize(&tour),
            cost,
            tour,
        };
    }

    let n = inst.len();
    let mut visited = vec![false; n];
    visited[depot] = true;
    let mut path = vec![depot];
    let mut nodes = 0u64;
    let mut search = Search {
        inst,
        best,
        nodes: &mut nodes,
        pruned: 0,
    };
    search.dfs(&mut path, &mut visited, 0.0, inst.prize(depot));
    let pruned = search.pruned;
    let best = search.best;
    rec.add("bnb.nodes", nodes);
    rec.add("bnb.pruned", pruned);
    best
}

struct Search<'a> {
    inst: &'a OrienteeringInstance,
    best: OrienteeringSolution,
    nodes: &'a mut u64,
    pruned: u64,
}

impl Search<'_> {
    fn dfs(&mut self, path: &mut Vec<usize>, visited: &mut [bool], cost: f64, prize: f64) {
        *self.nodes += 1;
        assert!(
            *self.nodes <= MAX_NODES,
            "branch-and-bound node budget exhausted; instance too large for exact search"
        );
        let inst = self.inst;
        let depot = inst.depot();
        #[expect(
            clippy::expect_used,
            reason = "dfs is always entered with the depot pushed"
        )]
        let last = *path.last().expect("path holds at least the depot");

        // Current path closes into a feasible tour (reachability prunes
        // guarantee it); update the incumbent.
        let close = cost + inst.dist(last, depot);
        debug_assert!(close <= inst.budget + 1e-9);
        if prize > self.best.prize + 1e-12
            || (prize >= self.best.prize - 1e-12 && close < self.best.cost - 1e-12)
        {
            self.best = OrienteeringSolution {
                tour: path.clone(),
                cost: close,
                prize,
            };
        }

        // Candidate children: reachable unvisited vertices.
        let mut children: Vec<(usize, f64)> = Vec::new();
        let mut bound = 0.0;
        for (v, &seen) in visited.iter().enumerate() {
            if seen {
                continue;
            }
            let extend = cost + inst.dist(last, v) + inst.dist(v, depot);
            if extend <= inst.budget + 1e-12 {
                bound += inst.prize(v);
                if inst.prize(v) > 0.0 || children.is_empty() {
                    children.push((v, inst.dist(last, v)));
                }
            }
        }
        if prize + bound <= self.best.prize + 1e-12 {
            self.pruned += 1;
            return; // even collecting every reachable prize cannot win
        }
        // Best ratio first: prize per approach distance.
        children.sort_by(|a, b| {
            let ra = inst.prize(a.0) / a.1.max(1e-12);
            let rb = inst.prize(b.0) / b.1.max(1e-12);
            uavdc_geom::cmp_f64_desc(ra, rb).then(a.0.cmp(&b.0))
        });
        for (v, d) in children {
            let new_cost = cost + d;
            // Re-check closure (the bound above used each vertex
            // independently).
            if new_cost + inst.dist(v, depot) > inst.budget + 1e-12 {
                continue;
            }
            visited[v] = true;
            path.push(v);
            self.dfs(path, visited, new_cost, prize + inst.prize(v));
            path.pop();
            visited[v] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uavdc_graph::DistMatrix;

    fn random_instance(seed: u64, n: usize, budget: f64) -> OrienteeringInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let prizes: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        OrienteeringInstance::new(DistMatrix::from_euclidean(&pts), prizes, 0, budget)
    }

    #[test]
    fn trivial_instances() {
        let e = OrienteeringInstance::new(DistMatrix::zeros(0), vec![], 0, 1.0);
        assert!(solve_bnb(&e).tour.is_empty());
        let one = OrienteeringInstance::new(DistMatrix::zeros(1), vec![5.0], 0, 0.0);
        let s = solve_bnb(&one);
        assert_eq!(s.tour, vec![0]);
        assert_eq!(s.prize, 5.0);
    }

    #[test]
    fn matches_dp_on_line() {
        let m = DistMatrix::from_euclidean(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
            (10.0, 0.0),
        ]);
        let inst = OrienteeringInstance::new(m, vec![0.0, 1.0, 2.0, 3.0, 50.0], 0, 8.0);
        let bnb = solve_bnb(&inst);
        let dp = solve_exact(&inst);
        assert_eq!(bnb.prize, dp.prize);
        assert!(inst.verify(&bnb));
    }

    #[test]
    fn handles_more_vertices_than_dp() {
        // 24 non-depot vertices: beyond the DP cap, fine for B&B.
        let inst = random_instance(5, 25, 150.0);
        let s = solve_bnb(&inst);
        assert!(inst.verify(&s));
        // Must be at least as good as greedy (it seeds from it).
        let greedy = crate::greedy::solve_greedy(&inst);
        assert!(s.prize >= greedy.prize - 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_bnb_matches_subset_dp(
            seed in 0u64..2000,
            n in 2usize..11,
            budget in 10.0f64..350.0,
        ) {
            let inst = random_instance(seed, n, budget);
            let bnb = solve_bnb(&inst);
            let dp = solve_exact(&inst);
            prop_assert!(inst.verify(&bnb));
            prop_assert!((bnb.prize - dp.prize).abs() < 1e-9,
                "bnb {} vs dp {}", bnb.prize, dp.prize);
        }
    }
}
