//! Local-search building blocks shared by the greedy and GRASP solvers.

use crate::insertion::Insertions;
use crate::OrienteeringInstance;
use uavdc_graph::improve::{two_opt_by, TwoOpt};

/// 2-opt cost reduction on a tour of *global* vertex indices, in place
/// (the shared kernel at a 100-sweep cap). Prize is unaffected (the
/// vertex set does not change); only the order — and thus cost —
/// improves. Returns the new cost and the number of moves applied.
pub fn two_opt_cost(inst: &OrienteeringInstance, tour: &mut [usize]) -> (f64, usize) {
    let run = two_opt_from(inst, tour, None);
    (inst.tour_cost(tour), run.moves)
}

/// [`two_opt_cost`]'s kernel run, from the given dirty edges (see
/// [`two_opt_by`]).
pub(crate) fn two_opt_from(
    inst: &OrienteeringInstance,
    tour: &mut [usize],
    dirty: Option<&[bool]>,
) -> TwoOpt {
    two_opt_by(tour, |u, v| inst.dist(u, v), 100, dirty, |_, _| {})
}

/// Greedily inserts every vertex that still fits, best prize/cost ratio
/// first. `in_tour[v]` must reflect `tour` membership; both are updated.
/// Builds one [`Insertions`] cache for the call, so the fill costs
/// O(n·L + k·n) for `k` insertions rather than a full rescan per step;
/// the cache's full rescans are added to `rescans`. Returns the updated
/// cost.
pub fn fill_insertions(
    inst: &OrienteeringInstance,
    tour: &mut Vec<usize>,
    in_tour: &mut [bool],
    cost: f64,
    rescans: &mut u64,
) -> f64 {
    let mut cache = Insertions::new(inst, tour, |v| !in_tour[v] && inst.prize(v) > 0.0);
    let cost = fill_from(inst, &mut cache, tour, in_tour, cost, |_, _| {});
    *rescans += cache.rescans();
    cost
}

/// The loop of [`fill_insertions`] on a cache the caller kept. The cache
/// must describe `tour` and track exactly the vertices a fresh one would
/// (those outside the tour with a positive prize, in ascending order):
/// then every entry and the iteration order equal a fresh cache's, and so
/// do the fill's choices. `on_insert(pos, w)` runs after each insertion.
pub(crate) fn fill_from(
    inst: &OrienteeringInstance,
    cache: &mut Insertions,
    tour: &mut Vec<usize>,
    in_tour: &mut [bool],
    mut cost: f64,
    mut on_insert: impl FnMut(&[usize], usize),
) -> f64 {
    loop {
        let mut best_v = usize::MAX;
        let mut best_pos = 0;
        let mut best_ratio = -1.0;
        let mut best_delta = 0.0;
        for &v in cache.tracked() {
            let (delta, pos) = cache.get(v);
            if cost + delta > inst.budget + 1e-12 {
                continue;
            }
            let ratio = if delta <= 1e-12 {
                f64::INFINITY
            } else {
                inst.prize(v) / delta
            };
            if ratio > best_ratio {
                best_ratio = ratio;
                best_v = v;
                best_pos = pos;
                best_delta = delta;
            }
        }
        if best_v == usize::MAX {
            return cost;
        }
        cache.insert(inst, tour, best_pos, best_v);
        in_tour[best_v] = true;
        cost += best_delta;
        on_insert(tour, best_pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_graph::DistMatrix;

    fn square_instance(budget: f64) -> OrienteeringInstance {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        OrienteeringInstance::new(m, vec![0.0, 1.0, 1.0, 1.0], 0, budget)
    }

    #[test]
    fn two_opt_fixes_crossed_square() {
        let inst = square_instance(100.0);
        let mut tour = vec![0, 2, 1, 3];
        let (cost, moves) = two_opt_cost(&inst, &mut tour);
        assert_eq!(moves, 1);
        assert!((cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_opt_on_small_tours_is_identity() {
        let inst = square_instance(100.0);
        let mut tour = vec![0, 1];
        assert_eq!(two_opt_cost(&inst, &mut tour), (2.0, 0));
        assert_eq!(tour, vec![0, 1]);
    }

    #[test]
    fn fill_insertions_respects_budget() {
        let inst = square_instance(3.9); // full square needs 4.0
        let mut tour = vec![0];
        let mut in_tour = vec![false; 4];
        in_tour[0] = true;
        let cost = fill_insertions(&inst, &mut tour, &mut in_tour, 0.0, &mut 0);
        assert!(cost <= 3.9 + 1e-9);
        assert!(tour.len() < 4, "cannot fit every vertex in budget 3.9");
        assert!((inst.tour_cost(&tour) - cost).abs() < 1e-9);
    }

    #[test]
    fn fill_insertions_takes_everything_when_budget_allows() {
        let inst = square_instance(4.0);
        let mut tour = vec![0];
        let mut in_tour = vec![false; 4];
        in_tour[0] = true;
        let cost = fill_insertions(&inst, &mut tour, &mut in_tour, 0.0, &mut 0);
        assert_eq!(tour.len(), 4);
        assert!((cost - 4.0).abs() < 1e-9);
    }
}
