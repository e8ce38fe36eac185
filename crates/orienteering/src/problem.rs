//! Instance and solution types for the orienteering problem.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertex ids of the instance it is given; the module's unit tests and `solver_goldens` check it"
)]

use uavdc_graph::DistMatrix;

/// A closed-tour orienteering instance.
#[derive(Clone, Debug)]
pub struct OrienteeringInstance {
    dist: DistMatrix,
    prize: Vec<f64>,
    depot: usize,
    /// Maximum total edge weight of the tour (the UAV's energy budget in
    /// the planner's use).
    // lint:allow(raw-quantity): the orienteering layer is dimension-generic; uavdc-core supplies joules at the AuxGraph boundary
    pub budget: f64,
}

impl OrienteeringInstance {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics when `prize` length differs from the matrix size, the depot
    /// is out of range, any prize is negative/non-finite, or the budget is
    /// negative/non-finite.
    // lint:allow(raw-quantity): the orienteering layer is dimension-generic; uavdc-core supplies joules at the AuxGraph boundary
    pub fn new(dist: DistMatrix, prize: Vec<f64>, depot: usize, budget: f64) -> Self {
        assert_eq!(prize.len(), dist.len(), "one prize per vertex");
        assert!(depot < dist.len().max(1), "depot {depot} out of range");
        assert!(
            budget.is_finite() && budget >= 0.0,
            "budget must be finite and >= 0"
        );
        for (v, &p) in prize.iter().enumerate() {
            assert!(
                p.is_finite() && p >= 0.0,
                "prize of vertex {v} must be finite and >= 0"
            );
        }
        OrienteeringInstance {
            dist,
            prize,
            depot,
            budget,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// True when the instance has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// The depot vertex.
    #[inline]
    pub fn depot(&self) -> usize {
        self.depot
    }

    /// Edge weight between vertices.
    #[inline]
    // lint:allow(raw-quantity): the orienteering layer is dimension-generic; uavdc-core supplies joules at the AuxGraph boundary
    pub fn dist(&self, u: usize, v: usize) -> f64 {
        self.dist.get(u, v)
    }

    /// The underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &DistMatrix {
        &self.dist
    }

    /// Prize of a vertex.
    #[inline]
    pub fn prize(&self, v: usize) -> f64 {
        self.prize[v]
    }

    /// Total cyclic cost of a visiting order.
    pub fn tour_cost(&self, tour: &[usize]) -> f64 {
        if tour.len() < 2 {
            return 0.0;
        }
        let mut c = 0.0;
        for k in 0..tour.len() {
            c += self.dist.get(tour[k], tour[(k + 1) % tour.len()]);
        }
        c
    }

    /// Total prize of a visiting order.
    pub fn tour_prize(&self, tour: &[usize]) -> f64 {
        tour.iter().map(|&v| self.prize[v]).sum()
    }

    /// Checks a solution end to end: starts at the depot, visits no vertex
    /// twice, and its claimed cost/prize match recomputation within
    /// tolerance, with the cost within budget.
    pub fn verify(&self, sol: &OrienteeringSolution) -> bool {
        if sol.tour.first() != Some(&self.depot) {
            return false;
        }
        let mut seen = vec![false; self.len()];
        for &v in &sol.tour {
            if v >= self.len() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        let cost = self.tour_cost(&sol.tour);
        let prize = self.tour_prize(&sol.tour);
        (cost - sol.cost).abs() < 1e-6 * (1.0 + cost)
            && (prize - sol.prize).abs() < 1e-6 * (1.0 + prize)
            && cost <= self.budget + 1e-6
    }

    /// The depot-only solution (always feasible).
    pub fn trivial_solution(&self) -> OrienteeringSolution {
        OrienteeringSolution {
            tour: vec![self.depot],
            cost: 0.0,
            prize: self.prize.get(self.depot).copied().unwrap_or(0.0),
        }
    }
}

/// A feasible orienteering tour.
#[derive(Clone, Debug, PartialEq)]
pub struct OrienteeringSolution {
    /// Visiting order, starting at the depot; the closing edge back to the
    /// depot is implicit.
    pub tour: Vec<usize>,
    /// Total cyclic edge weight.
    pub cost: f64,
    /// Total collected prize.
    pub prize: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OrienteeringInstance {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        OrienteeringInstance::new(m, vec![0.0, 10.0, 20.0], 0, 12.0)
    }

    #[test]
    fn cost_and_prize_computation() {
        let inst = small();
        assert_eq!(inst.tour_cost(&[0]), 0.0);
        assert_eq!(inst.tour_cost(&[0, 1]), 6.0);
        assert_eq!(inst.tour_cost(&[0, 1, 2]), 3.0 + 4.0 + 5.0);
        assert_eq!(inst.tour_prize(&[0, 1, 2]), 30.0);
    }

    #[test]
    fn verify_accepts_valid_solution() {
        let inst = small();
        let sol = OrienteeringSolution {
            tour: vec![0, 1, 2],
            cost: 12.0,
            prize: 30.0,
        };
        assert!(inst.verify(&sol));
    }

    #[test]
    fn verify_rejects_wrong_start() {
        let inst = small();
        let sol = OrienteeringSolution {
            tour: vec![1, 0],
            cost: 6.0,
            prize: 10.0,
        };
        assert!(!inst.verify(&sol));
    }

    #[test]
    fn verify_rejects_duplicates_and_overbudget() {
        let inst = small();
        let dup = OrienteeringSolution {
            tour: vec![0, 1, 1],
            cost: 6.0,
            prize: 20.0,
        };
        assert!(!inst.verify(&dup));
        let over = OrienteeringSolution {
            tour: vec![0, 2],
            cost: 10.0,
            prize: 20.0,
        };
        assert!(inst.verify(&over)); // cost 10 <= 12
        let mut inst2 = small();
        inst2.budget = 9.0;
        assert!(!inst2.verify(&over));
    }

    #[test]
    fn verify_rejects_wrong_bookkeeping() {
        let inst = small();
        let bad_cost = OrienteeringSolution {
            tour: vec![0, 1],
            cost: 5.0,
            prize: 10.0,
        };
        assert!(!inst.verify(&bad_cost));
        let bad_prize = OrienteeringSolution {
            tour: vec![0, 1],
            cost: 6.0,
            prize: 11.0,
        };
        assert!(!inst.verify(&bad_prize));
    }

    #[test]
    #[should_panic(expected = "one prize per vertex")]
    fn mismatched_prizes_panic() {
        let m = DistMatrix::zeros(2);
        let _ = OrienteeringInstance::new(m, vec![1.0], 0, 1.0);
    }

    #[test]
    fn trivial_solution_is_depot_only() {
        let inst = small();
        let t = inst.trivial_solution();
        assert_eq!(t.tour, vec![0]);
        assert!(inst.verify(&t));
    }
}
