//! Solvers for the (closed-tour) orienteering problem.
//!
//! Given a complete edge-weighted graph, a prize on every vertex, a depot,
//! and a budget, the orienteering problem asks for a closed tour through
//! the depot whose total edge weight is at most the budget and whose
//! collected vertex prize is maximum \[Vansteenwegen et al. 2011\].
//!
//! The paper's Algorithm 1 reduces the data-collection maximization
//! problem (no coverage overlap) to exactly this problem on an auxiliary
//! graph whose edge weights fold the hovering energies into the travel
//! energies (its Eq. 9), with the UAV's battery as the budget.
//!
//! Three backends:
//!
//! * [`Backend::Exact`] — Held–Karp-style subset DP, exact, `n <= 17`.
//!   Ground truth for the tests and usable for tiny planning instances.
//! * [`Backend::Greedy`] — cheapest-insertion by prize/cost ratio.
//! * [`Backend::Grasp`] — randomized greedy construction (RCL) + 2-opt +
//!   insertion/removal local search with shake perturbations, seeded and
//!   deterministic. The default for real instances.
//!
//! The theoretical algorithm the paper cites (Bansal et al.'s
//! approximation) is a theory construction built on k-TSP subroutines that
//! published systems do not implement; this solver suite is the standard
//! empirical substitute (see DESIGN.md §4) and is validated against the
//! exact DP on small instances.
//!
//! # Example
//!
//! ```
//! use uavdc_graph::DistMatrix;
//! use uavdc_orienteering::{OrienteeringInstance, Backend, solve};
//!
//! // Four sites on a line; depot at 0; budget only reaches the near ones.
//! let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (50.0, 0.0)]);
//! let inst = OrienteeringInstance::new(m, vec![0.0, 5.0, 5.0, 100.0], 0, 10.0);
//! let sol = solve(&inst, Backend::Exact);
//! assert_eq!(sol.prize, 10.0); // the far prize is unreachable
//! assert!(sol.cost <= 10.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

mod exact;
mod grasp;
mod greedy;
mod insertion;
mod local;
mod problem;
pub mod team;

pub use grasp::GraspConfig;
pub use insertion::{best_insertion, Insertions};
pub use problem::{OrienteeringInstance, OrienteeringSolution};
pub use team::{solve_team, TeamConfig, TeamSolution};

/// Which solver to run.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Backend {
    /// Exact subset DP (`n <= 17`). Panics on larger instances.
    Exact,
    /// Deterministic greedy ratio insertion + 2-opt.
    Greedy,
    /// GRASP/ILS metaheuristic with the given configuration.
    Grasp(GraspConfig),
    /// Exact for tiny instances, GRASP otherwise.
    #[default]
    Auto,
}

/// Solves an orienteering instance with the chosen backend.
///
/// The returned solution is always feasible (`cost <= budget`); when no
/// vertex fits in the budget the solution is the depot alone with its own
/// prize.
pub fn solve(inst: &OrienteeringInstance, backend: Backend) -> OrienteeringSolution {
    solve_obs(inst, backend, &uavdc_obs::NOOP)
}

/// Like [`solve`], reporting backend-specific search effort to `rec`
/// (`grasp.iterations`/`grasp.improvements`).
///
/// The recorder never influences the search: for any `rec`, the returned
/// solution is bit-identical to `solve(inst, backend)`.
pub fn solve_obs(
    inst: &OrienteeringInstance,
    backend: Backend,
    rec: &dyn uavdc_obs::Recorder,
) -> OrienteeringSolution {
    let sol = match backend {
        Backend::Exact => exact::solve_exact(inst),
        Backend::Greedy => greedy::solve_greedy(inst),
        Backend::Grasp(cfg) => grasp::solve_grasp(inst, &cfg, rec),
        Backend::Auto => {
            if inst.len() <= 14 {
                exact::solve_exact(inst)
            } else {
                grasp::solve_grasp(inst, &GraspConfig::default(), rec)
            }
        }
    };
    debug_assert!(
        sol.cost <= inst.budget + 1e-6,
        "solver returned infeasible tour"
    );
    debug_assert!(inst.verify(&sol));
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_graph::DistMatrix;

    fn line_instance(budget: f64) -> OrienteeringInstance {
        let m = DistMatrix::from_euclidean(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
            (10.0, 0.0),
        ]);
        OrienteeringInstance::new(m, vec![0.0, 1.0, 2.0, 3.0, 50.0], 0, budget)
    }

    #[test]
    fn all_backends_feasible_and_ordered() {
        let inst = line_instance(8.0);
        let exact = solve(&inst, Backend::Exact);
        let greedy = solve(&inst, Backend::Greedy);
        let grasp = solve(&inst, Backend::Grasp(GraspConfig::default()));
        assert!(exact.prize >= greedy.prize - 1e-9);
        assert!(exact.prize >= grasp.prize - 1e-9);
        for s in [&exact, &greedy, &grasp] {
            assert!(s.cost <= 8.0 + 1e-9);
            assert_eq!(s.tour[0], 0);
        }
        // Budget 8 reaches vertex 3 and back (cost 6), not vertex 4.
        assert_eq!(exact.prize, 6.0);
    }

    #[test]
    fn zero_budget_keeps_depot_only() {
        let inst = line_instance(0.0);
        for backend in [
            Backend::Exact,
            Backend::Greedy,
            Backend::Grasp(GraspConfig::default()),
        ] {
            let s = solve(&inst, backend);
            assert_eq!(s.tour, vec![0]);
            assert_eq!(s.cost, 0.0);
        }
    }

    #[test]
    fn large_budget_collects_everything() {
        let inst = line_instance(1000.0);
        let s = solve(&inst, Backend::Auto);
        assert_eq!(s.prize, 56.0);
        assert_eq!(s.tour.len(), 5);
    }

    #[test]
    fn auto_switches_backend_by_size() {
        // Just exercise both paths through Auto.
        let small = line_instance(5.0);
        let _ = solve(&small, Backend::Auto);
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| ((i * 37 % 50) as f64, (i * 13 % 50) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let prizes = vec![1.0; 20];
        let inst = OrienteeringInstance::new(m, prizes, 0, 60.0);
        let s = solve(&inst, Backend::Auto);
        assert!(s.cost <= 60.0 + 1e-9);
    }
}
