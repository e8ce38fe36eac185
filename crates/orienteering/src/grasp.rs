//! GRASP + iterated local search for orienteering.
//!
//! Each GRASP iteration builds a randomized greedy tour (restricted
//! candidate list over prize/cost ratios), improves it with 2-opt and
//! further insertions, then runs a short iterated-local-search loop that
//! shakes the solution by ejecting random vertices and refilling. Fully
//! deterministic for a fixed seed.

use crate::local::{best_insertion, fill_insertions, two_opt_cost};
use crate::{OrienteeringInstance, OrienteeringSolution};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// GRASP parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraspConfig {
    /// Number of independent randomized constructions.
    pub iterations: usize,
    /// RCL threshold in `(0, 1]`: a candidate joins the restricted list
    /// when its ratio is at least `alpha` times the best ratio. `1.0`
    /// degenerates to pure greedy.
    pub alpha: f64,
    /// Shake/refill rounds per construction.
    pub ils_rounds: usize,
    /// RNG seed: identical seeds give identical solutions.
    pub seed: u64,
}

impl Default for GraspConfig {
    fn default() -> Self {
        GraspConfig {
            iterations: 12,
            alpha: 0.6,
            ils_rounds: 8,
            seed: 0x5eed_cafe,
        }
    }
}

impl GraspConfig {
    /// A lighter configuration for benchmarking large sweeps.
    pub fn fast() -> Self {
        GraspConfig {
            iterations: 4,
            alpha: 0.6,
            ils_rounds: 3,
            seed: 0x5eed_cafe,
        }
    }
}

/// GRASP/ILS solver. Always feasible; never worse than depot-only.
// Outside tests the crate dispatches through solve_grasp_obs directly.
#[cfg_attr(not(test), allow(dead_code))]
pub fn solve_grasp(inst: &OrienteeringInstance, cfg: &GraspConfig) -> OrienteeringSolution {
    solve_grasp_obs(inst, cfg, &uavdc_obs::NOOP)
}

/// Like [`solve_grasp`], reporting `grasp.iterations` (constructions run)
/// and `grasp.improvements` (incumbent updates) to `rec`. Effort counters
/// are accumulated locally and flushed once, so the recorder adds no work
/// to the search loop itself.
pub fn solve_grasp_obs(
    inst: &OrienteeringInstance,
    cfg: &GraspConfig,
    rec: &dyn uavdc_obs::Recorder,
) -> OrienteeringSolution {
    if inst.is_empty() {
        return OrienteeringSolution {
            tour: Vec::new(),
            cost: 0.0,
            prize: 0.0,
        };
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut best = inst.trivial_solution();
    let mut improvements = 0u64;
    for _ in 0..cfg.iterations.max(1) {
        let mut tour = randomized_construction(inst, cfg.alpha, &mut rng);
        let mut cost = two_opt_cost(inst, &mut tour);
        let mut in_tour = vec![false; inst.len()];
        for &v in &tour {
            in_tour[v] = true;
        }
        cost = fill_insertions(inst, &mut tour, &mut in_tour, cost);
        let prize = inst.tour_prize(&tour);
        if prize > best.prize {
            improvements += 1;
            best = OrienteeringSolution {
                tour: tour.clone(),
                cost,
                prize,
            };
        }
        // Iterated local search: eject a few random vertices, refill.
        for _ in 0..cfg.ils_rounds {
            if tour.len() <= 1 {
                break;
            }
            let evict = 1 + rng.gen_range(0..tour.len().div_ceil(4).max(1));
            for _ in 0..evict {
                if tour.len() <= 1 {
                    break;
                }
                let i = 1 + rng.gen_range(0..tour.len() - 1);
                in_tour[tour[i]] = false;
                tour.remove(i);
            }
            let c = two_opt_cost(inst, &mut tour);
            let _ = fill_insertions(inst, &mut tour, &mut in_tour, c);
            let c = two_opt_cost(inst, &mut tour); // recomputes exactly
            let cost = fill_insertions(inst, &mut tour, &mut in_tour, c);
            let prize = inst.tour_prize(&tour);
            if prize > best.prize + 1e-12 || (prize >= best.prize - 1e-12 && cost < best.cost) {
                improvements += 1;
                best = OrienteeringSolution {
                    tour: tour.clone(),
                    cost,
                    prize,
                };
            }
        }
    }
    rec.add("grasp.iterations", cfg.iterations.max(1) as u64);
    rec.add("grasp.improvements", improvements);
    best
}

/// Randomized greedy construction: repeatedly pick a random member of the
/// restricted candidate list (feasible vertices whose ratio is within
/// `alpha` of the best) and insert it at its cheapest position.
fn randomized_construction(
    inst: &OrienteeringInstance,
    alpha: f64,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let mut tour = vec![inst.depot()];
    let mut in_tour = vec![false; inst.len()];
    in_tour[inst.depot()] = true;
    let mut cost = 0.0;
    let mut candidates: Vec<(usize, f64, usize, f64)> = Vec::new(); // (v, ratio, pos, delta)
    loop {
        candidates.clear();
        let mut best_ratio: f64 = -1.0;
        #[allow(clippy::needless_range_loop)] // several arrays indexed by v
        for v in 0..inst.len() {
            if in_tour[v] || inst.prize(v) <= 0.0 {
                continue;
            }
            let (delta, pos) = best_insertion(inst, &tour, v);
            if cost + delta > inst.budget + 1e-12 {
                continue;
            }
            let ratio = if delta <= 1e-12 {
                f64::MAX
            } else {
                inst.prize(v) / delta
            };
            best_ratio = best_ratio.max(ratio);
            candidates.push((v, ratio, pos, delta));
        }
        if candidates.is_empty() {
            return tour;
        }
        #[expect(
            clippy::float_cmp,
            reason = "sentinel comparison against the exact f64::MAX assigned above"
        )]
        let threshold = if best_ratio == f64::MAX {
            f64::MAX
        } else {
            alpha * best_ratio
        };
        let rcl: Vec<&(usize, f64, usize, f64)> =
            candidates.iter().filter(|c| c.1 >= threshold).collect();
        let pick = rcl[rng.gen_range(0..rcl.len())];
        tour.insert(pick.2, pick.0);
        in_tour[pick.0] = true;
        cost += pick.3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::greedy::solve_greedy;
    use proptest::prelude::*;
    use rand::Rng;
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
    fn deterministic_for_fixed_seed() {
        let inst = random_instance(7, 25, 120.0);
        let cfg = GraspConfig::default();
        let a = solve_grasp(&inst, &cfg);
        let b = solve_grasp(&inst, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_still_feasible() {
        let inst = random_instance(11, 30, 150.0);
        for seed in 0..5 {
            let s = solve_grasp(
                &inst,
                &GraspConfig {
                    seed,
                    ..GraspConfig::default()
                },
            );
            assert!(inst.verify(&s), "seed {seed} produced invalid solution");
        }
    }

    #[test]
    fn at_least_as_good_as_greedy_typically() {
        // GRASP includes greedy-like constructions; on this instance it
        // must match or beat plain greedy.
        let inst = random_instance(3, 20, 100.0);
        let g = solve_greedy(&inst);
        let s = solve_grasp(&inst, &GraspConfig::default());
        assert!(
            s.prize >= g.prize - 1e-9,
            "grasp {} < greedy {}",
            s.prize,
            g.prize
        );
    }

    #[test]
    fn zero_iterations_clamped_to_one() {
        let inst = random_instance(5, 10, 50.0);
        let s = solve_grasp(
            &inst,
            &GraspConfig {
                iterations: 0,
                ..GraspConfig::default()
            },
        );
        assert!(inst.verify(&s));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_grasp_feasible_and_bounded_by_exact(
            seed in 0u64..1000,
            n in 4usize..11,
            budget in 10.0f64..300.0,
        ) {
            let inst = random_instance(seed, n, budget);
            let grasp = solve_grasp(&inst, &GraspConfig::default());
            prop_assert!(inst.verify(&grasp));
            let exact = solve_exact(&inst);
            prop_assert!(grasp.prize <= exact.prize + 1e-9,
                "grasp {} beat exact {}", grasp.prize, exact.prize);
            // GRASP is a heuristic: on most tiny instances it is optimal,
            // but adversarial tight budgets (where only one specific far
            // combination fits) can defeat it. Keep a meaningful but
            // robust floor; optimality-gap statistics live in the
            // ablation bench.
            prop_assert!(grasp.prize >= 0.55 * exact.prize - 1e-9,
                "grasp {} far below exact {}", grasp.prize, exact.prize);
        }
    }
}
