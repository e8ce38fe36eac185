//! The team orienteering problem: `m` tours, one budget each.
//!
//! Generalises orienteering to a fleet: find `m` closed tours through the
//! shared depot, pairwise vertex-disjoint (except the depot), each within
//! the budget, maximising the total prize \[Vansteenwegen et al. 2011\].
//! This is the natural reduction target for multi-UAV variants of the
//! paper's Algorithm 1.
//!
//! Solved with the same machinery as the single-tour case: greedy best
//! (vertex, tour, position) ratio insertion with 2-opt compaction, plus a
//! seeded shake-and-refill improvement loop. Exact solutions for tiny
//! instances come from brute-force vertex-to-tour assignment over the
//! single-tour exact solver (tests only).

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertex ids and UAV tours it built itself; `solver_goldens` and `alg1_goldens` check it"
)]

use crate::insertion::Insertions;
use crate::local::two_opt_cost;
use crate::OrienteeringInstance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A team solution: one tour per team member.
#[derive(Clone, Debug, PartialEq)]
pub struct TeamSolution {
    /// Tours, each starting at the depot; vertex-disjoint apart from it.
    pub tours: Vec<Vec<usize>>,
    /// Cost of each tour.
    pub costs: Vec<f64>,
    /// Total prize over all tours (depot prize counted once).
    pub prize: f64,
}

impl TeamSolution {
    /// Verifies feasibility against the instance: per-tour budgets, depot
    /// starts, and vertex disjointness.
    pub fn verify(&self, inst: &OrienteeringInstance) -> bool {
        let mut seen = vec![false; inst.len()];
        let mut prize = 0.0;
        if !self.tours.is_empty() {
            prize += inst.prize(inst.depot());
        }
        for (tour, &cost) in self.tours.iter().zip(&self.costs) {
            if tour.first() != Some(&inst.depot()) {
                return false;
            }
            let real = inst.tour_cost(tour);
            if (real - cost).abs() > 1e-6 * (1.0 + real) || real > inst.budget + 1e-6 {
                return false;
            }
            for &v in tour.iter().skip(1) {
                if v >= inst.len() || seen[v] || v == inst.depot() {
                    return false;
                }
                seen[v] = true;
                prize += inst.prize(v);
            }
        }
        (prize - self.prize).abs() < 1e-6 * (1.0 + prize)
    }
}

/// Configuration of the team solver.
#[derive(Clone, Copy, Debug)]
pub struct TeamConfig {
    /// Number of tours.
    pub teams: usize,
    /// Shake-and-refill improvement rounds.
    pub ils_rounds: usize,
    /// RNG seed (deterministic for equal seeds).
    pub seed: u64,
}

impl TeamConfig {
    /// `m` tours with default improvement effort.
    pub fn new(teams: usize) -> Self {
        TeamConfig {
            teams,
            ils_rounds: 12,
            seed: 0x7ea1,
        }
    }
}

/// Greedy + ILS team orienteering solver.
///
/// # Panics
/// Panics when `teams == 0`.
pub fn solve_team(inst: &OrienteeringInstance, cfg: &TeamConfig) -> TeamSolution {
    assert!(cfg.teams >= 1, "need at least one team member");
    if inst.is_empty() {
        return TeamSolution {
            tours: Vec::new(),
            costs: Vec::new(),
            prize: 0.0,
        };
    }
    let m = cfg.teams;
    let mut tours: Vec<Vec<usize>> = vec![vec![inst.depot()]; m];
    let mut costs = vec![0.0f64; m];
    let mut in_tour = vec![false; inst.len()];
    in_tour[inst.depot()] = true;

    fill_team(inst, &mut tours, &mut costs, &mut in_tour);
    let mut best = snapshot(inst, &tours, &costs);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.ils_rounds {
        // Shake: eject a random run of vertices from a random tour.
        let t = rng.gen_range(0..m);
        if tours[t].len() > 1 {
            let evict = 1 + rng.gen_range(0..tours[t].len().div_ceil(3).max(1));
            for _ in 0..evict {
                if tours[t].len() <= 1 {
                    break;
                }
                let i = 1 + rng.gen_range(0..tours[t].len() - 1);
                in_tour[tours[t][i]] = false;
                tours[t].remove(i);
            }
            costs[t] = two_opt_cost(inst, &mut tours[t]).0;
        }
        fill_team(inst, &mut tours, &mut costs, &mut in_tour);
        let cand = snapshot(inst, &tours, &costs);
        if cand.prize > best.prize + 1e-12
            || (cand.prize >= best.prize - 1e-12
                && cand.costs.iter().sum::<f64>() < best.costs.iter().sum::<f64>() - 1e-12)
        {
            best = cand;
        } else {
            // Roll back to the best known state for the next shake.
            tours = best.tours.clone();
            costs = best.costs.clone();
            in_tour.iter_mut().for_each(|b| *b = false);
            in_tour[inst.depot()] = true;
            for tour in &tours {
                for &v in tour.iter().skip(1) {
                    in_tour[v] = true;
                }
            }
        }
    }
    debug_assert!(best.verify(inst));
    best
}

fn snapshot(inst: &OrienteeringInstance, tours: &[Vec<usize>], costs: &[f64]) -> TeamSolution {
    let mut prize = inst.prize(inst.depot());
    for tour in tours {
        for &v in tour.iter().skip(1) {
            prize += inst.prize(v);
        }
    }
    TeamSolution {
        tours: tours.to_vec(),
        costs: costs.to_vec(),
        prize,
    }
}

/// Best-ratio insertion across all tours until nothing fits; 2-opt
/// compaction between waves. Each wave keeps one [`Insertions`] cache per
/// tour, built when the wave starts (after the caller's shake or rollback,
/// or after the previous wave's compaction).
fn fill_team(
    inst: &OrienteeringInstance,
    tours: &mut [Vec<usize>],
    costs: &mut [f64],
    in_tour: &mut [bool],
) {
    loop {
        let mut caches: Vec<Insertions> = tours
            .iter()
            .map(|tour| Insertions::new(inst, tour, |v| !in_tour[v] && inst.prize(v) > 0.0))
            .collect();
        let mut inserted = false;
        loop {
            // (vertex, tour, pos, delta) with the best prize/delta ratio.
            let mut best: Option<(usize, usize, usize, f64, f64)> = None;
            for (v, &used) in in_tour.iter().enumerate() {
                if used || inst.prize(v) <= 0.0 {
                    continue;
                }
                for (t, cache) in caches.iter().enumerate() {
                    let (delta, pos) = cache.get(v);
                    if costs[t] + delta > inst.budget + 1e-12 {
                        continue;
                    }
                    let ratio = if delta <= 1e-12 {
                        f64::INFINITY
                    } else {
                        inst.prize(v) / delta
                    };
                    // `(v, t)` is visited in ascending order, so a near-tie
                    // keeps the earlier pair.
                    let better = match best {
                        None => true,
                        Some((_, _, _, _, br)) => ratio > br + 1e-15,
                    };
                    if better {
                        best = Some((v, t, pos, delta, ratio));
                    }
                }
            }
            let Some((v, t, pos, delta, _)) = best else {
                break;
            };
            for (o, cache) in caches.iter_mut().enumerate() {
                if o == t {
                    cache.insert(inst, &mut tours[t], pos, v);
                } else {
                    cache.untrack(v);
                }
            }
            in_tour[v] = true;
            costs[t] += delta;
            inserted = true;
        }
        // Compact every tour; if that freed budget, try another wave.
        let mut freed = false;
        for (t, tour) in tours.iter_mut().enumerate() {
            let new_cost = two_opt_cost(inst, tour).0;
            if new_cost < costs[t] - 1e-9 {
                freed = true;
            }
            costs[t] = new_cost;
        }
        if !(inserted && freed) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::solve_greedy;
    use proptest::prelude::*;
    use rand::Rng;
    use uavdc_graph::DistMatrix;

    fn random_instance(seed: u64, n: usize, budget: f64) -> OrienteeringInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let prizes: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.0)).collect();
        OrienteeringInstance::new(DistMatrix::from_euclidean(&pts), prizes, 0, budget)
    }

    #[test]
    fn empty_instance() {
        let inst = OrienteeringInstance::new(DistMatrix::zeros(0), vec![], 0, 5.0);
        let s = solve_team(&inst, &TeamConfig::new(3));
        assert!(s.tours.is_empty());
    }

    #[test]
    fn single_team_comparable_to_single_tour_greedy() {
        let inst = random_instance(5, 20, 120.0);
        let team = solve_team(&inst, &TeamConfig::new(1));
        assert!(team.verify(&inst));
        let single = solve_greedy(&inst);
        // Same greedy family plus ILS: must not be drastically worse.
        assert!(
            team.prize >= 0.9 * single.prize,
            "team {} vs single {}",
            team.prize,
            single.prize
        );
    }

    #[test]
    fn more_teams_never_collect_less() {
        let inst = random_instance(9, 30, 80.0);
        let mut prev = -1.0;
        for m in [1, 2, 3] {
            let s = solve_team(&inst, &TeamConfig::new(m));
            assert!(s.verify(&inst), "m={m} infeasible");
            assert!(
                s.prize >= prev - 1e-9,
                "m={m}: prize dropped from {prev} to {}",
                s.prize
            );
            prev = s.prize;
        }
    }

    #[test]
    fn two_teams_cover_two_separated_clusters() {
        // Two prize clusters on opposite sides; one budget reaches one
        // cluster, two teams reach both.
        let mut pts = vec![(50.0, 50.0)];
        for i in 0..4 {
            pts.push((5.0 + i as f64, 50.0));
            pts.push((95.0 - i as f64, 50.0));
        }
        let m = DistMatrix::from_euclidean(&pts);
        let prizes = vec![0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0];
        let inst = OrienteeringInstance::new(m, prizes, 0, 100.0);
        let one = solve_team(&inst, &TeamConfig::new(1));
        let two = solve_team(&inst, &TeamConfig::new(2));
        assert!(two.verify(&inst));
        assert!(
            two.prize >= 40.0 - 1e-9,
            "two teams should take both clusters: {}",
            two.prize
        );
        assert!(one.prize < two.prize);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = random_instance(11, 25, 90.0);
        let cfg = TeamConfig {
            teams: 2,
            ils_rounds: 8,
            seed: 42,
        };
        assert_eq!(solve_team(&inst, &cfg), solve_team(&inst, &cfg));
    }

    #[test]
    #[should_panic(expected = "at least one team")]
    fn zero_teams_rejected() {
        let inst = random_instance(1, 5, 10.0);
        let _ = solve_team(&inst, &TeamConfig::new(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_team_solution_always_feasible(
            seed in 0u64..500,
            n in 3usize..20,
            m in 1usize..4,
            budget in 10.0f64..200.0,
        ) {
            let inst = random_instance(seed, n, budget);
            let s = solve_team(&inst, &TeamConfig { teams: m, ils_rounds: 6, seed });
            prop_assert!(s.verify(&inst));
            prop_assert_eq!(s.tours.len(), m);
        }
    }
}
