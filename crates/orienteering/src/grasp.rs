//! GRASP + iterated local search for orienteering.
//!
//! Each GRASP iteration builds a randomized greedy tour (restricted
//! candidate list over prize/cost ratios), improves it with 2-opt and
//! further insertions, then runs a short iterated-local-search loop that
//! shakes the solution by ejecting random vertices and refilling. Fully
//! deterministic for a fixed seed.

use crate::insertion::Insertions;
use crate::local::{fill_from, two_opt_from};
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

/// GRASP/ILS solver. Always feasible; never worse than depot-only.
///
/// Reports `grasp.iterations` (constructions run), `grasp.improvements`
/// (incumbent updates), `grasp.rescans` (full insertion rescans the
/// [`Insertions`] caches fell back to), `grasp.two_opt_moves` (2-opt
/// moves applied), `grasp.idle_two_opts` (2-opt runs that moved nothing),
/// `grasp.idle_fills` (fills that inserted nothing), `grasp.resumed_fills`
/// (fills that resumed the insertion cache instead of building one) and
/// `grasp.dirty_two_opts` (2-opt runs started from the dirty edges) to
/// `rec`. Effort counters are accumulated locally and flushed once, so
/// the recorder adds no work to the search loop itself.
///
/// The search never re-proves what it already knows, and decides exactly
/// as a search that rebuilds everything would (DESIGN.md §4):
/// * an insertion cache describes the tour from the construction on;
///   insertions keep it current and only a 2-opt move or an ejection
///   invalidates it, so a fill after a 2-opt that moved nothing resumes
///   it;
/// * after a 2-opt that converged, every pair of its edges is known not
///   to improve, so the next 2-opt starts from the pairs touching the
///   edges inserted or ejected since ([`two_opt_by`]'s dirty-edge start).
///
/// [`two_opt_by`]: uavdc_graph::improve::two_opt_by
pub fn solve_grasp(
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
    let mut effort = Effort::default();
    for _ in 0..cfg.iterations.max(1) {
        let mut walk = randomized_construction(inst, cfg.alpha, &mut rng);
        let mut cost = walk.two_opt(&mut effort);
        cost = walk.fill(cost, &mut effort);
        let prize = inst.tour_prize(&walk.tour);
        if prize > best.prize {
            improvements += 1;
            best = OrienteeringSolution {
                tour: walk.tour.clone(),
                cost,
                prize,
            };
        }
        // Iterated local search: eject a few random vertices, refill.
        for _ in 0..cfg.ils_rounds {
            if walk.tour.len() <= 1 {
                break;
            }
            let evict = 1 + rng.gen_range(0..walk.tour.len().div_ceil(4).max(1));
            for _ in 0..evict {
                if walk.tour.len() <= 1 {
                    break;
                }
                let i = 1 + rng.gen_range(0..walk.tour.len() - 1);
                walk.eject(i);
            }
            let c = walk.two_opt(&mut effort);
            let _ = walk.fill(c, &mut effort);
            let c = walk.two_opt(&mut effort); // recomputes exactly
            let cost = walk.fill(c, &mut effort);
            let prize = inst.tour_prize(&walk.tour);
            if prize > best.prize + 1e-12 || (prize >= best.prize - 1e-12 && cost < best.cost) {
                improvements += 1;
                best = OrienteeringSolution {
                    tour: walk.tour.clone(),
                    cost,
                    prize,
                };
            }
        }
        effort.rescans += walk.rescans + walk.cache.rescans();
    }
    rec.add("grasp.iterations", cfg.iterations.max(1) as u64);
    rec.add("grasp.improvements", improvements);
    rec.add("grasp.rescans", effort.rescans);
    rec.add("grasp.two_opt_moves", effort.two_opt_moves);
    rec.add("grasp.idle_two_opts", effort.idle_two_opts);
    rec.add("grasp.idle_fills", effort.idle_fills);
    rec.add("grasp.resumed_fills", effort.resumed_fills);
    rec.add("grasp.dirty_two_opts", effort.dirty_two_opts);
    best
}

/// Search-effort counters of one [`solve_grasp`] call, kept in locals
/// and flushed to the recorder once at the end.
#[derive(Default)]
struct Effort {
    /// Full insertion rescans the [`Insertions`] caches fell back to.
    rescans: u64,
    /// 2-opt moves applied.
    two_opt_moves: u64,
    /// 2-opt runs that moved nothing.
    idle_two_opts: u64,
    /// Fills that inserted nothing.
    idle_fills: u64,
    /// Fills that resumed the kept insertion cache.
    resumed_fills: u64,
    /// 2-opt runs started from the dirty edges.
    dirty_two_opts: u64,
}

/// One construction's tour and what the search knows about it.
struct Walk<'a> {
    inst: &'a OrienteeringInstance,
    tour: Vec<usize>,
    in_tour: Vec<bool>,
    /// The insertion cache; it describes `tour` while `cache_current`.
    cache: Insertions,
    cache_current: bool,
    /// Rescans of the caches this walk replaced.
    rescans: u64,
    /// Per vertex: the tour edge leaving it is new since the last 2-opt
    /// that converged.
    dirty: Vec<bool>,
    /// The last 2-opt converged, so only pairs touching a `dirty` edge can
    /// improve.
    certified: bool,
}

impl Walk<'_> {
    /// 2-opt in place, counted; returns the recomputed tour cost.
    fn two_opt(&mut self, effort: &mut Effort) -> f64 {
        let flags: Option<Vec<bool>> = self
            .certified
            .then(|| self.tour.iter().map(|&v| self.dirty[v]).collect());
        effort.dirty_two_opts += u64::from(flags.is_some());
        let run = two_opt_from(self.inst, &mut self.tour, flags.as_deref());
        effort.two_opt_moves += run.moves as u64;
        effort.idle_two_opts += u64::from(run.moves == 0);
        if run.moves > 0 {
            self.cache_current = false;
        }
        self.certified = run.converged;
        if run.converged {
            for &v in &self.tour {
                self.dirty[v] = false;
            }
        }
        self.inst.tour_cost(&self.tour)
    }

    /// [`fill_insertions`](crate::local::fill_insertions) on the kept
    /// cache (rebuilt first when a 2-opt moved), counted.
    fn fill(&mut self, cost: f64, effort: &mut Effort) -> f64 {
        let inst = self.inst;
        if self.cache_current {
            effort.resumed_fills += 1;
        } else {
            let in_tour = &self.in_tour;
            let fresh = Insertions::new(inst, &self.tour, |v| !in_tour[v] && inst.prize(v) > 0.0);
            self.rescans += std::mem::replace(&mut self.cache, fresh).rescans();
            self.cache_current = true;
        }
        let before = self.tour.len();
        let dirty = &mut self.dirty;
        let cost = fill_from(
            inst,
            &mut self.cache,
            &mut self.tour,
            &mut self.in_tour,
            cost,
            |tour, pos| {
                dirty[tour[pos - 1]] = true;
                dirty[tour[pos]] = true;
            },
        );
        effort.idle_fills += u64::from(self.tour.len() == before);
        cost
    }

    /// Removes the vertex at `i` (never the depot at 0). The cache no
    /// longer describes the tour: replaying removals into it costs about
    /// what a fresh build does.
    fn eject(&mut self, i: usize) {
        let v = self.tour.remove(i);
        self.cache_current = false;
        self.in_tour[v] = false;
        self.dirty[self.tour[i - 1]] = true;
    }
}

/// Randomized greedy construction: repeatedly pick a random member of the
/// restricted candidate list (feasible vertices whose ratio is within
/// `alpha` of the best) and insert it at its cheapest position, read from
/// one [`Insertions`] cache kept current across the construction and
/// handed on with the tour.
fn randomized_construction<'a>(
    inst: &'a OrienteeringInstance,
    alpha: f64,
    rng: &mut SmallRng,
) -> Walk<'a> {
    let depot = inst.depot();
    let mut tour = vec![depot];
    let mut cache = Insertions::new(inst, &tour, |v| v != depot && inst.prize(v) > 0.0);
    let mut cost = 0.0;
    let mut candidates: Vec<(usize, f64, usize, f64)> = Vec::new(); // (v, ratio, pos, delta)
    loop {
        candidates.clear();
        let mut best_ratio: f64 = -1.0;
        for &v in cache.tracked() {
            let (delta, pos) = cache.get(v);
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
            break;
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
        cache.insert(inst, &mut tour, pick.2, pick.0);
        cost += pick.3;
    }
    let mut in_tour = vec![false; inst.len()];
    for &v in &tour {
        in_tour[v] = true;
    }
    // The cache tracks the vertices outside the tour with a positive
    // prize, as a fill's fresh cache would.
    Walk {
        inst,
        tour,
        in_tour,
        cache,
        cache_current: true,
        rescans: 0,
        dirty: vec![false; inst.len()],
        certified: false,
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
    use uavdc_obs::NOOP;

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
        let a = solve_grasp(&inst, &cfg, &NOOP);
        let b = solve_grasp(&inst, &cfg, &NOOP);
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
                &NOOP,
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
        let s = solve_grasp(&inst, &GraspConfig::default(), &NOOP);
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
            &NOOP,
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
            let grasp = solve_grasp(&inst, &GraspConfig::default(), &NOOP);
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
