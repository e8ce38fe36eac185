//! Algorithm 1: the data collection maximization problem *without*
//! hovering coverage overlapping, by reduction to orienteering.
//!
//! Pipeline (paper §IV): partition the region into `δ`-squares, compute
//! `t(s)`, `P(s)`, `w1(s)` per candidate (Eqs. 6–8), build the auxiliary
//! metric graph with Eq. 9 edge weights, and solve orienteering with the
//! battery as the budget. The tour returned by the orienteering solver is
//! the UAV's collection tour; its cycle weight in the auxiliary graph is
//! exactly its energy demand.
//!
//! The "no overlapping" premise is realised by [`CandidateFilter`]:
//! `Disjoint` (default) greedily filters candidates to pairwise-disjoint
//! coverage sets before solving, so awards never double-count a device;
//! `Raw` runs on all candidates exactly as the paper states the algorithm
//! (awards may double-count when coverage overlaps, but the built plan
//! still collects each device once — at its first covering stop).

#![expect(
    clippy::indexing_slicing,
    reason = "indexes candidate and aux-graph vertex ids it built itself; `alg1_goldens` and `alg1_reduction` check its plans"
)]

use crate::auxgraph::AuxGraph;
use crate::candidates::CandidateSet;
use crate::plan::{CollectionPlan, HoverStop};
use crate::Planner;
use uavdc_net::units::Seconds;
use uavdc_net::{DeviceId, Scenario};
use uavdc_obs::{Recorder, Span};
use uavdc_orienteering::{solve, Backend, GraspConfig};

/// How candidates are prepared before the orienteering reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CandidateFilter {
    /// Greedily keep a maximal family of candidates with pairwise-disjoint
    /// coverage (largest covered volume first) — the faithful "no
    /// hovering coverage overlapping" setting.
    #[default]
    Disjoint,
    /// Keep all candidates (plus dominance pruning); awards may
    /// double-count devices shared between overlapping candidates.
    Raw,
}

/// Configuration of [`Alg1Planner`].
#[derive(Clone, Copy, Debug)]
pub struct Alg1Config {
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Candidate preparation.
    pub filter: CandidateFilter,
    /// Orienteering backend.
    pub backend: Backend,
}

impl Default for Alg1Config {
    fn default() -> Self {
        Alg1Config {
            delta: 10.0,
            filter: CandidateFilter::Disjoint,
            backend: Backend::Grasp(GraspConfig::default()),
        }
    }
}

/// Algorithm 1 planner.
#[derive(Clone, Debug, Default)]
pub struct Alg1Planner {
    /// Planner configuration.
    pub config: Alg1Config,
}

impl Alg1Planner {
    /// Creates a planner with the given configuration.
    pub fn new(config: Alg1Config) -> Self {
        Alg1Planner { config }
    }

    /// Like [`Planner::plan`], reporting phase spans (`alg1/candidates`,
    /// `alg1/aux_graph`, `alg1/orienteering`, `alg1/stitch`) and the
    /// surviving candidate count to `rec`. The recorder never influences
    /// planning: for any `rec` the plan is bit-identical to `plan`.
    pub fn plan_obs(&self, scenario: &Scenario, rec: &dyn Recorder) -> CollectionPlan {
        let root = Span::root(rec, "alg1");

        let cand_span = root.child("candidates");
        let mut candidates = CandidateSet::build(scenario, self.config.delta);
        let candidates = match self.config.filter {
            CandidateFilter::Disjoint => candidates.disjoint_by_volume(scenario),
            CandidateFilter::Raw => {
                candidates.prune_dominated();
                candidates
            }
        };
        drop(cand_span);
        rec.add("alg1.candidates", candidates.len() as u64);
        if candidates.is_empty() {
            return CollectionPlan::empty();
        }

        let aux_span = root.child("aux_graph");
        let aux = AuxGraph::build(scenario, &candidates);
        drop(aux_span);

        let solve_span = root.child("orienteering");
        let solution = solve(&aux.instance, self.config.backend, rec);
        drop(solve_span);

        let stitch_span = root.child("stitch");
        // Materialise the plan: visit the tour's candidates in order; each
        // device is collected (fully) at the first stop covering it.
        let b = scenario.radio.bandwidth;
        let mut collected = vec![false; scenario.num_devices()];
        let mut stops = Vec::new();
        for &vertex in solution.tour.iter().skip(1) {
            let cand = candidates.get(vertex - 1);
            let mut stop_collect = Vec::new();
            let mut sojourn = Seconds::ZERO;
            for &v in cand.covered {
                if !collected[v as usize] {
                    collected[v as usize] = true;
                    let data = scenario.devices[v as usize].data;
                    sojourn = sojourn.max(data / b);
                    stop_collect.push((DeviceId(v), data));
                }
            }
            // Under the Raw filter a stop can be fully redundant; keep it
            // on the tour (the energy was budgeted) but hover zero time.
            stops.push(HoverStop {
                pos: cand.pos,
                sojourn,
                collected: stop_collect,
            });
        }
        let plan = CollectionPlan { stops };
        drop(stitch_span);
        crate::validate::debug_check_plan(
            "Alg1Planner",
            scenario,
            &plan,
            crate::validate::Profile::P1FullDisjoint,
        );
        plan
    }
}

impl Planner for Alg1Planner {
    fn name(&self) -> &'static str {
        "Algorithm 1 (orienteering)"
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        self.plan_obs(scenario, &uavdc_obs::NOOP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{check_plan, Profile};
    use uavdc_geom::{Aabb, Point2};
    use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64) -> Scenario {
        // Two clusters: a near one (2 devices coverable together) and a
        // far one.
        Scenario {
            region: Aabb::square(200.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(40.0, 40.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(48.0, 40.0),
                    data: MegaBytes(450.0),
                },
                IotDevice {
                    pos: Point2::new(180.0, 180.0),
                    data: MegaBytes(900.0),
                },
            ],
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn plan_is_valid_and_within_budget() {
        let s = scenario(3000.0);
        let plan = Alg1Planner::default().plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert!(plan.total_energy(&s) <= s.uav.capacity);
    }

    #[test]
    fn tight_budget_prefers_near_cluster() {
        // Reaching the far device costs ~2 * 254 m * 10 J/m ≈ 5.1 kJ; the
        // near cluster costs ~1.2 kJ. With 2 kJ only the near pair fits.
        let s = scenario(2000.0);
        let plan = Alg1Planner::default().plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes(750.0));
    }

    #[test]
    fn generous_budget_collects_everything() {
        let s = scenario(20_000.0);
        let plan = Alg1Planner::default().plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes(1650.0));
    }

    #[test]
    fn zero_budget_collects_nothing() {
        let s = scenario(0.0);
        let plan = Alg1Planner::default().plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes::ZERO);
    }

    #[test]
    fn raw_filter_never_overcollects() {
        let s = scenario(20_000.0);
        let cfg = Alg1Config {
            filter: CandidateFilter::Raw,
            ..Alg1Config::default()
        };
        let plan = Alg1Planner::new(cfg).plan(&s);
        // The checker rejects double collection.
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert!(plan.collected_volume() <= s.total_data());
    }

    #[test]
    fn disjoint_filter_prize_equals_plan_volume() {
        // With disjoint candidates the orienteering prize cannot
        // double-count, so plan volume == claimed volume is implied by
        // validation; additionally no stop may be empty.
        let s = scenario(20_000.0);
        let plan = Alg1Planner::default().plan(&s);
        for stop in &plan.stops {
            assert!(
                !stop.collected.is_empty(),
                "disjoint mode must not produce empty stops"
            );
        }
    }

    #[test]
    fn exact_backend_on_tiny_instance() {
        let s = scenario(3000.0);
        let cfg = Alg1Config {
            delta: 25.0,
            backend: Backend::Exact,
            ..Alg1Config::default()
        };
        let plan = Alg1Planner::new(cfg).plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        // Exact backend must do at least as well as greedy.
        let greedy = Alg1Planner::new(Alg1Config {
            delta: 25.0,
            backend: Backend::Greedy,
            ..Alg1Config::default()
        })
        .plan(&s);
        assert!(plan.collected_volume().value() >= greedy.collected_volume().value() - 1e-9);
    }

    #[test]
    fn empty_scenario_gives_empty_plan() {
        let mut s = scenario(1000.0);
        s.devices.clear();
        let plan = Alg1Planner::default().plan(&s);
        assert!(plan.stops.is_empty());
    }
}
