//! Multi-UAV fleet planning — the paper's natural extension.
//!
//! The paper plans for a single UAV and cites multi-UAV trajectory work
//! (Mozaffari et al.) as the broader setting. This module lifts any
//! single-UAV [`Planner`] to a fleet of `m` identical UAVs sharing the
//! depot: devices are partitioned into `m` disjoint groups (balanced
//! angular sectors around the depot, or k-means clusters), each group
//! becomes a sub-scenario, and the inner planner plans each UAV's tour
//! independently. Disjoint groups guarantee no device is collected twice,
//! so the fleet plan passes [`check_fleet`](crate::validate::check_fleet)
//! against the *original* scenario.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes UAVs, sectors and candidate ids it built itself; the fleet tests in `tests/extensions.rs` validate and simulate every strategy"
)]

use crate::plan::CollectionPlan;
use crate::Planner;
use uavdc_geom::{cmp_f64, Point2};
use uavdc_net::units::{Joules, MegaBytes};
use uavdc_net::{DeviceId, Scenario};

/// How devices are split among the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FleetPartition {
    /// Contiguous angular sectors around the depot, cut so every sector
    /// holds roughly the same total data volume. Cheap and works well
    /// for a central depot.
    #[default]
    Sectors,
    /// Lloyd's k-means on device positions with deterministic
    /// farthest-point initialisation. Better for clustered deployments.
    KMeans,
}

/// Fleet configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of UAVs (each with the scenario's full battery).
    pub fleet_size: usize,
    /// Device partitioning strategy.
    pub partition: FleetPartition,
}

impl FleetConfig {
    /// A fleet of `m` UAVs with the default (sector) partition.
    pub fn new(fleet_size: usize) -> Self {
        FleetConfig {
            fleet_size,
            partition: FleetPartition::default(),
        }
    }
}

/// A plan per UAV. Produced by [`MultiUavPlanner::plan_fleet`].
#[derive(Clone, Debug)]
pub struct FleetPlan {
    /// One collection plan per UAV, each starting and ending at the
    /// shared depot. Device ids refer to the *original* scenario.
    pub plans: Vec<CollectionPlan>,
}

impl FleetPlan {
    /// Total volume collected by the whole fleet.
    pub fn collected_volume(&self) -> MegaBytes {
        self.plans
            .iter()
            .map(CollectionPlan::collected_volume)
            .sum()
    }

    /// Highest per-UAV energy demand (each UAV has its own battery).
    pub fn max_energy(&self, scenario: &Scenario) -> Joules {
        self.plans
            .iter()
            .map(|p| p.total_energy(scenario))
            .fold(Joules::ZERO, Joules::max)
    }
}

/// Lifts a single-UAV planner to a fleet.
#[derive(Clone, Debug)]
pub struct MultiUavPlanner<P: Planner> {
    /// The single-UAV planner run on each partition.
    pub inner: P,
    /// Fleet parameters.
    pub config: FleetConfig,
}

impl<P: Planner> MultiUavPlanner<P> {
    /// Creates a fleet planner.
    pub fn new(inner: P, config: FleetConfig) -> Self {
        MultiUavPlanner { inner, config }
    }

    /// Plans the whole fleet.
    ///
    /// # Panics
    /// Panics when `fleet_size == 0`.
    pub fn plan_fleet(&self, scenario: &Scenario) -> FleetPlan {
        let m = self.config.fleet_size;
        assert!(m >= 1, "fleet needs at least one UAV");
        if scenario.num_devices() == 0 {
            return FleetPlan {
                plans: vec![CollectionPlan::empty(); m],
            };
        }
        let groups = match self.config.partition {
            FleetPartition::Sectors => sector_partition(scenario, m),
            FleetPartition::KMeans => kmeans_partition(scenario, m),
        };
        debug_assert_eq!(groups.len(), m);
        let mut plans = Vec::with_capacity(m);
        for group in groups {
            if group.is_empty() {
                plans.push(CollectionPlan::empty());
                continue;
            }
            let sub = Scenario {
                devices: group.iter().map(|&g| scenario.devices[g]).collect(),
                ..scenario.clone()
            };
            let mut plan = self.inner.plan(&sub);
            // Remap sub-scenario device ids back to the original ones.
            for stop in &mut plan.stops {
                for entry in &mut stop.collected {
                    entry.0 = DeviceId(group[entry.0.index()] as u32);
                }
            }
            plans.push(plan);
        }
        let fleet = FleetPlan { plans };
        crate::validate::debug_check_fleet(
            "MultiUavPlanner::plan_fleet",
            scenario,
            &fleet,
            crate::validate::Profile::P3Partial,
        );
        fleet
    }
}

/// Balanced angular sectors: sort devices by angle around the depot, then
/// cut the circular order into `m` contiguous runs of roughly equal data
/// volume.
fn sector_partition(scenario: &Scenario, m: usize) -> Vec<Vec<usize>> {
    let depot = scenario.depot;
    let mut by_angle: Vec<(f64, usize)> = scenario
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| ((d.pos.y - depot.y).atan2(d.pos.x - depot.x), i))
        .collect();
    by_angle.sort_by(|a, b| cmp_f64(a.0, b.0).then(a.1.cmp(&b.1)));
    let total: f64 = scenario.devices.iter().map(|d| d.data.value()).sum();
    let target = total / m as f64;
    let mut groups = vec![Vec::new(); m];
    let mut g = 0;
    let mut acc = 0.0;
    for (_, i) in by_angle {
        if g + 1 < m && acc >= target {
            g += 1;
            acc = 0.0;
        }
        groups[g].push(i);
        acc += scenario.devices[i].data.value();
    }
    groups
}

/// Deterministic k-means: farthest-point initialisation from the device
/// nearest the depot, then 25 Lloyd iterations (or until stable).
fn kmeans_partition(scenario: &Scenario, m: usize) -> Vec<Vec<usize>> {
    let pts = scenario.device_positions();
    let n = pts.len();
    if m >= n {
        // One device per UAV, extra UAVs idle.
        let mut groups = vec![Vec::new(); m];
        for (i, g) in (0..n).zip(groups.iter_mut()) {
            g.push(i);
        }
        return groups;
    }
    // Farthest-point seeding.
    let mut centers: Vec<Point2> = Vec::with_capacity(m);
    #[expect(
        clippy::expect_used,
        reason = "n > 0 is checked at the top of this function"
    )]
    let first = (0..n)
        .min_by(|&a, &b| {
            cmp_f64(
                pts[a].distance_sq(scenario.depot),
                pts[b].distance_sq(scenario.depot),
            )
        })
        .expect("non-empty");
    centers.push(pts[first]);
    while centers.len() < m {
        #[expect(
            clippy::expect_used,
            reason = "n > 0 is checked at the top of this function"
        )]
        let far = (0..n)
            .max_by(|&a, &b| {
                let da = centers
                    .iter()
                    .map(|c| c.distance_sq(pts[a]))
                    .fold(f64::INFINITY, f64::min);
                let db = centers
                    .iter()
                    .map(|c| c.distance_sq(pts[b]))
                    .fold(f64::INFINITY, f64::min);
                cmp_f64(da, db).then(a.cmp(&b))
            })
            .expect("non-empty");
        centers.push(pts[far]);
    }
    // Lloyd iterations.
    let mut assignment = vec![0usize; n];
    for _ in 0..25 {
        let mut changed = false;
        for (i, p) in pts.iter().enumerate() {
            #[expect(clippy::expect_used, reason = "FleetConfig guarantees m >= 1")]
            let best = (0..m)
                .min_by(|&a, &b| cmp_f64(centers[a].distance_sq(*p), centers[b].distance_sq(*p)))
                .expect("m >= 1");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![(Point2::ORIGIN, 0usize); m];
        for (i, &a) in assignment.iter().enumerate() {
            sums[a].0 += pts[i];
            sums[a].1 += 1;
        }
        for (k, center) in centers.iter_mut().enumerate() {
            if sums[k].1 > 0 {
                *center = sums[k].0 / sums[k].1 as f64;
            }
        }
    }
    let mut groups = vec![Vec::new(); m];
    for (i, &a) in assignment.iter().enumerate() {
        groups[a].push(i);
    }
    groups
}

/// Joint fleet planner: instead of partitioning devices up front, runs
/// Algorithm 2's max-ρ greedy over *all* tours simultaneously — each
/// iteration picks the best (candidate, UAV) pair, so UAVs compete for
/// hovering locations and the workload balances itself. Usually at least
/// as good as partition-first planning, at the cost of a joint search.
#[derive(Clone, Copy, Debug)]
pub struct JointFleetPlanner {
    /// Number of UAVs.
    pub fleet_size: usize,
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Drop dominated candidates before planning.
    pub prune_dominated: bool,
}

impl JointFleetPlanner {
    /// Creates a joint planner with default grid settings.
    pub fn new(fleet_size: usize) -> Self {
        JointFleetPlanner {
            fleet_size,
            delta: 10.0,
            prune_dominated: true,
        }
    }

    /// Plans all tours jointly.
    ///
    /// # Panics
    /// Panics when `fleet_size == 0`.
    pub fn plan_fleet(&self, scenario: &Scenario) -> FleetPlan {
        use crate::candidates::CandidateSet;
        use crate::plan::HoverStop;
        use crate::tourutil::{cheapest_insertion_point, closed_tour_length};
        use uavdc_net::units::Seconds;

        let m = self.fleet_size;
        assert!(m >= 1, "fleet needs at least one UAV");
        let mut candidates = CandidateSet::build(scenario, self.delta);
        if self.prune_dominated {
            candidates.prune_dominated();
        }
        if candidates.is_empty() {
            return FleetPlan {
                plans: vec![CollectionPlan::empty(); m],
            };
        }
        let capacity = scenario.uav.capacity.value();
        let eta_h = scenario.uav.hover_power.value();
        let per_m = scenario.uav.travel_energy_per_meter().value();
        let b = scenario.radio.bandwidth.value();

        let mut collected = vec![false; scenario.num_devices()];
        let mut active = vec![true; candidates.len()];
        // Per-UAV state: tour points (depot first), stop lists, energies.
        let mut tours: Vec<Vec<Point2>> = vec![vec![scenario.depot]; m];
        let mut stop_of: Vec<Vec<usize>> = vec![vec![usize::MAX]; m];
        let mut stops: Vec<Vec<HoverStop>> = vec![Vec::new(); m];
        let mut hover: Vec<f64> = vec![0.0; m];
        let mut tour_len: Vec<f64> = vec![0.0; m];

        loop {
            // Best (candidate, uav) by ρ.
            let mut best: Option<(usize, usize, usize, f64, f64)> = None; // (cand, uav, pos, tau, ratio)
                                                                          // Indexing, not iterating: the body deactivates entries of
                                                                          // `active` while scanning it.
            #[allow(clippy::needless_range_loop)]
            for c in 0..candidates.len() {
                if !active[c] {
                    continue;
                }
                let cand = candidates.get(c);
                let mut vol = 0.0f64;
                let mut tau = 0.0f64;
                for &v in cand.covered {
                    if !collected[v as usize] {
                        let d = scenario.devices[v as usize].data.value();
                        vol += d;
                        tau = tau.max(d / b);
                    }
                }
                if vol <= 0.0 {
                    active[c] = false;
                    continue;
                }
                for u in 0..m {
                    let (dl, pos) = cheapest_insertion_point(&tours[u], cand.pos);
                    let total = hover[u] + tau * eta_h + (tour_len[u] + dl) * per_m;
                    if total > capacity {
                        continue;
                    }
                    let ratio = vol / (tau * eta_h + dl * per_m).max(1e-12);
                    let better = match best {
                        None => true,
                        Some((bc, bu, _, _, br)) => {
                            ratio > br + 1e-15 || (ratio >= br - 1e-15 && (c, u) < (bc, bu))
                        }
                    };
                    if better {
                        best = Some((c, u, pos, tau, ratio));
                    }
                }
            }
            let Some((c, u, pos, tau, _)) = best else {
                break;
            };
            let cand = candidates.get(c);
            let mut entries = Vec::new();
            for &v in cand.covered {
                if !collected[v as usize] {
                    collected[v as usize] = true;
                    entries.push((DeviceId(v), scenario.devices[v as usize].data));
                }
            }
            stops[u].push(HoverStop {
                pos: cand.pos,
                sojourn: Seconds(tau),
                collected: entries,
            });
            let stop_idx = stops[u].len() - 1;
            tours[u].insert(pos, cand.pos);
            stop_of[u].insert(pos, stop_idx);
            tour_len[u] = closed_tour_length(&tours[u]);
            hover[u] += tau * eta_h;
            active[c] = false;
        }

        let plans = (0..m)
            .map(|u| {
                let ordered = stop_of[u]
                    .iter()
                    .skip(1)
                    .map(|&s| stops[u][s].clone())
                    .collect();
                let mut plan = CollectionPlan { stops: ordered };
                crate::polish::polish_plan(&mut plan, scenario);
                plan
            })
            .collect();
        let fleet = FleetPlan { plans };
        crate::validate::debug_check_fleet(
            "JointFleetPlanner::plan_fleet",
            scenario,
            &fleet,
            crate::validate::Profile::P1FullDisjoint,
        );
        fleet
    }
}

/// Multi-UAV Algorithm 1: reduce the no-overlap fleet problem to *team
/// orienteering* on the same Eq. 9 auxiliary graph Algorithm 1 uses, with
/// one budget per UAV. Because the edge weights fold hovering energies,
/// each team tour's cycle weight is exactly that UAV's energy demand.
#[derive(Clone, Copy, Debug)]
pub struct TeamAlg1Planner {
    /// Number of UAVs.
    pub fleet_size: usize,
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Team-solver improvement rounds (see
    /// [`uavdc_orienteering::TeamConfig`]).
    pub ils_rounds: usize,
}

impl TeamAlg1Planner {
    /// Creates a planner with default grid settings.
    pub fn new(fleet_size: usize) -> Self {
        TeamAlg1Planner {
            fleet_size,
            delta: 10.0,
            ils_rounds: 12,
        }
    }

    /// Plans the fleet by team orienteering over disjoint candidates.
    ///
    /// # Panics
    /// Panics when `fleet_size == 0`.
    pub fn plan_fleet(&self, scenario: &Scenario) -> FleetPlan {
        use crate::auxgraph::AuxGraph;
        use crate::candidates::CandidateSet;
        use crate::plan::HoverStop;
        use uavdc_net::units::Seconds;
        use uavdc_orienteering::{solve_team, TeamConfig};

        assert!(self.fleet_size >= 1, "fleet needs at least one UAV");
        let candidates = CandidateSet::build(scenario, self.delta).disjoint_by_volume(scenario);
        if candidates.is_empty() {
            return FleetPlan {
                plans: vec![CollectionPlan::empty(); self.fleet_size],
            };
        }
        let aux = AuxGraph::build(scenario, &candidates);
        let cfg = TeamConfig {
            teams: self.fleet_size,
            ils_rounds: self.ils_rounds,
            seed: 0x7ea1_a191,
        };
        let solution = solve_team(&aux.instance, &cfg);
        debug_assert!(solution.verify(&aux.instance));

        let b = scenario.radio.bandwidth;
        let plans = solution
            .tours
            .iter()
            .map(|tour| {
                let stops = tour
                    .iter()
                    .skip(1)
                    .map(|&vertex| {
                        let cand = candidates.get(vertex - 1);
                        let mut sojourn = Seconds::ZERO;
                        let collected = cand
                            .covered
                            .iter()
                            .map(|&v| {
                                let data = scenario.devices[v as usize].data;
                                sojourn = sojourn.max(data / b);
                                (DeviceId(v), data)
                            })
                            .collect();
                        HoverStop {
                            pos: cand.pos,
                            sojourn,
                            collected,
                        }
                    })
                    .collect();
                CollectionPlan { stops }
            })
            .collect();
        let fleet = FleetPlan { plans };
        crate::validate::debug_check_fleet(
            "TeamAlg1Planner::plan_fleet",
            scenario,
            &fleet,
            crate::validate::Profile::P1FullDisjoint,
        );
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{check_fleet, Profile};
    use crate::{Alg2Planner, BenchmarkPlanner};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64, n: usize) -> Scenario {
        Scenario {
            region: Aabb::square(400.0),
            devices: (0..n)
                .map(|i| IotDevice {
                    pos: Point2::new(((i * 67) % 400) as f64, ((i * 131) % 400) as f64),
                    data: MegaBytes(100.0 + ((i * 53) % 900) as f64),
                })
                .collect(),
            depot: Point2::new(200.0, 200.0),
            radio: RadioModel::new(Meters(30.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_eval()
            },
        }
    }

    #[test]
    fn fleet_of_one_matches_single_planner() {
        let s = scenario(30_000.0, 25);
        let single = Alg2Planner::default().plan(&s);
        let fleet =
            MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(1)).plan_fleet(&s);
        check_fleet(&s, &fleet, Profile::P2FullOverlap).unwrap();
        assert_eq!(fleet.plans.len(), 1);
        assert_eq!(fleet.collected_volume(), single.collected_volume());
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let s = scenario(30_000.0, 40);
        for groups in [sector_partition(&s, 4), kmeans_partition(&s, 4)] {
            let mut seen = vec![false; s.num_devices()];
            for g in &groups {
                for &i in g {
                    assert!(!seen[i], "device {i} in two groups");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&x| x), "some device unassigned");
        }
    }

    #[test]
    fn larger_fleet_collects_more_when_constrained() {
        // Devices on a ring 100 m from the depot; the battery reaches the
        // ring but can only traverse a short arc, so every extra UAV
        // harvests a fresh sector.
        let mut s = scenario(26_000.0, 0);
        s.devices = (0..24)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * (i as f64) / 24.0;
                IotDevice {
                    pos: Point2::new(200.0 + 100.0 * a.cos(), 200.0 + 100.0 * a.sin()),
                    data: MegaBytes(500.0),
                }
            })
            .collect();
        let one = MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(1)).plan_fleet(&s);
        let three =
            MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(3)).plan_fleet(&s);
        check_fleet(&s, &one, Profile::P2FullOverlap).unwrap();
        check_fleet(&s, &three, Profile::P2FullOverlap).unwrap();
        let (v1, v3) = (
            one.collected_volume().value(),
            three.collected_volume().value(),
        );
        assert!(v1 > 0.0, "single UAV should reach the ring");
        assert!(v3 < s.total_data().value() + 1e-6);
        assert!(v3 > 1.5 * v1, "3 UAVs {v3} should far exceed 1 UAV {v1}");
    }

    #[test]
    fn kmeans_partition_works_with_benchmark_planner() {
        let s = scenario(40_000.0, 30);
        let fleet = MultiUavPlanner::new(
            BenchmarkPlanner,
            FleetConfig {
                fleet_size: 2,
                partition: FleetPartition::KMeans,
            },
        )
        .plan_fleet(&s);
        check_fleet(&s, &fleet, Profile::P1FullDisjoint).unwrap();
        assert!(fleet.collected_volume().value() > 0.0);
        assert!(fleet.max_energy(&s) <= s.uav.capacity);
    }

    #[test]
    fn more_uavs_than_devices_leaves_spares_idle() {
        let s = scenario(30_000.0, 3);
        let fleet = MultiUavPlanner::new(
            Alg2Planner::default(),
            FleetConfig {
                fleet_size: 6,
                partition: FleetPartition::KMeans,
            },
        )
        .plan_fleet(&s);
        check_fleet(&s, &fleet, Profile::P2FullOverlap).unwrap();
        assert_eq!(fleet.plans.len(), 6);
        let active = fleet.plans.iter().filter(|p| !p.stops.is_empty()).count();
        assert!(active <= 3);
    }

    #[test]
    fn empty_scenario_gives_empty_fleet_plans() {
        let mut s = scenario(1000.0, 5);
        s.devices.clear();
        let fleet =
            MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(3)).plan_fleet(&s);
        assert_eq!(fleet.plans.len(), 3);
        assert_eq!(fleet.collected_volume(), MegaBytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one UAV")]
    fn zero_fleet_rejected() {
        let s = scenario(1000.0, 5);
        let _ = MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(0)).plan_fleet(&s);
    }

    #[test]
    fn team_alg1_fleet_validates_and_scales() {
        let s = scenario(20_000.0, 40);
        let one = TeamAlg1Planner::new(1).plan_fleet(&s);
        check_fleet(&s, &one, Profile::P1FullDisjoint).unwrap();
        let three = TeamAlg1Planner::new(3).plan_fleet(&s);
        check_fleet(&s, &three, Profile::P1FullDisjoint).unwrap();
        assert_eq!(three.plans.len(), 3);
        assert!(
            three.collected_volume().value() >= one.collected_volume().value() - 1e-6,
            "3 UAVs {} < 1 UAV {}",
            three.collected_volume(),
            one.collected_volume()
        );
        assert!(three.max_energy(&s) <= s.uav.capacity);
    }

    #[test]
    fn team_alg1_single_uav_comparable_to_alg1() {
        let s = scenario(25_000.0, 30);
        let fleet = TeamAlg1Planner::new(1).plan_fleet(&s);
        check_fleet(&s, &fleet, Profile::P1FullDisjoint).unwrap();
        let single = crate::Alg1Planner::default().plan(&s);
        let (vf, vs) = (
            fleet.collected_volume().value(),
            single.collected_volume().value(),
        );
        assert!(vf >= 0.7 * vs, "team-of-1 {vf} far below alg1 {vs}");
    }

    #[test]
    fn team_alg1_empty_scenario() {
        let mut s = scenario(1000.0, 3);
        s.devices.clear();
        let fleet = TeamAlg1Planner::new(2).plan_fleet(&s);
        assert_eq!(fleet.plans.len(), 2);
        assert_eq!(fleet.collected_volume(), MegaBytes::ZERO);
    }

    #[test]
    fn joint_planner_single_uav_is_feasible_and_comparable_to_alg2() {
        let s = scenario(30_000.0, 30);
        let joint = JointFleetPlanner::new(1).plan_fleet(&s);
        check_fleet(&s, &joint, Profile::P1FullDisjoint).unwrap();
        let alg2 = Alg2Planner::default().plan(&s);
        // Same greedy family; the joint planner skips interim 2-opt so
        // allow a modest gap in either direction.
        let (vj, v2) = (
            joint.collected_volume().value(),
            alg2.collected_volume().value(),
        );
        assert!(vj >= 0.8 * v2, "joint {vj} far below alg2 {v2}");
    }

    #[test]
    fn joint_planner_beats_or_matches_partitioning_on_ring() {
        // Ring scenario where sector cuts are arbitrary: joint planning
        // should do at least as well.
        let mut s = scenario(26_000.0, 0);
        s.devices = (0..24)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * (i as f64) / 24.0;
                IotDevice {
                    pos: Point2::new(200.0 + 100.0 * a.cos(), 200.0 + 100.0 * a.sin()),
                    data: MegaBytes(500.0),
                }
            })
            .collect();
        let joint = JointFleetPlanner::new(3).plan_fleet(&s);
        check_fleet(&s, &joint, Profile::P1FullDisjoint).unwrap();
        let partitioned =
            MultiUavPlanner::new(Alg2Planner::default(), FleetConfig::new(3)).plan_fleet(&s);
        assert!(
            joint.collected_volume().value() >= 0.95 * partitioned.collected_volume().value(),
            "joint {} vs partitioned {}",
            joint.collected_volume(),
            partitioned.collected_volume()
        );
    }

    #[test]
    fn joint_planner_fleet_grows_monotonically() {
        let s = scenario(20_000.0, 40);
        let mut prev = -1.0;
        for m in [1, 2, 4] {
            let fleet = JointFleetPlanner::new(m).plan_fleet(&s);
            check_fleet(&s, &fleet, Profile::P1FullDisjoint).unwrap();
            let v = fleet.collected_volume().value();
            assert!(
                v >= prev - 1e-6,
                "fleet of {m} collected less: {v} < {prev}"
            );
            prev = v;
        }
    }

    #[test]
    fn joint_planner_empty_scenario() {
        let mut s = scenario(1000.0, 5);
        s.devices.clear();
        let fleet = JointFleetPlanner::new(2).plan_fleet(&s);
        assert_eq!(fleet.plans.len(), 2);
        assert_eq!(fleet.collected_volume(), MegaBytes::ZERO);
    }

    #[test]
    fn sector_partition_balances_volume() {
        let s = scenario(30_000.0, 60);
        let groups = sector_partition(&s, 3);
        let volumes: Vec<f64> = groups
            .iter()
            .map(|g| g.iter().map(|&i| s.devices[i].data.value()).sum())
            .collect();
        let total: f64 = volumes.iter().sum();
        for v in &volumes {
            assert!(
                *v > 0.1 * total / 3.0,
                "sector badly unbalanced: {volumes:?}"
            );
        }
    }
}
