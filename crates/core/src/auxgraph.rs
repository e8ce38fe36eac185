//! The auxiliary orienteering graph of Algorithm 1 (paper Eq. 6–9).
//!
//! Vertices are the depot plus every candidate hovering location. Each
//! candidate carries its full-collection award `P(s)` (Eq. 6) and hovering
//! energy `w1(s) = t(s)·η_h` (Eq. 8); each edge folds the hovering
//! energies of its endpoints into its weight:
//!
//! ```text
//! w2(s_j, s_k) = (w1(s_j) + w1(s_k)) / 2 + ℓ(s_j, s_k) · η_t / speed
//! ```
//!
//! so that the weight of any *cycle* through a vertex set equals the total
//! hovering + travel energy of the corresponding UAV tour exactly, and the
//! graph stays metric (paper Lemma 1). Solving orienteering with the
//! battery capacity as the budget therefore yields an energy-feasible
//! data-collection tour.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes aux-graph vertices by candidate id; `alg1_reduction` checks the graph against true tour energies"
)]

use crate::candidates::CandidateSet;
use uavdc_geom::Point2;
use uavdc_graph::DistMatrix;
use uavdc_net::units::{Joules, MegaBytes, Seconds};
use uavdc_net::Scenario;
use uavdc_orienteering::OrienteeringInstance;

/// The constructed auxiliary graph plus the mapping back to candidates.
#[derive(Clone, Debug)]
pub struct AuxGraph {
    /// Orienteering instance: vertex 0 is the depot, vertex `i + 1` is
    /// candidate `i`. Edge weights and the budget are joules; prizes are
    /// megabytes (the orienteering layer itself is dimension-generic).
    pub instance: OrienteeringInstance,
    /// Positions of the instance vertices (depot first).
    pub positions: Vec<Point2>,
    /// Hovering energy `w1` of each vertex (zero for the depot).
    pub hover_energy: Vec<Joules>,
    /// Full-collection sojourn `t(s)` of each vertex.
    pub hover_time: Vec<Seconds>,
}

impl AuxGraph {
    /// Builds the auxiliary graph from a candidate set.
    pub fn build(scenario: &Scenario, candidates: &CandidateSet) -> Self {
        let volumes: Vec<MegaBytes> = scenario.devices.iter().map(|d| d.data).collect();
        let n = candidates.len() + 1;
        let mut positions = Vec::with_capacity(n);
        let mut prizes = Vec::with_capacity(n);
        let mut hover_energy = Vec::with_capacity(n);
        let mut hover_time = Vec::with_capacity(n);
        positions.push(scenario.depot);
        prizes.push(0.0);
        hover_energy.push(Joules::ZERO);
        hover_time.push(Seconds::ZERO);
        let eta_h = scenario.uav.hover_power;
        for c in candidates.iter() {
            let t = c.hover_time(&volumes, scenario);
            positions.push(c.pos);
            // lint:allow(unit-unwrap): prizes feed the dimension-generic orienteering layer (megabytes)
            prizes.push(c.coverage_volume(&volumes).value());
            hover_energy.push(eta_h * t);
            hover_time.push(t);
        }
        // The orienteering instance is dimension-generic: its weights and
        // budget are raw f64 carrying joules by the Eq. 9 construction.
        // lint:allow(unit-unwrap): Eq. 9 edge weights enter the generic orienteering layer as joules
        let per_m = scenario.uav.travel_energy_per_meter().value();
        // lint:allow(unit-unwrap): Eq. 9 edge weights enter the generic orienteering layer as joules
        let he: Vec<f64> = hover_energy.iter().map(|e| e.value()).collect();
        let pos = positions.clone();
        let dist = DistMatrix::from_fn(n, |i, j| {
            (he[i] + he[j]) / 2.0 + pos[i].distance(pos[j]) * per_m
        });
        debug_assert!(
            n > 40 || dist.is_metric(1e-9),
            "Eq. 9 weights must be metric (Lemma 1)"
        );
        // lint:allow(unit-unwrap): the orienteering budget is the battery capacity in joules
        let instance = OrienteeringInstance::new(dist, prizes, 0, scenario.uav.capacity.value());
        let aux = AuxGraph {
            instance,
            positions,
            hover_energy,
            hover_time,
        };
        crate::validate::debug_check_aux_graph("AuxGraph::build", &aux);
        aux
    }

    /// Exact hovering + travel energy of the closed tour visiting the
    /// given instance vertices in order — equals the cycle weight in the
    /// auxiliary graph (each endpoint's half-energies summing to `w1`).
    pub fn tour_energy(&self, tour: &[usize]) -> Joules {
        if tour.len() < 2 {
            return self
                .hover_energy
                .get(tour.first().copied().unwrap_or(0))
                .copied()
                .unwrap_or(Joules::ZERO);
        }
        Joules(self.instance.tour_cost(tour))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario() -> Scenario {
        Scenario {
            region: Aabb::square(100.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(20.0, 20.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(80.0, 80.0),
                    data: MegaBytes(600.0),
                },
            ],
            depot: Point2::new(50.0, 50.0),
            radio: RadioModel::new(Meters(15.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(10_000.0),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn depot_is_vertex_zero_with_no_award() {
        let s = scenario();
        let cs = CandidateSet::build(&s, 10.0);
        let g = AuxGraph::build(&s, &cs);
        assert_eq!(g.positions[0], s.depot);
        assert_eq!(g.instance.prize(0), 0.0);
        assert_eq!(g.hover_energy[0], Joules::ZERO);
        assert_eq!(g.instance.depot(), 0);
        assert_eq!(g.instance.len(), cs.len() + 1);
    }

    #[test]
    fn awards_and_hover_energies_follow_eqs_6_to_8() {
        let s = scenario();
        let cs = CandidateSet::build(&s, 10.0);
        let g = AuxGraph::build(&s, &cs);
        for (i, c) in cs.iter().enumerate() {
            let vol: f64 = c
                .covered
                .iter()
                .map(|&v| s.devices[v as usize].data.value())
                .sum();
            let t: f64 = c
                .covered
                .iter()
                .map(|&v| s.devices[v as usize].data.value() / 150.0)
                .fold(0.0, f64::max);
            assert!((g.instance.prize(i + 1) - vol).abs() < 1e-9);
            assert!((g.hover_time[i + 1].value() - t).abs() < 1e-9);
            assert!((g.hover_energy[i + 1].value() - t * 150.0).abs() < 1e-9);
        }
    }

    #[test]
    fn edge_weights_fold_half_hover_energies() {
        let s = scenario();
        let cs = CandidateSet::build(&s, 10.0);
        let g = AuxGraph::build(&s, &cs);
        // Edge depot (w1 = 0) to candidate i: w2 = w1(i)/2 + 10 J/m * dist.
        let d01 = g.positions[0].distance(g.positions[1]);
        let w = g.instance.dist(0, 1);
        assert!((w - (g.hover_energy[1].value() / 2.0 + 10.0 * d01)).abs() < 1e-9);
    }

    #[test]
    fn cycle_weight_equals_true_tour_energy() {
        let s = scenario();
        let cs = CandidateSet::build(&s, 10.0);
        let g = AuxGraph::build(&s, &cs);
        // Any cycle through depot and two candidates: compare Eq. 9 cost
        // against hand-computed hover + travel energy.
        let a = 1;
        let b = cs.len(); // last candidate
        let tour = vec![0, a, b];
        let cost = g.tour_energy(&tour);
        let travel = (g.positions[0].distance(g.positions[a])
            + g.positions[a].distance(g.positions[b])
            + g.positions[b].distance(g.positions[0]))
            * 10.0;
        let hover = g.hover_energy[a] + g.hover_energy[b];
        assert!((cost.value() - travel - hover.value()).abs() < 1e-6);
    }

    #[test]
    fn aux_graph_is_metric_lemma_1() {
        let s = scenario();
        let cs = CandidateSet::build(&s, 12.0);
        let g = AuxGraph::build(&s, &cs);
        assert!(g.instance.matrix().is_metric(1e-9));
    }
}
