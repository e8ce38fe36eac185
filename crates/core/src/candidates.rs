//! Candidate hovering locations and their coverage sets.
//!
//! Section IV of the paper partitions the monitoring region into squares
//! of edge `δ` and lets the UAV hover only at square centres. A square is
//! a useful candidate only when its centre covers at least one device —
//! with `δ = 5 m` and 500 devices that still leaves tens of thousands of
//! candidates, so coverage sets are computed through the spatial index
//! rather than by brute force.

use uavdc_geom::{GridSpec, Point2, SpatialGrid};
use uavdc_net::units::{MegaBytes, Meters, Seconds};
use uavdc_net::Scenario;

/// A candidate hovering location: a grid-square centre plus the set of
/// devices within coverage radius `R0` of it (the paper's `C(s_j)`).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Projected hovering position (ground coordinates of the cell
    /// centre; the UAV actually hovers at altitude `H` above it).
    pub pos: Point2,
    /// Indices into [`Scenario::devices`] of the covered devices, sorted.
    pub covered: Vec<u32>,
}

impl Candidate {
    /// Full-collection hover duration `t(s) = max_{v∈C(s)} D_v / B`
    /// (paper Eq. 1/7) over the given residual volumes.
    pub fn hover_time(&self, residual: &[MegaBytes], scenario: &Scenario) -> Seconds {
        let b = scenario.radio.bandwidth;
        self.covered
            .iter()
            .map(|&v| residual[v as usize] / b)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Total volume within coverage `P(s) = Σ_{v∈C(s)} D_v` (Eq. 2/6) over
    /// the given residual volumes.
    pub fn coverage_volume(&self, residual: &[MegaBytes]) -> MegaBytes {
        self.covered.iter().map(|&v| residual[v as usize]).sum()
    }
}

/// All candidate hovering locations for a scenario at a given `δ`.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Coverage radius `R0` used.
    pub coverage_radius: Meters,
    /// Candidates with non-empty coverage, in grid row-major order.
    pub candidates: Vec<Candidate>,
}

impl CandidateSet {
    /// Builds the candidate set: partitions the region into `δ`-squares
    /// and keeps every square centre that covers at least one device.
    ///
    /// # Panics
    /// Panics when `delta` is non-positive or non-finite.
    pub fn build(scenario: &Scenario, delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta > 0.0,
            "delta must be positive, got {delta}"
        );
        let r0 = scenario.coverage_radius();
        let grid = GridSpec::for_region(&scenario.region, delta);
        let positions = scenario.device_positions();
        // lint:allow(unit-unwrap): the geometry layer (SpatialGrid) is dimension-generic, radii in metres
        let index = SpatialGrid::build(&positions, r0.value().max(delta));
        let mut candidates = Vec::new();
        let mut buf = Vec::new();
        for cell in grid.cells() {
            let center = grid.cell_center(cell);
            // lint:allow(unit-unwrap): the geometry layer is dimension-generic, radii in metres
            index.query_radius_into(center, r0.value(), &mut buf);
            if buf.is_empty() {
                continue;
            }
            let mut covered: Vec<u32> = buf.iter().map(|&i| i as u32).collect();
            covered.sort_unstable();
            candidates.push(Candidate {
                pos: center,
                covered,
            });
        }
        CandidateSet {
            delta,
            coverage_radius: r0,
            candidates,
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no candidate covers any device.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Removes dominated candidates: a candidate is dropped when another
    /// candidate covers a strict superset of its devices (or the same set,
    /// keeping the first in grid order). Preserves the attainable data
    /// volume while shrinking the search space.
    pub fn prune_dominated(&mut self) {
        let n = self.candidates.len();
        // Bucket candidates by covered device to limit the quadratic
        // comparison to candidates that can actually intersect. Device
        // ids are dense, so a flat Vec indexed by id keeps the peer
        // iteration order deterministic (a hash map's would not be).
        let num_ids = self
            .candidates
            .iter()
            .flat_map(|c| c.covered.iter())
            .map(|&v| v as usize + 1)
            .max()
            .unwrap_or(0);
        let mut by_device: Vec<Vec<usize>> = vec![Vec::new(); num_ids];
        for (i, c) in self.candidates.iter().enumerate() {
            for &v in &c.covered {
                by_device[v as usize].push(i);
            }
        }
        let mut dead = vec![false; n];
        // Collapse exact-duplicate coverage sets up front (common at
        // small δ, where many grid cells see the same devices): keep the
        // first candidate in grid order — exactly what the pairwise
        // equal-set rule below would converge to — in one O(n log n)
        // pass instead of paying for duplicates in the bucket scans.
        // A BTreeMap keyed on the sorted slice keeps this deterministic.
        {
            let mut seen: std::collections::BTreeMap<&[u32], usize> =
                std::collections::BTreeMap::new();
            for (i, c) in self.candidates.iter().enumerate() {
                if seen.contains_key(c.covered.as_slice()) {
                    dead[i] = true;
                } else {
                    seen.insert(c.covered.as_slice(), i);
                }
            }
        }
        for i in 0..n {
            if dead[i] {
                continue;
            }
            // Candidates sharing the first device of i are the only
            // possible dominators.
            let first = self.candidates[i].covered[0];
            if let Some(peers) = by_device.get(first as usize) {
                for &j in peers {
                    if i == j || dead[j] {
                        continue;
                    }
                    let (a, b) = (&self.candidates[i].covered, &self.candidates[j].covered);
                    if b.len() > a.len() && is_subset(a, b) {
                        dead[i] = true;
                        break;
                    }
                    if a == b && j < i {
                        dead[i] = true;
                        break;
                    }
                }
            }
        }
        let mut k = 0;
        self.candidates.retain(|_| {
            let keep = !dead[k];
            k += 1;
            keep
        });
    }

    /// Filters to a subset with pairwise-disjoint coverage sets, greedily
    /// keeping the candidates with the largest covered data volume first.
    /// This realises the paper's "without hovering coverage overlapping"
    /// setting for Algorithm 1.
    pub fn disjoint_by_volume(&self, scenario: &Scenario) -> CandidateSet {
        let volumes: Vec<MegaBytes> = scenario.devices.iter().map(|d| d.data).collect();
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| {
            // lint:allow(unit-unwrap): cmp_f64_desc needs the raw values for its NaN-safe total order
            let va = self.candidates[a].coverage_volume(&volumes).value();
            // lint:allow(unit-unwrap): cmp_f64_desc needs the raw values for its NaN-safe total order
            let vb = self.candidates[b].coverage_volume(&volumes).value();
            uavdc_geom::cmp_f64_desc(va, vb)
        });
        let mut taken_device = vec![false; scenario.num_devices()];
        let mut kept = Vec::new();
        for i in order {
            let c = &self.candidates[i];
            if c.covered.iter().all(|&v| !taken_device[v as usize]) {
                for &v in &c.covered {
                    taken_device[v as usize] = true;
                }
                kept.push(c.clone());
            }
        }
        CandidateSet {
            delta: self.delta,
            coverage_radius: self.coverage_radius,
            candidates: kept,
        }
    }
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    // Both sorted; standard merge scan.
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, Scenario, UavSpec};

    fn scenario_with(devices: Vec<(f64, f64, f64)>, r0: f64) -> Scenario {
        Scenario {
            region: Aabb::square(100.0),
            devices: devices
                .into_iter()
                .map(|(x, y, d)| IotDevice {
                    pos: Point2::new(x, y),
                    data: MegaBytes(d),
                })
                .collect(),
            depot: Point2::new(50.0, 50.0),
            radio: RadioModel::new(Meters(r0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(1e5),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn empty_region_has_no_candidates() {
        let s = scenario_with(vec![], 10.0);
        let cs = CandidateSet::build(&s, 10.0);
        assert!(cs.is_empty());
    }

    #[test]
    fn every_candidate_covers_something_and_every_device_is_coverable() {
        let s = scenario_with(vec![(10.0, 10.0, 500.0), (90.0, 90.0, 300.0)], 15.0);
        let cs = CandidateSet::build(&s, 5.0);
        assert!(!cs.is_empty());
        let mut covered_devices = std::collections::BTreeSet::new();
        for c in &cs.candidates {
            assert!(!c.covered.is_empty());
            for &v in &c.covered {
                let d = s.devices[v as usize].pos.distance(c.pos);
                assert!(d <= 15.0 + 1e-9, "claimed coverage at distance {d}");
                covered_devices.insert(v);
            }
        }
        assert_eq!(covered_devices.len(), 2);
    }

    #[test]
    fn hover_time_is_max_over_covered() {
        let s = scenario_with(vec![(50.0, 50.0, 600.0), (52.0, 50.0, 150.0)], 10.0);
        let cs = CandidateSet::build(&s, 10.0);
        let volumes: Vec<MegaBytes> = s.devices.iter().map(|d| d.data).collect();
        let c = cs
            .candidates
            .iter()
            .find(|c| c.covered.len() == 2)
            .expect("some cell covers both");
        // t = max(600, 150) / 150 = 4 s; P = 750 MB.
        assert!((c.hover_time(&volumes, &s).value() - 4.0).abs() < 1e-12);
        assert_eq!(c.coverage_volume(&volumes), MegaBytes(750.0));
    }

    #[test]
    fn coarser_grid_fewer_candidates() {
        let s = scenario_with(vec![(25.0, 25.0, 100.0), (75.0, 75.0, 100.0)], 20.0);
        let fine = CandidateSet::build(&s, 5.0);
        let coarse = CandidateSet::build(&s, 25.0);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn prune_dominated_keeps_volume_attainable() {
        let s = scenario_with(vec![(30.0, 30.0, 100.0), (35.0, 30.0, 100.0)], 12.0);
        let mut cs = CandidateSet::build(&s, 4.0);
        let before = cs.len();
        cs.prune_dominated();
        assert!(cs.len() < before);
        // Some surviving candidate still covers both devices.
        assert!(cs.candidates.iter().any(|c| c.covered.len() == 2));
        // No candidate is a strict subset of another survivor.
        for i in 0..cs.len() {
            for j in 0..cs.len() {
                if i != j {
                    let (a, b) = (&cs.candidates[i].covered, &cs.candidates[j].covered);
                    assert!(
                        !(b.len() > a.len() && is_subset(a, b)),
                        "candidate {i} still dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_dominated_collapses_duplicates_keeping_first() {
        // Hand-built set: indices 0, 2, 4 share the exact coverage set
        // {0, 1}; index 1 is a strict subset {0}; index 3 is unrelated.
        let mk = |x: f64, covered: Vec<u32>| Candidate {
            pos: Point2::new(x, 0.0),
            covered,
        };
        let mut cs = CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates: vec![
                mk(0.0, vec![0, 1]),
                mk(1.0, vec![0]),
                mk(2.0, vec![0, 1]),
                mk(3.0, vec![2]),
                mk(4.0, vec![0, 1]),
            ],
        };
        cs.prune_dominated();
        let kept: Vec<f64> = cs.candidates.iter().map(|c| c.pos.x).collect();
        // First duplicate (x = 0) survives, later twins and the strict
        // subset are pruned, unrelated coverage is untouched.
        assert_eq!(kept, vec![0.0, 3.0]);
    }

    #[test]
    fn disjoint_filter_produces_disjoint_sets() {
        let s = scenario_with(
            vec![
                (30.0, 30.0, 900.0),
                (38.0, 30.0, 100.0),
                (80.0, 80.0, 400.0),
            ],
            12.0,
        );
        let cs = CandidateSet::build(&s, 4.0);
        let dj = cs.disjoint_by_volume(&s);
        let mut seen = std::collections::BTreeSet::new();
        for c in &dj.candidates {
            for &v in &c.covered {
                assert!(seen.insert(v), "device {v} covered twice in disjoint set");
            }
        }
        // Greedy keeps the largest-volume candidate: it must include the
        // cell covering both 900 MB and 100 MB devices if one exists.
        let max_cov = dj.candidates.iter().map(|c| c.covered.len()).max().unwrap();
        assert!(max_cov >= 1);
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn bad_delta_panics() {
        let s = scenario_with(vec![(1.0, 1.0, 1.0)], 10.0);
        let _ = CandidateSet::build(&s, -1.0);
    }
}
