//! Candidate hovering locations and their coverage sets.
//!
//! Section IV of the paper partitions the monitoring region into squares
//! of edge `δ` and lets the UAV hover only at square centres. A square is
//! a useful candidate only when its centre covers at least one device.
//! The set is built device by device: each device tests only the cells
//! whose centre can lie within `R0` of it (about `π·R0²/δ²` of them), and
//! the (cell, device) pairs are counting-sorted into per-cell lists that
//! come out sorted, with no per-cell query or sort. Dominance pruning
//! then keeps about 7% of the candidates on the paper instance at
//! `δ = 10 m`.

use uavdc_geom::{GridSpec, Point2};
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
    /// A device covers a cell when
    /// `device.distance_sq(cell_center) <= R0²`; devices outside the
    /// region still cover the cells within reach. Each device enumerates
    /// its cells through [`GridSpec::cells_with_center_within`], and a
    /// counting sort on the cell index groups the pairs in row-major
    /// order with each cell's devices ascending.
    ///
    /// # Panics
    /// Panics when `delta` is non-positive or non-finite, or when a
    /// device position is not finite.
    pub fn build(scenario: &Scenario, delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta > 0.0,
            "delta must be positive, got {delta}"
        );
        let r0 = scenario.coverage_radius();
        let grid = GridSpec::for_region(&scenario.region, delta);
        let num_cells = grid.num_cells();
        // The cells each device covers, device by device (device `v`'s
        // run ends at `device_end[v]`), and per-cell counts shifted by one
        // for the prefix sum below.
        let mut cells: Vec<usize> = Vec::new();
        let mut device_end: Vec<usize> = Vec::with_capacity(scenario.num_devices());
        let mut start = vec![0u32; num_cells + 1];
        for (v, device) in scenario.devices.iter().enumerate() {
            assert!(
                device.pos.is_finite(),
                "device {v} position is not finite: {:?}",
                device.pos
            );
            // lint:allow(unit-unwrap): the geometry layer (GridSpec) is dimension-generic, radii in metres
            for cell in grid.cells_with_center_within(device.pos, r0.value()) {
                let k = grid.linear_index(cell);
                start[k + 1] += 1;
                cells.push(k);
            }
            device_end.push(cells.len());
        }
        let mut non_empty = 0;
        for k in 0..num_cells {
            non_empty += usize::from(start[k + 1] > 0);
            start[k + 1] += start[k];
        }
        // Counting sort: devices arrive in ascending order, so each cell's
        // list comes out sorted.
        let mut next = start.clone();
        let mut devices = vec![0u32; cells.len()];
        let mut from = 0;
        for (v, &to) in device_end.iter().enumerate() {
            for &k in &cells[from..to] {
                devices[next[k] as usize] = v as u32;
                next[k] += 1;
            }
            from = to;
        }
        let mut candidates = Vec::with_capacity(non_empty);
        for (k, cell) in grid.cells().enumerate() {
            let covered = &devices[start[k] as usize..start[k + 1] as usize];
            if !covered.is_empty() {
                candidates.push(Candidate {
                    pos: grid.cell_center(cell),
                    covered: covered.to_vec(),
                });
            }
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
    /// candidate covers a strict superset of its devices, or the same set
    /// at a lower index (the first in grid order survives). Preserves the
    /// attainable data volume while shrinking the search space. An empty
    /// coverage set is a strict subset of every non-empty one, so it
    /// survives only when every candidate is empty, and then only the
    /// first.
    ///
    /// Any dominator of candidate `i` covers every device of `i`, so only
    /// the candidates covering `i`'s least-covered device are probed,
    /// read from a flat device → candidate index. The probe starts at
    /// `i`'s own place in that list and walks outward, because in a built
    /// set the nearest cells are the likeliest dominators. A 64-bit
    /// membership signature (bit `v mod 64` per device `v`) and the set
    /// sizes reject most peers before any coverage list is read.
    pub fn prune_dominated(&mut self) {
        let cands = &self.candidates;
        // CSR index: `by_device[start[v]..start[v + 1]]` lists the
        // candidates covering device `v`, ascending. The counting pass
        // also records each candidate's signature and size.
        let mut start: Vec<u32> = vec![0];
        let key: Vec<(u64, usize)> = cands
            .iter()
            .map(|c| {
                let mut sig = 0u64;
                for &v in &c.covered {
                    let v = v as usize;
                    if v + 2 > start.len() {
                        start.resize(v + 2, 0);
                    }
                    start[v + 1] += 1;
                    sig |= 1 << (v % 64);
                }
                (sig, c.covered.len())
            })
            .collect();
        let num_ids = start.len() - 1;
        for v in 0..num_ids {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut by_device = vec![0u32; start[num_ids] as usize];
        for (i, c) in cands.iter().enumerate() {
            for &v in &c.covered {
                by_device[next[v as usize] as usize] = i as u32;
                next[v as usize] += 1;
            }
        }
        // Candidates are visited in index order, so `next[v] - start[v]`
        // is the place of the current candidate in device `v`'s list.
        next.copy_from_slice(&start);
        let keep: Vec<bool> = (0..cands.len())
            .map(|i| {
                let a = &cands[i].covered;
                let (sig_a, len_a) = key[i];
                let Some(pivot) = a
                    .iter()
                    .map(|&v| v as usize)
                    .min_by_key(|&v| start[v + 1] - start[v])
                else {
                    return num_ids == 0 && i == 0;
                };
                let at = (next[pivot] - start[pivot]) as usize;
                for &v in a {
                    next[v as usize] += 1;
                }
                let probe = &by_device[start[pivot] as usize..start[pivot + 1] as usize];
                let dominates = |j: u32| {
                    let j = j as usize;
                    let (sig_b, len_b) = key[j];
                    if sig_a & !sig_b != 0 || len_b < len_a || j == i {
                        return false;
                    }
                    let b = &cands[j].covered;
                    if len_b > len_a {
                        is_subset(a, b)
                    } else {
                        j < i && *a == *b
                    }
                };
                let (mut down, mut up) = (probe[..at].iter().rev(), probe[at..].iter());
                loop {
                    match (down.next(), up.next()) {
                        (None, None) => return true,
                        (d, u) => {
                            if d.is_some_and(|&j| dominates(j)) || u.is_some_and(|&j| dominates(j))
                            {
                                return false;
                            }
                        }
                    }
                }
            })
            .collect();
        let mut k = 0;
        self.candidates.retain(|_| {
            let kept = keep[k];
            k += 1;
            kept
        });
    }

    /// Filters to a subset with pairwise-disjoint coverage sets, greedily
    /// keeping the candidates with the largest covered data volume first.
    /// This realises the paper's "without hovering coverage overlapping"
    /// setting for Algorithm 1.
    pub fn disjoint_by_volume(&self, scenario: &Scenario) -> CandidateSet {
        let volumes: Vec<MegaBytes> = scenario.devices.iter().map(|d| d.data).collect();
        // One volume per candidate, computed once: the comparator only
        // reads keys, so the stable sort order is the same as rescoring
        // both sides of every comparison.
        let keys: Vec<f64> = self
            .candidates
            .iter()
            // lint:allow(unit-unwrap): cmp_f64_desc needs the raw values for its NaN-safe total order
            .map(|c| c.coverage_volume(&volumes).value())
            .collect();
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| uavdc_geom::cmp_f64_desc(keys[a], keys[b]));
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
    fn prune_dominated_handles_empty_coverage_sets() {
        let mk = |x: f64, covered: Vec<u32>| Candidate {
            pos: Point2::new(x, 0.0),
            covered,
        };
        let set = |candidates| CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates,
        };
        // Any non-empty candidate dominates every empty one.
        let mut mixed = set(vec![mk(0.0, vec![]), mk(1.0, vec![3]), mk(2.0, vec![])]);
        mixed.prune_dominated();
        let kept: Vec<f64> = mixed.candidates.iter().map(|c| c.pos.x).collect();
        assert_eq!(kept, vec![1.0]);
        // Among all-empty candidates the first survives.
        let mut empty = set(vec![mk(0.0, vec![]), mk(1.0, vec![]), mk(2.0, vec![])]);
        empty.prune_dominated();
        let kept: Vec<f64> = empty.candidates.iter().map(|c| c.pos.x).collect();
        assert_eq!(kept, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "device 1 position is not finite")]
    fn non_finite_device_panics() {
        let s = scenario_with(vec![(1.0, 1.0, 1.0), (f64::NAN, 1.0, 1.0)], 10.0);
        let _ = CandidateSet::build(&s, 10.0);
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
