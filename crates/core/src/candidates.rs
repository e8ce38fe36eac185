//! Candidate hovering locations and their coverage sets.
//!
//! Section IV of the paper partitions the monitoring region into squares
//! of edge `δ` and lets the UAV hover only at square centres. A square is
//! a useful candidate only when its centre covers at least one device.
//!
//! [`CandidateSet`] is the one owner of the coverage relation `C(s)`. It
//! stores it as two flat CSR arrays: candidate → covered devices and the
//! transpose, device → covering candidates, both ascending. The set is
//! built device by device: each device tests only the cells whose centre
//! can lie within `R0` of it (about `π·R0²/δ²` of them, in row-major
//! order). A counting sort on the cell index turns the (cell, device)
//! pairs into the candidate → device CSR, and the per-device cell runs,
//! mapped to candidate indices, are already the transpose. Nothing is
//! allocated per cell. Dominance pruning then keeps about 7% of the
//! candidates on the paper instance at `δ = 10 m`.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes grid cells and device ids it built itself; `candidate_props` checks the grid against a query-centric oracle"
)]

use std::ops::Range;

use uavdc_geom::{GridSpec, Point2};
use uavdc_net::units::{MegaBytes, Meters, Seconds};
use uavdc_net::Scenario;

/// A candidate hovering location: a grid-square centre plus the set of
/// devices within coverage radius `R0` of it (the paper's `C(s_j)`),
/// borrowed from its [`CandidateSet`].
#[derive(Clone, Copy, Debug)]
pub struct Candidate<'a> {
    /// Projected hovering position (ground coordinates of the cell
    /// centre; the UAV actually hovers at altitude `H` above it).
    pub pos: Point2,
    /// Indices into [`Scenario::devices`] of the covered devices,
    /// ascending.
    pub covered: &'a [u32],
}

impl Candidate<'_> {
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

/// All candidate hovering locations for a scenario at a given `δ`, with
/// their coverage relation in both directions.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Coverage radius `R0` used.
    pub coverage_radius: Meters,
    /// Candidate positions; built sets keep grid row-major order.
    pos: Vec<Point2>,
    /// Candidate `i` covers `cover[cover_start[i]..cover_start[i + 1]]`,
    /// ascending.
    cover_start: Vec<u32>,
    cover: Vec<u32>,
    /// Device `v` is covered by candidates
    /// `inverse[inverse_start[v]..inverse_start[v + 1]]`, ascending.
    inverse_start: Vec<u32>,
    inverse: Vec<u32>,
}

impl CandidateSet {
    /// Builds the candidate set: partitions the region into `δ`-squares
    /// and keeps every square centre that covers at least one device.
    ///
    /// A device covers a cell when
    /// `device.distance_sq(cell_center) <= R0²`; devices outside the
    /// region still cover the cells within reach. Each device enumerates
    /// its cells through [`GridSpec::cells_with_center_within`], in
    /// ascending row-major order. A counting sort on the cell index
    /// groups the pairs by cell with each cell's devices ascending, and
    /// each device's run of cells, renumbered to candidate indices, is
    /// its row of the transpose.
    ///
    /// # Panics
    /// Panics when `delta` is non-positive or non-finite, when a device
    /// position is not finite, or when the grid has more than `u32::MAX`
    /// cells.
    pub fn build(scenario: &Scenario, delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta > 0.0,
            "delta must be positive, got {delta}"
        );
        let r0 = scenario.coverage_radius();
        let grid = GridSpec::for_region(&scenario.region, delta);
        let num_cells = grid.num_cells();
        assert!(
            u32::try_from(num_cells).is_ok(),
            "grid of {num_cells} cells is too large"
        );
        // The cells each device covers, device by device (device `v`'s
        // run is `cells[inverse_start[v]..inverse_start[v + 1]]`), and
        // per-cell counts shifted by one for the prefix sum below.
        let mut cells: Vec<u32> = Vec::new();
        let mut inverse_start: Vec<u32> = Vec::with_capacity(scenario.num_devices() + 1);
        inverse_start.push(0);
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
                cells.push(k as u32);
            }
            inverse_start.push(cells.len() as u32);
        }
        let mut non_empty = 0;
        for k in 0..num_cells {
            non_empty += usize::from(start[k + 1] > 0);
            start[k + 1] += start[k];
        }
        // Keep the non-empty cells, numbering each cell by its rank among
        // them (its candidate index).
        let mut rank = vec![0u32; num_cells];
        let mut pos = Vec::with_capacity(non_empty);
        let mut cover_start = Vec::with_capacity(non_empty + 1);
        cover_start.push(0);
        for (k, cell) in grid.cells().enumerate() {
            rank[k] = pos.len() as u32;
            if start[k + 1] > start[k] {
                pos.push(grid.cell_center(cell));
                cover_start.push(start[k + 1]);
            }
        }
        // Counting sort, with `start[k]` as cell `k`'s write cursor:
        // devices arrive in ascending order, so each cell's list comes out
        // sorted. The same pass renumbers each device's cells to candidate
        // indices; its cells are ascending and the renumbering monotone,
        // so its row of the transpose comes out ascending too.
        let mut cover = vec![0u32; cells.len()];
        for v in 0..scenario.num_devices() {
            for c in &mut cells[inverse_start[v] as usize..inverse_start[v + 1] as usize] {
                let k = *c as usize;
                cover[start[k] as usize] = v as u32;
                start[k] += 1;
                *c = rank[k];
            }
        }
        CandidateSet {
            delta,
            coverage_radius: r0,
            pos,
            cover_start,
            cover,
            inverse_start,
            inverse: cells,
        }
    }

    /// A set with the given candidates, in the given order: each row is a
    /// position and its strictly ascending list of covered device ids.
    /// The device-id space is `0..=max id`.
    ///
    /// # Panics
    /// Panics when a coverage list is not strictly ascending.
    pub fn from_coverage<C: AsRef<[u32]>>(
        delta: f64,
        coverage_radius: Meters,
        rows: impl IntoIterator<Item = (Point2, C)>,
    ) -> Self {
        let mut pos = Vec::new();
        let mut cover_start = vec![0u32];
        let mut cover = Vec::new();
        for (p, covered) in rows {
            let covered = covered.as_ref();
            assert!(
                covered.windows(2).all(|w| w[0] < w[1]),
                "coverage list {covered:?} is not strictly ascending"
            );
            pos.push(p);
            cover.extend_from_slice(covered);
            cover_start.push(cover.len() as u32);
        }
        let num_devices = cover.iter().max().map_or(0, |&v| v as usize + 1);
        Self::from_rows(delta, coverage_radius, pos, cover_start, cover, num_devices)
    }

    /// Assembles a set from its candidate → device CSR, counting-sorting
    /// the transpose (candidates are visited in index order, so each
    /// device's list comes out ascending).
    fn from_rows(
        delta: f64,
        coverage_radius: Meters,
        pos: Vec<Point2>,
        cover_start: Vec<u32>,
        cover: Vec<u32>,
        num_devices: usize,
    ) -> Self {
        let mut inverse_start = vec![0u32; num_devices + 1];
        for &v in &cover {
            inverse_start[v as usize + 1] += 1;
        }
        for v in 0..num_devices {
            inverse_start[v + 1] += inverse_start[v];
        }
        let mut next = inverse_start.clone();
        let mut inverse = vec![0u32; cover.len()];
        for i in 0..pos.len() {
            for &v in &cover[cover_start[i] as usize..cover_start[i + 1] as usize] {
                inverse[next[v as usize] as usize] = i as u32;
                next[v as usize] += 1;
            }
        }
        CandidateSet {
            delta,
            coverage_radius,
            pos,
            cover_start,
            cover,
            inverse_start,
            inverse,
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no candidate covers any device.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Candidate `i`: its position and coverage set.
    #[inline]
    pub fn get(&self, i: usize) -> Candidate<'_> {
        Candidate {
            pos: self.pos[i],
            covered: self.covered(i),
        }
    }

    /// The candidates in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Candidate<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Devices covered by candidate `i`, ascending (`C(s_i)`).
    #[inline]
    pub fn covered(&self, i: usize) -> &[u32] {
        &self.cover[self.coverage_range(i)]
    }

    /// Where candidate `i`'s devices sit in the concatenation of every
    /// candidate's coverage list, in index order; parallel per-entry
    /// arrays (a volume per covered device, say) index by it.
    #[inline]
    pub fn coverage_range(&self, i: usize) -> Range<usize> {
        self.cover_start[i] as usize..self.cover_start[i + 1] as usize
    }

    /// Candidates covering device `v`, ascending: the inverse of
    /// [`CandidateSet::covered`].
    #[inline]
    pub fn candidates_of(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.inverse[self.inverse_start[v] as usize..self.inverse_start[v + 1] as usize]
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
    /// read from the set's transpose. The probe starts at `i`'s own place
    /// in that list (a per-device cursor gives it) and walks outward,
    /// because in a built set the nearest cells are the likeliest
    /// dominators. A 64-bit membership signature (bit `v mod 64` per
    /// device `v`) and the set sizes reject most peers before any
    /// coverage list is read. The survivors keep their order
    /// and are copied into exact-size arrays, so a pruned set cached for
    /// the life of a batch holds no slack.
    pub fn prune_dominated(&mut self) {
        let key: Vec<(u64, usize)> = (0..self.len())
            .map(|i| {
                let a = self.covered(i);
                (a.iter().fold(0u64, |sig, &v| sig | 1 << (v % 64)), a.len())
            })
            .collect();
        // Candidates are visited in index order, so `next[v] - start[v]`
        // is the place of the current candidate in device `v`'s list.
        let start = &self.inverse_start;
        let mut next = start.clone();
        let kept: Vec<usize> = (0..self.len())
            .filter(|&i| {
                let a = self.covered(i);
                let (sig_a, len_a) = key[i];
                let Some(pivot) = a
                    .iter()
                    .map(|&v| v as usize)
                    .min_by_key(|&v| start[v + 1] - start[v])
                else {
                    return self.cover.is_empty() && i == 0;
                };
                let at = (next[pivot] - start[pivot]) as usize;
                for &v in a {
                    next[v as usize] += 1;
                }
                let probe = &self.inverse[start[pivot] as usize..start[pivot + 1] as usize];
                let dominates = |j: u32| {
                    let j = j as usize;
                    let (sig_b, len_b) = key[j];
                    if sig_a & !sig_b != 0 || len_b < len_a || j == i {
                        return false;
                    }
                    let b = self.covered(j);
                    if len_b > len_a {
                        is_subset(a, b)
                    } else {
                        j < i && a == b
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
        *self = self.subset(&kept);
    }

    /// Filters to a subset with pairwise-disjoint coverage sets, greedily
    /// keeping the candidates with the largest covered data volume first.
    /// This realises the paper's "without hovering coverage overlapping"
    /// setting for Algorithm 1. The kept candidates are in that volume
    /// order.
    pub fn disjoint_by_volume(&self, scenario: &Scenario) -> CandidateSet {
        let volumes: Vec<MegaBytes> = scenario.devices.iter().map(|d| d.data).collect();
        // One `(desc_key(volume), index)` pair per candidate: the pairs
        // are unique and `desc_key` orders like `cmp_f64_desc`, so the
        // unstable sort gives the stable comparator sort's order. A
        // candidate covering exactly what the one before it covers (the
        // neighbouring cell, most often) is left out: it has the same
        // volume and a higher index, so it comes right after a candidate
        // that takes its devices or is refused for them, and is refused.
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(self.len());
        keyed.extend(
            self.iter()
                .enumerate()
                .filter(|&(i, c)| i == 0 || c.covered != self.covered(i - 1))
                .map(|(i, c)| {
                    // lint:allow(unit-unwrap): desc_key needs the raw value for its NaN-safe total order
                    let volume = c.coverage_volume(&volumes).value();
                    (uavdc_geom::desc_key(volume), i as u32)
                }),
        );
        keyed.sort_unstable();
        let mut order: Vec<usize> = keyed.iter().map(|&(_, i)| i as usize).collect();
        let mut taken_device = vec![false; scenario.num_devices()];
        order.retain(|&i| {
            let covered = self.covered(i);
            let free = covered.iter().all(|&v| !taken_device[v as usize]);
            if free {
                for &v in covered {
                    taken_device[v as usize] = true;
                }
            }
            free
        });
        self.subset(&order)
    }

    /// The candidates `picks`, in that order, over the same device space.
    fn subset(&self, picks: &[usize]) -> CandidateSet {
        let total = picks.iter().map(|&i| self.covered(i).len()).sum();
        let mut cover = Vec::with_capacity(total);
        let mut cover_start = Vec::with_capacity(picks.len() + 1);
        cover_start.push(0);
        for &i in picks {
            cover.extend_from_slice(self.covered(i));
            cover_start.push(cover.len() as u32);
        }
        Self::from_rows(
            self.delta,
            self.coverage_radius,
            picks.iter().map(|&i| self.pos[i]).collect(),
            cover_start,
            cover,
            self.inverse_start.len() - 1,
        )
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

    /// A hand-built set of candidates on the x axis.
    fn set(rows: Vec<(f64, Vec<u32>)>) -> CandidateSet {
        let rows = rows.into_iter().map(|(x, c)| (Point2::new(x, 0.0), c));
        CandidateSet::from_coverage(1.0, Meters(1.0), rows)
    }

    #[test]
    fn transpose_and_ranges_follow_the_rows() {
        let cs = set(vec![(0.0, vec![0, 2]), (1.0, vec![1]), (2.0, vec![0, 1])]);
        assert_eq!(cs.covered(2), &[0, 1]);
        assert_eq!(cs.coverage_range(2), 3..5);
        assert_eq!(cs.candidates_of(0), &[0, 2]);
        assert_eq!(cs.candidates_of(1), &[1, 2]);
        assert_eq!(cs.candidates_of(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_coverage_rows_panic() {
        let _ = set(vec![(0.0, vec![2, 0])]);
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
        for c in cs.iter() {
            assert!(!c.covered.is_empty());
            for &v in c.covered {
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
        assert!(cs.iter().any(|c| c.covered.len() == 2));
        // No candidate is a strict subset of another survivor.
        for i in 0..cs.len() {
            for j in 0..cs.len() {
                if i != j {
                    let (a, b) = (cs.covered(i), cs.covered(j));
                    assert!(
                        !(b.len() > a.len() && is_subset(a, b)),
                        "candidate {i} still dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_dominated_releases_slack_capacity() {
        let s = scenario_with(vec![(30.0, 30.0, 100.0), (35.0, 30.0, 100.0)], 12.0);
        let mut cs = CandidateSet::build(&s, 4.0);
        let before = cs.len();
        cs.prune_dominated();
        assert!(cs.len() < before);
        assert_eq!(cs.pos.capacity(), cs.len());
        assert_eq!(cs.cover_start.capacity(), cs.len() + 1);
        assert_eq!(cs.cover.capacity(), cs.cover.len());
        assert_eq!(cs.inverse.capacity(), cs.inverse.len());
    }

    #[test]
    fn prune_dominated_collapses_duplicates_keeping_first() {
        // Hand-built set: indices 0, 2, 4 share the exact coverage set
        // {0, 1}; index 1 is a strict subset {0}; index 3 is unrelated.
        let mut cs = set(vec![
            (0.0, vec![0, 1]),
            (1.0, vec![0]),
            (2.0, vec![0, 1]),
            (3.0, vec![2]),
            (4.0, vec![0, 1]),
        ]);
        cs.prune_dominated();
        let kept: Vec<f64> = cs.iter().map(|c| c.pos.x).collect();
        // First duplicate (x = 0) survives, later twins and the strict
        // subset are pruned, unrelated coverage is untouched.
        assert_eq!(kept, vec![0.0, 3.0]);
    }

    #[test]
    fn prune_dominated_handles_empty_coverage_sets() {
        // Any non-empty candidate dominates every empty one.
        let mut mixed = set(vec![(0.0, vec![]), (1.0, vec![3]), (2.0, vec![])]);
        mixed.prune_dominated();
        let kept: Vec<f64> = mixed.iter().map(|c| c.pos.x).collect();
        assert_eq!(kept, vec![1.0]);
        assert_eq!(mixed.candidates_of(3), &[0]);
        // Among all-empty candidates the first survives.
        let mut empty = set(vec![(0.0, vec![]), (1.0, vec![]), (2.0, vec![])]);
        empty.prune_dominated();
        let kept: Vec<f64> = empty.iter().map(|c| c.pos.x).collect();
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
        for c in dj.iter() {
            for &v in c.covered {
                assert!(seen.insert(v), "device {v} covered twice in disjoint set");
            }
        }
        // Greedy keeps the largest-volume candidate: it must include the
        // cell covering both 900 MB and 100 MB devices if one exists.
        let max_cov = dj.iter().map(|c| c.covered.len()).max().unwrap();
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
