//! Differential property suite for the candidate grid
//! (`CandidateSet::build`, `CandidateSet::prune_dominated` and
//! `CandidateSet::disjoint_by_volume`).
//!
//! The oracle is the query-centric construction the library used before
//! it became device-centric: visit every cell in row-major order, ask a
//! `SpatialGrid` over the device positions for all devices within `R0` of
//! the cell centre, sort them and keep non-empty cells. Its pruning is
//! the bucket scan that collapsed equal coverage sets through a
//! `BTreeMap` and then tested candidates sharing the first device. Its
//! disjoint filter sorts by summed volume and keeps each candidate whose
//! devices are all still free. Built sets must match the oracle's
//! exactly: positions by bits, coverage lists element for element, and
//! each device's candidates (the set's transpose) equal to the ascending
//! inverse of the oracle's lists, after the build, after pruning and
//! after the disjoint filter.
//!
//! The layouts cover uniform devices, integer lattices with integer `R0`
//! and `δ` (so cell centres sit at exactly distance `R0` from devices),
//! coincident devices, devices outside the region, region sides that are
//! not a multiple of `δ`, `δ` larger than the region, and 0 or 1 devices.
//! A second property checks pruning of hand-built sets, empty coverage
//! sets included, against the keep rule written out pairwise.
//!
//! Run with `--features validate` to widen each property to >= 1024
//! seeded cases (the CI equivalence gate); the default is a quick 64.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use uavdc_core::CandidateSet;
use uavdc_geom::{Aabb, GridSpec, Point2, SpatialGrid};
use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
use uavdc_net::{IotDevice, RadioModel, Scenario, UavSpec};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

/// The oracle's candidates: position and ascending coverage list.
type Rows = Vec<(Point2, Vec<u32>)>;

/// Query-centric build: one radius query per grid cell.
fn oracle_build(scenario: &Scenario, delta: f64) -> Rows {
    let r0 = scenario.coverage_radius();
    let grid = GridSpec::for_region(&scenario.region, delta);
    let positions = scenario.device_positions();
    let index = SpatialGrid::build(&positions, r0.value().max(delta));
    let mut candidates = Vec::new();
    let mut buf = Vec::new();
    for cell in grid.cells() {
        let center = grid.cell_center(cell);
        index.query_radius_into(center, r0.value(), &mut buf);
        if buf.is_empty() {
            continue;
        }
        let mut covered: Vec<u32> = buf.iter().map(|&i| i as u32).collect();
        covered.sort_unstable();
        candidates.push((center, covered));
    }
    candidates
}

/// Bucket-scan pruning: collapse equal sets (first in grid order wins),
/// then drop any candidate whose set a live peer sharing its first device
/// strictly contains. Needs non-empty coverage sets.
fn oracle_prune(cands: &mut Rows) {
    let n = cands.len();
    let num_ids = cands
        .iter()
        .flat_map(|c| c.1.iter())
        .map(|&v| v as usize + 1)
        .max()
        .unwrap_or(0);
    let mut by_device: Vec<Vec<usize>> = vec![Vec::new(); num_ids];
    for (i, c) in cands.iter().enumerate() {
        for &v in &c.1 {
            by_device[v as usize].push(i);
        }
    }
    let mut dead = vec![false; n];
    let mut seen: BTreeMap<&[u32], usize> = BTreeMap::new();
    for (i, c) in cands.iter().enumerate() {
        if seen.contains_key(c.1.as_slice()) {
            dead[i] = true;
        } else {
            seen.insert(c.1.as_slice(), i);
        }
    }
    for i in 0..n {
        if dead[i] {
            continue;
        }
        for &j in &by_device[cands[i].1[0] as usize] {
            if i == j || dead[j] {
                continue;
            }
            let (a, b) = (&cands[i].1, &cands[j].1);
            if (b.len() > a.len() && is_subset(a, b)) || (a == b && j < i) {
                dead[i] = true;
                break;
            }
        }
    }
    let mut k = 0;
    cands.retain(|_| {
        k += 1;
        !dead[k - 1]
    });
}

/// Disjoint filter: candidates by summed device volume, largest first
/// (ties in index order), each kept when none of its devices is taken.
fn oracle_disjoint(cands: &Rows, scenario: &Scenario) -> Rows {
    let volume = |c: &[u32]| -> f64 {
        c.iter()
            .map(|&v| scenario.devices[v as usize].data.value())
            .sum()
    };
    let mut order: Vec<&(Point2, Vec<u32>)> = cands.iter().collect();
    order.sort_by(|a, b| volume(&b.1).total_cmp(&volume(&a.1)));
    let mut taken = vec![false; scenario.num_devices()];
    let mut kept = Vec::new();
    for c in order {
        if c.1.iter().all(|&v| !taken[v as usize]) {
            for &v in &c.1 {
                taken[v as usize] = true;
            }
            kept.push(c.clone());
        }
    }
    kept
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}

/// `got` equals the oracle's rows, and its transpose is their inverse
/// over devices `0..num_devices`.
fn assert_same(got: &CandidateSet, want: &Rows, num_devices: usize, stage: &str) {
    assert_eq!(got.len(), want.len(), "{stage}: candidate count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.pos.x.to_bits(), g.pos.y.to_bits()),
            (w.0.x.to_bits(), w.0.y.to_bits()),
            "{stage}: position of candidate {i}"
        );
        assert_eq!(
            g.covered,
            w.1.as_slice(),
            "{stage}: coverage of candidate {i}"
        );
    }
    let mut inverse: Vec<Vec<u32>> = vec![Vec::new(); num_devices];
    for (i, c) in want.iter().enumerate() {
        for &v in &c.1 {
            inverse[v as usize].push(i as u32);
        }
    }
    for (v, cands) in inverse.iter().enumerate() {
        assert_eq!(
            got.candidates_of(v as u32),
            cands.as_slice(),
            "{stage}: candidates of device {v}"
        );
    }
}

fn scenario(region: Aabb, positions: Vec<Point2>, r0: f64) -> Scenario {
    Scenario {
        region,
        devices: positions
            .into_iter()
            .enumerate()
            .map(|(i, pos)| IotDevice {
                pos,
                // Unequal volumes, with ties, order the disjoint filter.
                data: MegaBytes(100.0 * (1 + i % 5) as f64),
            })
            .collect(),
        depot: region.min,
        radio: RadioModel::new(Meters(r0), MegaBytesPerSecond(150.0)),
        // At altitude 0 the coverage radius is exactly `r0`.
        uav: UavSpec {
            capacity: Joules(1e5),
            ..UavSpec::paper_default()
        },
    }
}

/// A random instance and `δ` of the given layout kind:
/// 0 uniform, 1 integer lattice, 2 coincident devices, 3 devices outside
/// the region, 4 `δ` larger than the region, 5 zero or one device.
fn instance(rng: &mut SmallRng, kind: u32, n: usize) -> (Scenario, f64) {
    let origin = if rng.gen_range(0..2u32) == 0 {
        Point2::ORIGIN
    } else {
        Point2::new(
            rng.gen_range(-50..50i32) as f64,
            rng.gen_range(-50..50i32) as f64,
        )
    };
    if kind == 1 {
        // Integer sides, δ and R0; with even δ every cell centre is an
        // integer point, with odd δ a half-integer one, and devices sit on
        // the half-integer lattice, so exact-distance ties are common.
        let w = rng.gen_range(5..120u32) as f64;
        let h = rng.gen_range(5..120u32) as f64;
        let delta = rng.gen_range(1..30u32) as f64;
        let r0 = rng.gen_range(1..40u32) as f64;
        let region = Aabb::new(origin, Point2::new(origin.x + w, origin.y + h));
        let pts = (0..n)
            .map(|_| {
                Point2::new(
                    origin.x + rng.gen_range(0..=2 * w as u32) as f64 * 0.5,
                    origin.y + rng.gen_range(0..=2 * h as u32) as f64 * 0.5,
                )
            })
            .collect();
        return (scenario(region, pts, r0), delta);
    }
    let w = rng.gen_range(10.0..300.0);
    let h = rng.gen_range(10.0..300.0);
    let region = Aabb::new(origin, Point2::new(origin.x + w, origin.y + h));
    let r0 = rng.gen_range(1.0..80.0);
    let delta = if kind == 4 {
        rng.gen_range(w.max(h)..2.0 * w.max(h) + 1.0)
    } else {
        rng.gen_range(3.0..100.0)
    };
    let n = if kind == 5 { n % 2 } else { n };
    let uniform = |rng: &mut SmallRng, pad: f64| {
        Point2::new(
            rng.gen_range(origin.x - pad..origin.x + w + pad),
            rng.gen_range(origin.y - pad..origin.y + h + pad),
        )
    };
    let pts: Vec<Point2> = match kind {
        2 => {
            let sites: Vec<Point2> = (0..1 + n / 4).map(|_| uniform(rng, 0.0)).collect();
            (0..n)
                .map(|_| sites[rng.gen_range(0..sites.len())])
                .collect()
        }
        3 => (0..n).map(|_| uniform(rng, 2.0 * r0)).collect(),
        _ => (0..n).map(|_| uniform(rng, 0.0)).collect(),
    };
    (scenario(region, pts, r0), delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn build_and_prune_match_the_query_centric_oracle(
        seed in 0u64..u64::MAX,
        kind in 0u32..6,
        n in 0usize..120,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (s, delta) = instance(&mut rng, kind, n);
        check_stages(&s, delta);
    }

    #[test]
    fn prune_follows_the_keep_rule_on_hand_built_sets(
        seed in 0u64..u64::MAX,
        n in 0usize..40,
        universe in 1u32..12,
    ) {
        // Small device universes make equal sets, nested sets and empty
        // sets common.
        let mut rng = SmallRng::seed_from_u64(seed);
        let candidates: Rows = (0..n)
            .map(|i| {
                let covered = (0..universe).filter(|_| rng.gen_range(0..3u32) == 0).collect();
                (Point2::new(i as f64, 0.0), covered)
            })
            .collect();
        // Keep i iff no candidate covers a strict superset of its set and
        // no lower index covers the same set.
        let want: Vec<f64> = candidates
            .iter()
            .enumerate()
            .filter(|&(i, c)| {
                let a = &c.1;
                !candidates.iter().enumerate().any(|(j, d)| {
                    let b = &d.1;
                    (b.len() > a.len() && is_subset(a, b)) || (j < i && a == b)
                })
            })
            .map(|(_, c)| c.0.x)
            .collect();
        let mut set = CandidateSet::from_coverage(1.0, Meters(1.0), candidates);
        set.prune_dominated();
        let got: Vec<f64> = set.iter().map(|c| c.pos.x).collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn paper_instances_match_the_oracle() {
    for seed in 1..=2 {
        let s = uavdc_net::generator::paper_default(seed);
        for delta in [5.0, 10.0, 30.0] {
            check_stages(&s, delta);
        }
    }
}

/// The built set, its pruned set and the built set's disjoint filter
/// each match the oracle's.
fn check_stages(s: &Scenario, delta: f64) {
    let n = s.num_devices();
    let mut got = CandidateSet::build(s, delta);
    let mut want = oracle_build(s, delta);
    assert_same(&got, &want, n, "build");
    assert_eq!(got.coverage_radius, s.coverage_radius());
    assert_same(
        &got.disjoint_by_volume(s),
        &oracle_disjoint(&want, s),
        n,
        "disjoint",
    );
    got.prune_dominated();
    oracle_prune(&mut want);
    assert_same(&got, &want, n, "prune");
}
