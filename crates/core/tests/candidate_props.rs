//! Differential property suite for the candidate grid
//! (`CandidateSet::build` and `CandidateSet::prune_dominated`).
//!
//! The oracle is the query-centric construction the library used before
//! it became device-centric: visit every cell in row-major order, ask a
//! `SpatialGrid` over the device positions for all devices within `R0` of
//! the cell centre, sort them and keep non-empty cells. Its pruning is
//! the bucket scan that collapsed equal coverage sets through a
//! `BTreeMap` and then tested candidates sharing the first device. Built
//! sets must match the oracle's exactly: positions by bits, coverage
//! lists element for element, after the build and after pruning.
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
use uavdc_core::{Candidate, CandidateSet};
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

/// Query-centric build: one radius query per grid cell.
fn oracle_build(scenario: &Scenario, delta: f64) -> CandidateSet {
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

/// Bucket-scan pruning: collapse equal sets (first in grid order wins),
/// then drop any candidate whose set a live peer sharing its first device
/// strictly contains. Needs non-empty coverage sets.
fn oracle_prune(set: &mut CandidateSet) {
    let cands = &set.candidates;
    let n = cands.len();
    let num_ids = cands
        .iter()
        .flat_map(|c| c.covered.iter())
        .map(|&v| v as usize + 1)
        .max()
        .unwrap_or(0);
    let mut by_device: Vec<Vec<usize>> = vec![Vec::new(); num_ids];
    for (i, c) in cands.iter().enumerate() {
        for &v in &c.covered {
            by_device[v as usize].push(i);
        }
    }
    let mut dead = vec![false; n];
    let mut seen: BTreeMap<&[u32], usize> = BTreeMap::new();
    for (i, c) in cands.iter().enumerate() {
        if seen.contains_key(c.covered.as_slice()) {
            dead[i] = true;
        } else {
            seen.insert(c.covered.as_slice(), i);
        }
    }
    for i in 0..n {
        if dead[i] {
            continue;
        }
        for &j in &by_device[cands[i].covered[0] as usize] {
            if i == j || dead[j] {
                continue;
            }
            let (a, b) = (&cands[i].covered, &cands[j].covered);
            if (b.len() > a.len() && is_subset(a, b)) || (a == b && j < i) {
                dead[i] = true;
                break;
            }
        }
    }
    let mut k = 0;
    set.candidates.retain(|_| {
        k += 1;
        !dead[k - 1]
    });
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}

fn assert_same(got: &CandidateSet, want: &CandidateSet, stage: &str) {
    assert_eq!(got.len(), want.len(), "{stage}: candidate count");
    for (i, (g, w)) in got.candidates.iter().zip(&want.candidates).enumerate() {
        assert_eq!(
            (g.pos.x.to_bits(), g.pos.y.to_bits()),
            (w.pos.x.to_bits(), w.pos.y.to_bits()),
            "{stage}: position of candidate {i}"
        );
        assert_eq!(g.covered, w.covered, "{stage}: coverage of candidate {i}");
    }
}

fn scenario(region: Aabb, positions: Vec<Point2>, r0: f64) -> Scenario {
    Scenario {
        region,
        devices: positions
            .into_iter()
            .map(|pos| IotDevice {
                pos,
                data: MegaBytes(100.0),
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
        let mut got = CandidateSet::build(&s, delta);
        let mut want = oracle_build(&s, delta);
        assert_same(&got, &want, "build");
        prop_assert_eq!(got.coverage_radius, want.coverage_radius);
        got.prune_dominated();
        oracle_prune(&mut want);
        assert_same(&got, &want, "prune");
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
        let candidates: Vec<Candidate> = (0..n)
            .map(|i| Candidate {
                pos: Point2::new(i as f64, 0.0),
                covered: (0..universe).filter(|_| rng.gen_range(0..3u32) == 0).collect(),
            })
            .collect();
        // Keep i iff no candidate covers a strict superset of its set and
        // no lower index covers the same set.
        let want: Vec<f64> = candidates
            .iter()
            .enumerate()
            .filter(|&(i, c)| {
                let a = &c.covered;
                !candidates.iter().enumerate().any(|(j, d)| {
                    let b = &d.covered;
                    (b.len() > a.len() && is_subset(a, b)) || (j < i && a == b)
                })
            })
            .map(|(_, c)| c.pos.x)
            .collect();
        let mut set = CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates,
        };
        set.prune_dominated();
        let got: Vec<f64> = set.candidates.iter().map(|c| c.pos.x).collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn paper_instances_match_the_oracle() {
    for seed in 1..=2 {
        let s = uavdc_net::generator::paper_default(seed);
        for delta in [5.0, 10.0, 30.0] {
            let mut got = CandidateSet::build(&s, delta);
            let mut want = oracle_build(&s, delta);
            assert_same(&got, &want, "build");
            got.prune_dominated();
            oracle_prune(&mut want);
            assert_same(&got, &want, "prune");
        }
    }
}
