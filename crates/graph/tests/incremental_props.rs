//! Differential property harness for incremental tour maintenance
//! (`uavdc_graph::incremental`, DESIGN.md §15).
//!
//! Every property drives randomized splice / 2-opt sequences — the
//! operations the lazy greedy loops make — through an [`IncrementalTour`]
//! and checks the patched state **bit-identical** to a recomputation over
//! the same stops: same order, same edge and length bits, same kernels
//! lane for lane. Coordinates are quantized to a coarse grid on purpose —
//! axis-aligned and mirrored point pairs produce many exactly-equal
//! distances, so the argmin tie-breaking rules (first-strict-`<`) are
//! exercised constantly rather than almost never.
//!
//! Run with `--features validate` to widen every property to >= 1024
//! seeded cases (the CI equivalence gate); the default is a quick 64.

use proptest::collection::vec;
use proptest::prelude::*;
use uavdc_geom::Point2;
use uavdc_graph::improve::two_opt_by;
use uavdc_graph::incremental::{
    cheapest_insertion_cached, cheapest_insertion_cached4, distances_to_point, IncrementalTour,
};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

/// Tie-heavy quantized coordinates: a 13x13 grid with spacing 7.5 m.
fn qpoint() -> impl Strategy<Value = (f64, f64)> {
    (0u32..13, 0u32..13).prop_map(|(x, y)| (f64::from(x) * 7.5, f64::from(y) * 7.5))
}

/// One step of a randomized tour-maintenance history.
#[derive(Clone, Debug)]
enum Op {
    /// Cheapest-insertion splice of a fresh stop.
    Insert((f64, f64)),
    /// 2-opt compaction patch.
    TwoOpt,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => qpoint().prop_map(Op::Insert),
        1 => Just(Op::TwoOpt),
    ]
}

/// A generated test case: depot, seed stops, op tail.
type History = ((f64, f64), Vec<(f64, f64)>, Vec<Op>);

/// Depot + seed stops + a free-form op tail. Tours stay within the
/// paper-relevant n in 5..=64 band.
fn history() -> impl Strategy<Value = History> {
    (qpoint(), vec(qpoint(), 4..16), vec(op(), 0..48))
}

/// Appends `p` and splices it at the scalar reference scan's position
/// over the tour's current points.
fn insert_cheapest(t: &mut IncrementalTour, p: (f64, f64)) {
    let (_, pos) = reference_cheapest(&pts_of(t), Point2::new(p.0, p.1));
    let id = t.append_point(p);
    t.insert_id_at(id, pos);
}

/// Replays a history on a fresh tour alongside a plain point-vector
/// mirror (splices insert into it at the scalar scan's position,
/// compactions run the 2-opt kernel on its recomputed distances),
/// checking the tour against the mirror and the edge cache after every
/// operation and the patch count at the end.
fn drive(depot: (f64, f64), seed: &[(f64, f64)], ops: &[Op]) -> IncrementalTour {
    let mut t = IncrementalTour::new(depot);
    let mut mirror = vec![Point2::new(depot.0, depot.1)];
    let mut patches = 0u64;
    let seeded = seed.iter().map(|&p| Op::Insert(p));
    for op in seeded.chain(ops.iter().cloned()) {
        match op {
            Op::Insert(p) => {
                let q = Point2::new(p.0, p.1);
                let (_, pos) = reference_cheapest(&mirror, q);
                let id = t.append_point(p);
                t.insert_id_at(id, pos);
                mirror.insert(pos, q);
                patches += 1;
            }
            Op::TwoOpt => {
                // The kernel on recomputed point distances, as the
                // exhaustive engine's compaction runs it.
                let mut want: Vec<usize> = (0..mirror.len()).collect();
                let moves = two_opt_by(
                    &mut want,
                    |i, j| mirror[i].distance(mirror[j]),
                    100,
                    None,
                    |_, _| {},
                )
                .moves;
                let got = t.two_opt_compact();
                if moves == 0 {
                    prop_assert!(got.is_none(), "compaction changed a 2-opt-optimal tour");
                } else {
                    prop_assert_eq!(got.as_deref(), Some(&want[..]), "compaction diverged");
                    mirror = want.iter().map(|&k| mirror[k]).collect();
                    patches += 1;
                }
            }
        }
        prop_assert_eq!(&pts_of(&t), &mirror, "tour diverged from its mirror");
        assert_edge_cache_exact(&t);
    }
    prop_assert_eq!(t.patches(), patches);
    t
}

fn pts_of(t: &IncrementalTour) -> Vec<Point2> {
    t.order()
        .iter()
        .map(|&id| {
            let (x, y) = t.point(id);
            Point2::new(x, y)
        })
        .collect()
}

/// Scalar reference: first-strict-argmin cheapest insertion, distances
/// recomputed from coordinates (no cache involved).
fn reference_cheapest(pts: &[Point2], p: Point2) -> (f64, usize) {
    match pts.len() {
        0 => (0.0, 1),
        1 => (2.0 * pts[0].distance(p), 1),
        n => {
            let mut best = f64::INFINITY;
            let mut pos = 1;
            for i in 0..n {
                let a = pts[i];
                let b = pts[(i + 1) % n];
                let delta = a.distance(p) + p.distance(b) - a.distance(b);
                if delta < best {
                    best = delta;
                    pos = i + 1;
                }
            }
            (best, pos)
        }
    }
}

/// Asserts the cached edge lengths are exactly the cached pairwise
/// distances of consecutive stops and that their sum is bit-identical to
/// `tour_length` over freshly-recomputed coordinates.
fn assert_edge_cache_exact(t: &IncrementalTour) {
    let n = t.len();
    let pts = pts_of(t);
    if n >= 2 {
        prop_assert_eq!(t.edge_costs().len(), n);
        for k in 0..n {
            let want = t.cost(t.order()[k], t.order()[(k + 1) % n]);
            prop_assert_eq!(
                t.edge_costs()[k].to_bits(),
                want.to_bits(),
                "edge {} diverged from the distance cache",
                k
            );
        }
    } else {
        prop_assert!(t.edge_costs().is_empty());
    }
    prop_assert_eq!(
        t.total_cost().to_bits(),
        uavdc_geom::tour_length(&pts).to_bits(),
        "cached length diverged from a fresh recomputation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// After an arbitrary splice / compaction history the tour equals a
    /// plain point-vector replay of the same operations, and its edge
    /// cache is exact after every step (checked inside `drive`).
    #[test]
    fn patched_tour_matches_point_replay(h in history()) {
        let (depot, seed, ops) = h;
        let t = drive(depot, &seed, &ops);
        prop_assert_eq!(t.order()[0], 0, "depot must stay first");
    }

    /// The three insertion paths agree lane for lane and bit for bit:
    /// the scalar recomputing reference, the cached scan and the 4-lane
    /// cached scan.
    #[test]
    fn insertion_kernels_agree_bitwise(
        depot in qpoint(),
        stops in vec(qpoint(), 0..32),
        sats in vec(qpoint(), 4..24),
    ) {
        let mut t = IncrementalTour::new(depot);
        for &p in &stops {
            insert_cheapest(&mut t, p);
        }
        let pts = pts_of(&t);
        // Stop coordinates indexed by stable id (ids are contiguous here).
        let nid = t.len();
        let xs: Vec<f64> = (0..nid).map(|id| t.point(id).0).collect();
        let ys: Vec<f64> = (0..nid).map(|id| t.point(id).1).collect();

        // Banked rows: cached satellite -> stop-id distances.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(sats.len());
        for &(sx, sy) in &sats {
            let mut row = Vec::new();
            distances_to_point(&xs, &ys, sx, sy, &mut row);
            rows.push(row);
        }

        let mut scalar = Vec::with_capacity(sats.len());
        for (j, &(sx, sy)) in sats.iter().enumerate() {
            let (want_d, want_pos) = reference_cheapest(&pts, Point2::new(sx, sy));
            let (got_d, got_pos) = cheapest_insertion_cached(&rows[j], t.order(), t.edge_costs());
            prop_assert_eq!(got_d.to_bits(), want_d.to_bits(), "cached delta, sat {}", j);
            prop_assert_eq!(got_pos as usize, want_pos, "cached pos, sat {}", j);
            scalar.push((got_d, got_pos));
        }
        for (c, chunk) in rows.chunks_exact(4).enumerate() {
            let got4 = cheapest_insertion_cached4(
                [&chunk[0], &chunk[1], &chunk[2], &chunk[3]],
                t.order(),
                t.edge_costs(),
            );
            for k in 0..4 {
                let (want_d, want_pos) = scalar[c * 4 + k];
                prop_assert_eq!(got4[k].0.to_bits(), want_d.to_bits(), "4-lane delta, lane {}", k);
                prop_assert_eq!(got4[k].1, want_pos, "4-lane pos, lane {}", k);
            }
        }
    }
}
