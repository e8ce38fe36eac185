//! Differential property harness for incremental Christofides tour
//! maintenance (`uavdc_graph::incremental`, DESIGN.md §15).
//!
//! Every property drives randomized insert / remove / local-repair /
//! checkpoint sequences through an [`IncrementalTour`] and proves the
//! patched state **bit-identical** to a from-scratch rebuild over the
//! same stops: same order, same length bits, same kernels lane for lane.
//! Coordinates are quantized to a coarse grid on purpose — axis-aligned
//! and mirrored point pairs produce many exactly-equal distances, so the
//! argmin tie-breaking rules (first-strict-`<`) are exercised constantly
//! rather than almost never.
//!
//! Run with `--features validate` to widen every property to >= 1024
//! seeded cases (the CI equivalence gate); the default is a quick 64.

use proptest::collection::vec;
use proptest::prelude::*;
use uavdc_geom::Point2;
use uavdc_graph::christofides::{christofides_with, ChristofidesConfig};
use uavdc_graph::incremental::{
    cheapest_insertion_cached, cheapest_insertion_cached4, distances_to_point, IncrementalTour,
    InsertionKernel,
};
use uavdc_graph::DistMatrix;

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
    /// Removal splice of a pseudo-randomly selected non-depot stop
    /// (skipped while fewer than 5 removable stops remain, keeping the
    /// tour at n >= 4 so Christofides stays non-trivial).
    Remove(usize),
    /// 2-opt compaction patch.
    TwoOpt,
    /// Or-opt relocation patch.
    OrOpt,
    /// Mid-sequence full rebuild — exercises the matching memo across
    /// checkpoints, not just at the final comparison.
    Checkpoint,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => qpoint().prop_map(Op::Insert),
        2 => (0usize..1_000_000).prop_map(Op::Remove),
        1 => Just(Op::TwoOpt),
        1 => Just(Op::OrOpt),
        1 => Just(Op::Checkpoint),
    ]
}

/// A generated test case: depot, seed stops, op tail.
type History = ((f64, f64), Vec<(f64, f64)>, Vec<Op>);

/// Depot + seed stops (guaranteeing n >= 5) + a free-form op tail.
/// Tours stay within the paper-relevant n in 4..=64 band.
fn history() -> impl Strategy<Value = History> {
    (qpoint(), vec(qpoint(), 4..16), vec(op(), 0..48))
}

/// Replays a history on a fresh tour; returns the tour and the ids of
/// stops currently spliced in (depot excluded).
fn drive(depot: (f64, f64), seed: &[(f64, f64)], ops: &[Op]) -> (IncrementalTour, Vec<usize>) {
    let mut t = IncrementalTour::new(depot);
    let mut live: Vec<usize> = seed.iter().map(|&p| t.insert(p)).collect();
    for op in ops {
        match *op {
            Op::Insert(p) => live.push(t.insert(p)),
            Op::Remove(sel) => {
                if live.len() >= 5 {
                    let id = live.swap_remove(sel % live.len());
                    t.remove(id);
                }
            }
            Op::TwoOpt => {
                t.two_opt_compact();
            }
            Op::OrOpt => {
                t.or_opt_pass();
            }
            Op::Checkpoint => {
                if t.len() >= 4 {
                    t.retour();
                }
            }
        }
    }
    (t, live)
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

/// From-scratch Christofides over a point sequence, as the depot-rotated
/// position permutation — the reference for [`IncrementalTour::retour`].
fn scratch_order(pts: &[Point2]) -> Vec<usize> {
    let m = DistMatrix::from_fn(pts.len(), |i, j| pts[i].distance(pts[j]));
    let mut tour = christofides_with(&m, &ChristofidesConfig::default(), &uavdc_obs::NOOP);
    tour.rotate_to_start(0);
    tour.order().to_vec()
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

    /// **Tentpole**: after an arbitrary patch history, a full rebuild of
    /// the patched tour is bit-identical — same permutation, same stop
    /// order, same length bits — to a from-scratch Christofides over the
    /// same (pre-rebuild) point sequence, and the edge cache survives
    /// exact.
    #[test]
    fn patched_then_retoured_matches_from_scratch(h in history()) {
        let (depot, seed, ops) = h;
        let (mut t, _) = drive(depot, &seed, &ops);
        assert_edge_cache_exact(&t);
        let pts = pts_of(&t);
        let ids_before: Vec<usize> = t.order().to_vec();
        let retours_before = t.counters().full_retours;
        let perm = t.retour();
        let want = scratch_order(&pts);
        prop_assert_eq!(&perm, &want, "retour permutation diverged from scratch");
        let want_ids: Vec<usize> = want.iter().map(|&k| ids_before[k]).collect();
        prop_assert_eq!(t.order(), &want_ids[..]);
        prop_assert_eq!(t.counters().full_retours, retours_before + 1);
        assert_edge_cache_exact(&t);
    }

    /// The matching memo and the patch history are invisible: a
    /// memo-warmed clone, the cold original and a history-free fresh tour
    /// over the same point sequence all rebuild to the same bits.
    #[test]
    fn retour_ignores_memo_warmth_and_history(h in history(), phantom in qpoint()) {
        let (depot, seed, ops) = h;
        let (mut t, _) = drive(depot, &seed, &ops);
        // Memo-warmed twin: speculative scoring fills the matching memo
        // (and must itself be deterministic).
        let mut warm = t.clone();
        let s1 = warm.speculative_order(phantom, &uavdc_obs::NOOP);
        let s2 = warm.speculative_order(phantom, &uavdc_obs::NOOP);
        prop_assert_eq!(&s1, &s2, "speculative scoring must be deterministic");
        // History-free twin: same point sequence, contiguous ids, no
        // removed-stop ghosts, cold memo.
        let mut fresh = IncrementalTour::new(t.point(0));
        for &id in &t.order()[1..] {
            let fid = fresh.append_point(t.point(id));
            let end = fresh.len();
            fresh.insert_id_at(fid, end);
        }
        prop_assert_eq!(
            &pts_of(&fresh), &pts_of(&t),
            "fresh twin must start from the same point sequence"
        );
        let pw = warm.retour();
        let pc = t.retour();
        let pf = fresh.retour();
        prop_assert_eq!(&pw, &pc, "memo-warm and cold retours diverged");
        prop_assert_eq!(&pc, &pf, "patch history leaked into the rebuild");
        prop_assert_eq!(warm.order(), t.order());
        prop_assert_eq!(warm.total_cost().to_bits(), t.total_cost().to_bits());
        prop_assert_eq!(&pts_of(&fresh), &pts_of(&t));
        prop_assert_eq!(fresh.total_cost().to_bits(), t.total_cost().to_bits());
    }

    /// Speculative scoring equals commitment: `speculative_order(p)` is
    /// bit-identical to a from-scratch Christofides over the tour's
    /// points plus the phantom, and to actually appending the phantom at
    /// the end and rebuilding — memo state included.
    #[test]
    fn speculative_order_matches_commit(h in history(), phantom in qpoint()) {
        let (depot, seed, ops) = h;
        let (mut t, _) = drive(depot, &seed, &ops);
        let spec = t.speculative_order(phantom, &uavdc_obs::NOOP);
        let mut all = pts_of(&t);
        all.push(Point2::new(phantom.0, phantom.1));
        prop_assert_eq!(&spec, &scratch_order(&all), "speculative vs scratch diverged");
        // Commit the phantom at the end so the rebuild sees the same
        // matrix vertex order the speculation used.
        let id = t.append_point(phantom);
        let end = t.len();
        t.insert_id_at(id, end);
        let perm = t.retour();
        prop_assert_eq!(&spec, &perm, "speculation diverged from its own commit");
        assert_edge_cache_exact(&t);
    }

    /// All four insertion paths agree lane for lane and bit for bit:
    /// the scalar recomputing reference, the cached scan, the 4-lane
    /// cached scan, the batch kernel, and the tour's own
    /// `cheapest_insertion_of`.
    #[test]
    fn insertion_kernels_agree_bitwise(
        depot in qpoint(),
        stops in vec(qpoint(), 0..32),
        sats in vec(qpoint(), 4..24),
    ) {
        let mut t = IncrementalTour::new(depot);
        for &p in &stops {
            t.insert(p);
        }
        let pts = pts_of(&t);
        // Stop coordinates indexed by stable id (ids are contiguous here).
        let nid = t.len();
        let xs: Vec<f64> = (0..nid).map(|id| t.point(id).0).collect();
        let ys: Vec<f64> = (0..nid).map(|id| t.point(id).1).collect();
        let tour_xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let tour_ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let sat_xs: Vec<f64> = sats.iter().map(|p| p.0).collect();
        let sat_ys: Vec<f64> = sats.iter().map(|p| p.1).collect();

        // Banked rows: cached satellite -> stop-id distances.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(sats.len());
        for &(sx, sy) in &sats {
            let mut row = Vec::new();
            distances_to_point(&xs, &ys, sx, sy, &mut row);
            rows.push(row);
        }

        let mut kernel = InsertionKernel::new();
        kernel.run(&tour_xs, &tour_ys, t.edge_costs(), &sat_xs, &sat_ys);

        let mut scalar = Vec::with_capacity(sats.len());
        for (j, &(sx, sy)) in sats.iter().enumerate() {
            let (want_d, want_pos) = reference_cheapest(&pts, Point2::new(sx, sy));
            let (got_d, got_pos) = cheapest_insertion_cached(&rows[j], t.order(), t.edge_costs());
            prop_assert_eq!(got_d.to_bits(), want_d.to_bits(), "cached delta, sat {}", j);
            prop_assert_eq!(got_pos as usize, want_pos, "cached pos, sat {}", j);
            prop_assert_eq!(kernel.delta()[j].to_bits(), want_d.to_bits(), "kernel delta, sat {}", j);
            prop_assert_eq!(kernel.pos()[j] as usize, want_pos, "kernel pos, sat {}", j);
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
        // The tour's own cached scan on an appended (not yet spliced) id.
        let (sx, sy) = sats[0];
        let id = t.append_point((sx, sy));
        let (d, pos) = t.cheapest_insertion_of(id);
        prop_assert_eq!(d.to_bits(), scalar[0].0.to_bits());
        prop_assert_eq!(pos, scalar[0].1 as usize);
    }
}
