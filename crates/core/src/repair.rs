//! Online route repair: drop the lowest-value stops until the remaining
//! route fits an energy budget.
//!
//! This is the [`greedy`](crate::greedy) insertion machinery run in
//! reverse. `InsertionCache` prices *adding* a stop between tour
//! neighbours `p`/`n` as `d(p,s) + d(s,n) − d(p,n)`; removing a stop
//! refunds exactly the same delta (plus the stop's hover energy), and —
//! the same locality argument as the cache's O(1) `repair` —
//! a removal only perturbs the deltas of its two surviving neighbours.
//! Keeping the route as a doubly linked list therefore makes every drop
//! an O(1) update: three distance evaluations and two pointer swaps,
//! with no rescan of the remaining stops.
//!
//! The drop *order* is by ascending stop value (collected volume), with
//! [`cmp_f64`] + index tie-breaking so repairs are deterministic and
//! replayable. The closed-loop controller in `uavdc-sim` calls this at
//! each decision point where the live consumption estimate says the
//! nominal remainder of the plan no longer fits.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes stops of the plan it repairs; `controller_props` and the module's unit tests check it"
)]

use uavdc_geom::{cmp_f64, Point2};
use uavdc_net::units::{Joules, JoulesPerMeter, MegaBytes};

/// One remaining stop of the route under repair.
#[derive(Clone, Debug)]
pub struct RepairStop {
    /// Hover position.
    pub pos: Point2,
    /// Energy the hover at this stop will consume.
    pub hover_energy: Joules,
    /// Value delivered by the stop — what greedy dropping minimises the
    /// loss of.
    pub score: MegaBytes,
}

/// Result of [`drop_to_fit`].
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Indices (into the input slice) of the surviving stops, in their
    /// original route order.
    pub kept: Vec<usize>,
    /// Indices of the dropped stops, in drop order (ascending value).
    pub dropped: Vec<usize>,
    /// Energy of the surviving route: travel `start → kept… → depot`
    /// priced at `per_meter`, plus the surviving hover energies.
    pub route_energy: Joules,
    /// True when the surviving route fits the budget. False only when
    /// even the bare `start → depot` leg exceeds it — every stop was
    /// dropped and the caller's reserve policy has to cover the gap.
    pub fits: bool,
}

/// Drops lowest-value stops from the route `start → stops… → depot`
/// until its energy (travel at `per_meter` + hovers) fits
/// `energy_budget`. Stop order is preserved; only membership changes.
///
/// Deterministic: ties in value break on the lower index. O(k log k) in
/// the number of stops for the sort, O(1) per drop.
pub fn drop_to_fit(
    start: Point2,
    depot: Point2,
    stops: &[RepairStop],
    per_meter: JoulesPerMeter,
    energy_budget: Joules,
) -> RepairOutcome {
    let n = stops.len();
    let per_m = per_meter.value();
    let budget = energy_budget.value();
    // Route nodes: 0 = start, 1..=n = stops, n+1 = depot.
    let pos_of = |node: usize| -> Point2 {
        if node == 0 {
            start
        } else if node == n + 1 {
            depot
        } else {
            stops[node - 1].pos
        }
    };
    let mut next: Vec<usize> = (1..n + 2).collect(); // next[i] for i in 0..=n
    let mut prev: Vec<usize> = (0..=n).collect(); // prev[i] is at index i-1... use full arrays:
    next.push(n + 1); // next[n+1] unused sentinel
    prev.insert(0, 0); // prev[0] unused sentinel; prev[i] = i-1

    let mut cost = 0.0f64;
    for node in 0..=n {
        cost += pos_of(node).distance(pos_of(node + 1)) * per_m;
    }
    for s in stops {
        cost += s.hover_energy.value();
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp_f64(stops[a].score.value(), stops[b].score.value()).then(a.cmp(&b)));

    let mut gone = vec![false; n];
    let mut dropped = Vec::new();
    for &j in &order {
        if cost <= budget {
            break;
        }
        let node = j + 1;
        let (p, nx) = (prev[node], next[node]);
        // The reversed insertion delta: travel refunded by bypassing the
        // stop, plus its hover. Triangle inequality makes the travel
        // term non-negative (up to fp rounding).
        let saved = (pos_of(p).distance(pos_of(node)) + pos_of(node).distance(pos_of(nx))
            - pos_of(p).distance(pos_of(nx)))
            * per_m
            + stops[j].hover_energy.value();
        cost -= saved;
        next[p] = nx;
        prev[nx] = p;
        gone[j] = true;
        dropped.push(j);
    }

    RepairOutcome {
        kept: (0..n).filter(|&j| !gone[j]).collect(),
        dropped,
        fits: cost <= budget,
        route_energy: Joules(cost),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stop(x: f64, y: f64, hover: f64, score: f64) -> RepairStop {
        RepairStop {
            pos: Point2::new(x, y),
            hover_energy: Joules(hover),
            score: MegaBytes(score),
        }
    }

    /// Recompute the kept route's energy from scratch, bypassing the
    /// incremental bookkeeping.
    fn recompute(
        start: Point2,
        depot: Point2,
        stops: &[RepairStop],
        kept: &[usize],
        per_m: f64,
    ) -> f64 {
        let mut cost = 0.0;
        let mut pos = start;
        for &j in kept {
            cost += pos.distance(stops[j].pos) * per_m + stops[j].hover_energy.value();
            pos = stops[j].pos;
        }
        cost + pos.distance(depot) * per_m
    }

    #[test]
    fn generous_budget_drops_nothing() {
        let stops = vec![stop(10.0, 0.0, 50.0, 5.0), stop(20.0, 0.0, 60.0, 7.0)];
        let out = drop_to_fit(
            Point2::ORIGIN,
            Point2::ORIGIN,
            &stops,
            JoulesPerMeter(10.0),
            Joules(1e9),
        );
        assert!(out.fits);
        assert_eq!(out.kept, vec![0, 1]);
        assert!(out.dropped.is_empty());
        // 0 -> 10 -> 20 -> 0 is 40 m at 10 J/m, plus the two hovers.
        assert!((out.route_energy.value() - (400.0 + 110.0)).abs() < 1e-9);
    }

    #[test]
    fn drops_lowest_value_first() {
        // Three collinear stops; shrink the budget so exactly one must go.
        let stops = vec![
            stop(10.0, 0.0, 10.0, 100.0),
            stop(20.0, 0.0, 10.0, 1.0), // cheapest data: first to be cut
            stop(30.0, 0.0, 10.0, 50.0),
        ];
        let full = recompute(Point2::ORIGIN, Point2::ORIGIN, &stops, &[0, 1, 2], 10.0);
        let out = drop_to_fit(
            Point2::ORIGIN,
            Point2::ORIGIN,
            &stops,
            JoulesPerMeter(10.0),
            Joules(full - 1.0),
        );
        assert!(out.fits);
        assert_eq!(out.dropped, vec![1]);
        assert_eq!(out.kept, vec![0, 2]);
    }

    #[test]
    fn incremental_cost_matches_recompute() {
        // A zig-zag route where bypass distances differ per stop.
        let stops = vec![
            stop(10.0, 15.0, 30.0, 9.0),
            stop(25.0, -5.0, 20.0, 3.0),
            stop(40.0, 12.0, 45.0, 6.0),
            stop(55.0, 1.0, 10.0, 1.0),
        ];
        let full = recompute(
            Point2::ORIGIN,
            Point2::new(5.0, 0.0),
            &stops,
            &[0, 1, 2, 3],
            7.0,
        );
        for frac in [0.9, 0.6, 0.3, 0.05] {
            let out = drop_to_fit(
                Point2::ORIGIN,
                Point2::new(5.0, 0.0),
                &stops,
                JoulesPerMeter(7.0),
                Joules(full * frac),
            );
            let re = recompute(
                Point2::ORIGIN,
                Point2::new(5.0, 0.0),
                &stops,
                &out.kept,
                7.0,
            );
            assert!(
                (out.route_energy.value() - re).abs() < 1e-9 * (1.0 + re),
                "incremental {} vs recomputed {re}",
                out.route_energy.value()
            );
            assert!(out.fits == (re <= full * frac + 1e-9));
            let mut all: Vec<usize> = out.kept.iter().chain(&out.dropped).copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3], "kept and dropped must partition");
        }
    }

    #[test]
    fn impossible_budget_drops_everything() {
        let stops = vec![stop(10.0, 0.0, 10.0, 1.0)];
        let out = drop_to_fit(
            Point2::ORIGIN,
            Point2::new(100.0, 0.0),
            &stops,
            JoulesPerMeter(10.0),
            Joules(1.0),
        );
        assert!(!out.fits, "even the bare return leg exceeds the budget");
        assert!(out.kept.is_empty());
        assert_eq!(out.dropped, vec![0]);
        assert!((out.route_energy.value() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn value_ties_break_on_index() {
        let stops = vec![
            stop(10.0, 0.0, 10.0, 5.0),
            stop(20.0, 0.0, 10.0, 5.0),
            stop(30.0, 0.0, 10.0, 5.0),
        ];
        let out = drop_to_fit(
            Point2::ORIGIN,
            Point2::ORIGIN,
            &stops,
            JoulesPerMeter(10.0),
            Joules(0.0),
        );
        assert_eq!(out.dropped, vec![0, 1, 2]);
    }

    #[test]
    fn empty_route_is_just_the_return_leg() {
        let out = drop_to_fit(
            Point2::ORIGIN,
            Point2::new(30.0, 40.0),
            &[],
            JoulesPerMeter(10.0),
            Joules(600.0),
        );
        assert!(out.fits);
        assert!((out.route_energy.value() - 500.0).abs() < 1e-9);
    }
}
