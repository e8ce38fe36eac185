//! Geometric tour helpers shared by the greedy planners.
//!
//! The greedy planners (Algorithms 2/3 and the benchmark) maintain their
//! tours as point sequences with the depot fixed at index 0; these helpers
//! keep that invariant while providing the usual construction and
//! improvement moves.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes tour positions within the tour it is given; `lazy_equivalence` and `alg2_incremental_equivalence` check it"
)]

use uavdc_geom::{tour_length, Point2};
use uavdc_graph::christofides::{christofides_with, ChristofidesConfig};
use uavdc_graph::DistMatrix;

/// Cheapest insertion of `p` into the closed tour `pts`: returns
/// `(delta, pos)` with `pos >= 1` (the depot at index 0 is never
/// displaced; `pos == pts.len()` appends on the closing edge).
pub fn cheapest_insertion_point(pts: &[Point2], p: Point2) -> (f64, usize) {
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

/// Removal delta of the vertex at `idx` from the closed tour: how much the
/// tour shortens when it is removed (non-negative for metric instances).
pub fn removal_delta(pts: &[Point2], idx: usize) -> f64 {
    let n = pts.len();
    debug_assert!(idx < n);
    if n <= 2 {
        // Removing one of <= 2 points removes the whole out-and-back leg.
        return tour_length(pts);
    }
    let prev = pts[(idx + n - 1) % n];
    let cur = pts[idx];
    let next = pts[(idx + 1) % n];
    prev.distance(cur) + cur.distance(next) - prev.distance(next)
}

/// Re-orders a closed point tour with Christofides (plus 2-opt polish) and
/// returns the permutation applied: `perm[k]` is the old index of the
/// point now at position `k`. The depot (old index 0) stays at position 0.
/// The underlying Christofides call statistics (`christofides.*`) go to
/// `rec`.
pub fn christofides_order(pts: &[Point2], rec: &dyn uavdc_obs::Recorder) -> Vec<usize> {
    let n = pts.len();
    if n <= 3 {
        return (0..n).collect();
    }
    let m = DistMatrix::from_fn(n, |i, j| pts[i].distance(pts[j]));
    let mut tour = christofides_with(&m, &ChristofidesConfig::default(), rec);
    tour.rotate_to_start(0);
    tour.order().to_vec()
}

/// Applies a permutation returned by [`christofides_order`] to a vector.
pub fn apply_order<T: Clone>(items: &[T], order: &[usize]) -> Vec<T> {
    order.iter().map(|&i| items[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(10.0, 10.0),
            Point2::new(0.0, 10.0),
        ]
    }

    #[test]
    fn insertion_and_removal_are_inverse() {
        let pts = sq();
        let p = Point2::new(5.0, -3.0);
        let (delta, pos) = cheapest_insertion_point(&pts, p);
        let mut with = pts.clone();
        with.insert(pos, p);
        assert!((tour_length(&with) - tour_length(&pts) - delta).abs() < 1e-9);
        assert!((removal_delta(&with, pos) - delta).abs() < 1e-9);
    }

    #[test]
    fn insertion_never_displaces_depot() {
        let pts = sq();
        // A point nearest the closing edge (between last and first).
        let (_, pos) = cheapest_insertion_point(&pts, Point2::new(-1.0, 5.0));
        assert!(pos >= 1);
    }

    #[test]
    fn insertion_into_empty_and_singleton() {
        assert_eq!(cheapest_insertion_point(&[], Point2::ORIGIN), (0.0, 1));
        let (d, pos) = cheapest_insertion_point(&[Point2::ORIGIN], Point2::new(3.0, 4.0));
        assert_eq!(d, 10.0);
        assert_eq!(pos, 1);
    }

    #[test]
    fn removal_delta_on_tiny_tours() {
        let two = vec![Point2::ORIGIN, Point2::new(5.0, 0.0)];
        assert_eq!(removal_delta(&two, 1), 10.0);
    }

    #[test]
    fn christofides_order_keeps_depot_first() {
        let pts: Vec<Point2> = (0..12)
            .map(|i| Point2::new((i * 37 % 50) as f64, (i * 13 % 50) as f64))
            .collect();
        let order = christofides_order(&pts, &uavdc_obs::NOOP);
        assert_eq!(order[0], 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        let reordered = apply_order(&pts, &order);
        assert!(tour_length(&reordered) <= tour_length(&pts) + 1e-9);
    }
}
