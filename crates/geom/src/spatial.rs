//! Uniform-grid spatial index over a fixed point set.
//!
//! Answers "all points within radius `r` of `q`" for query points that are
//! not grid cells: the benchmark heuristic's per-device coverage lists,
//! the sweep baseline's lattice stops, and device aggregation in
//! `uavdc-net`'s topology builder. A flat bucket grid answers these in
//! expected O(k) per query. (The planners' candidate grid does not query
//! it: each device enumerates its own cells through
//! [`GridSpec::cells_with_center_within`](crate::GridSpec::cells_with_center_within).)

#![expect(
    clippy::indexing_slicing,
    reason = "indexes grid buckets computed from clamped cell coordinates; `candidate_props` uses the grid as its oracle"
)]

use crate::{Aabb, Point2};

/// A spatial index of a fixed slice of points, bucketed on a uniform grid.
///
/// Point identity is positional: queries return indices into the slice the
/// index was built from.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    points: Vec<Point2>,
    origin: Point2,
    cell: f64,
    nx: i64,
    ny: i64,
    /// CSR-style layout: `starts[b]..starts[b+1]` slices `entries` for bucket `b`.
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl SpatialGrid {
    /// Builds an index over `points` with the given bucket edge length.
    ///
    /// `cell` should be on the order of the typical query radius; the
    /// planners use `R0`. Empty point sets are allowed.
    ///
    /// # Panics
    /// Panics when `cell` is non-positive/non-finite or any point is not
    /// finite.
    pub fn build(points: &[Point2], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "bucket size must be positive, got {cell}"
        );
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} is not finite: {p:?}");
        }
        let bounds = Aabb::from_points(points)
            .unwrap_or_else(|| Aabb::new(Point2::ORIGIN, Point2::new(cell, cell)));
        let origin = bounds.min;
        let nx = ((bounds.width() / cell).floor() as i64 + 1).max(1);
        let ny = ((bounds.height() / cell).floor() as i64 + 1).max(1);
        let nbuckets = (nx * ny) as usize;

        // Counting sort of points into buckets (CSR construction).
        let bucket_of = |p: Point2| -> usize {
            let bx = (((p.x - origin.x) / cell).floor() as i64).clamp(0, nx - 1);
            let by = (((p.y - origin.y) / cell).floor() as i64).clamp(0, ny - 1);
            (by * nx + bx) as usize
        };
        let mut counts = vec![0u32; nbuckets + 1];
        for &p in points {
            counts[bucket_of(p) + 1] += 1;
        }
        for b in 0..nbuckets {
            counts[b + 1] += counts[b];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut entries = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let b = bucket_of(p);
            entries[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }

        SpatialGrid {
            points: points.to_vec(),
            origin,
            cell,
            nx,
            ny,
            starts,
            entries,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points within (closed) distance `radius` of `q`.
    pub fn query_radius(&self, q: Point2, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_radius_into(q, radius, &mut out);
        out
    }

    /// As [`SpatialGrid::query_radius`], appending into `out` (cleared
    /// first) to let hot loops reuse the allocation.
    pub fn query_radius_into(&self, q: Point2, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if self.points.is_empty() || !radius.is_finite() || radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let lo_x =
            (((q.x - radius - self.origin.x) / self.cell).floor() as i64).clamp(0, self.nx - 1);
        let hi_x =
            (((q.x + radius - self.origin.x) / self.cell).floor() as i64).clamp(0, self.nx - 1);
        let lo_y =
            (((q.y - radius - self.origin.y) / self.cell).floor() as i64).clamp(0, self.ny - 1);
        let hi_y =
            (((q.y + radius - self.origin.y) / self.cell).floor() as i64).clamp(0, self.ny - 1);
        for by in lo_y..=hi_y {
            for bx in lo_x..=hi_x {
                let b = (by * self.nx + bx) as usize;
                let s = self.starts[b] as usize;
                let e = self.starts[b + 1] as usize;
                for &i in &self.entries[s..e] {
                    if self.points[i as usize].distance_sq(q) <= r2 {
                        out.push(i as usize);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_radius(points: &[Point2], q: Point2, r: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(q) <= r * r)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index_behaves() {
        let g = SpatialGrid::build(&[], 10.0);
        assert!(g.is_empty());
        assert!(g.query_radius(Point2::ORIGIN, 100.0).is_empty());
    }

    #[test]
    fn single_point() {
        let g = SpatialGrid::build(&[Point2::new(3.0, 4.0)], 10.0);
        assert_eq!(g.query_radius(Point2::ORIGIN, 5.0), vec![0]);
        assert!(g.query_radius(Point2::ORIGIN, 4.99).is_empty());
    }

    #[test]
    fn radius_query_matches_brute_force_on_grid_cluster() {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                pts.push(Point2::new(i as f64 * 7.0, j as f64 * 7.0));
            }
        }
        let g = SpatialGrid::build(&pts, 15.0);
        for &(qx, qy, r) in &[
            (70.0, 70.0, 20.0),
            (0.0, 0.0, 50.0),
            (133.0, 1.0, 7.0),
            (60.0, 60.0, 0.0),
        ] {
            let q = Point2::new(qx, qy);
            let mut got = g.query_radius(q, r);
            let mut want = brute_radius(&pts, q, r);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query ({qx},{qy}) r={r}");
        }
    }

    #[test]
    fn negative_or_nan_radius_is_empty() {
        let g = SpatialGrid::build(&[Point2::ORIGIN], 1.0);
        assert!(g.query_radius(Point2::ORIGIN, -1.0).is_empty());
        assert!(g.query_radius(Point2::ORIGIN, f64::NAN).is_empty());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_point_panics() {
        let _ = SpatialGrid::build(&[Point2::new(f64::NAN, 0.0)], 1.0);
    }

    proptest! {
        #[test]
        fn prop_radius_query_matches_brute_force(
            pts in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 0..120),
            qx in -100.0f64..1100.0,
            qy in -100.0f64..1100.0,
            r in 0.0f64..400.0,
            cell in 1.0f64..200.0,
        ) {
            let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let g = SpatialGrid::build(&points, cell);
            let q = Point2::new(qx, qy);
            let mut got = g.query_radius(q, r);
            let mut want = brute_radius(&points, q, r);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
