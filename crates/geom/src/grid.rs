//! The paper's square grid partition of the monitoring region.
//!
//! Section IV partitions the hovering region into `M` squares of edge
//! length `δ`; the UAV may only hover at square centres. [`GridSpec`]
//! materialises that partition and provides cell↔coordinate mappings.

use crate::{Aabb, Point2};

/// Identifier of a grid cell: the pair of column/row indices.
///
/// Cells are addressed as `(ix, iy)` with `ix` along x (columns) and `iy`
/// along y (rows); the linear index is `iy * nx + ix`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index, `0..nx`.
    pub ix: u32,
    /// Row index, `0..ny`.
    pub iy: u32,
}

/// A uniform square grid partition of a rectangular region.
///
/// The last column/row may extend past the region edge when the side length
/// is not an exact multiple of `delta` (the partition covers the region).
#[derive(Clone, Debug)]
pub struct GridSpec {
    origin: Point2,
    delta: f64,
    nx: u32,
    ny: u32,
}

impl GridSpec {
    /// Builds the partition of the `width` x `height` region anchored at
    /// `origin` into squares of edge `delta`.
    ///
    /// A zero `width` or `height` (a line or point region) still gets
    /// one column or row of cells.
    ///
    /// # Panics
    /// Panics when `delta` is non-positive or non-finite, or when `width`
    /// or `height` is negative or non-finite.
    pub fn new(origin: Point2, width: f64, height: f64, delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta > 0.0,
            "delta must be positive, got {delta}"
        );
        assert!(
            width.is_finite() && width >= 0.0,
            "width must be non-negative, got {width}"
        );
        assert!(
            height.is_finite() && height >= 0.0,
            "height must be non-negative, got {height}"
        );
        let nx = (width / delta).ceil() as u32;
        let ny = (height / delta).ceil() as u32;
        GridSpec {
            origin,
            delta,
            nx: nx.max(1),
            ny: ny.max(1),
        }
    }

    /// Builds the partition of a bounding region.
    pub fn for_region(region: &Aabb, delta: f64) -> Self {
        GridSpec::new(region.min, region.width(), region.height(), delta)
    }

    /// Cell edge length `δ` in metres.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of cells `M = nx * ny`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Cell id from column/row indices.
    ///
    /// # Panics
    /// Panics when the indices are out of range.
    pub fn cell_at(&self, ix: u32, iy: u32) -> CellId {
        assert!(
            ix < self.nx && iy < self.ny,
            "cell ({ix},{iy}) out of {}x{} grid",
            self.nx,
            self.ny
        );
        CellId { ix, iy }
    }

    /// Linear index of a cell in row-major order, for use as a `Vec` index.
    #[inline]
    pub fn linear_index(&self, c: CellId) -> usize {
        c.iy as usize * self.nx as usize + c.ix as usize
    }

    /// Centre of a cell — a potential hovering location (projected).
    #[inline]
    pub fn cell_center(&self, c: CellId) -> Point2 {
        Point2::new(
            self.origin.x + (c.ix as f64 + 0.5) * self.delta,
            self.origin.y + (c.iy as f64 + 0.5) * self.delta,
        )
    }

    /// Iterates all cell ids in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.ny).flat_map(move |iy| (0..self.nx).map(move |ix| CellId { ix, iy }))
    }

    /// Cells whose *centre* lies within distance `radius` of `p`.
    ///
    /// This enumerates the candidate hovering locations that can cover a
    /// sensor at `p` with coverage radius `radius` — the set the paper
    /// bounds by `⌈π·R0²/δ²⌉` per sensor.
    ///
    /// Cells come in row-major order. The test is
    /// `cell_center(c).distance_sq(p) <= radius²`, run over a conservative
    /// index window around `p`, so `p` may lie outside the grid. A
    /// negative or non-finite `radius` yields no cells.
    pub fn cells_with_center_within(
        &self,
        p: Point2,
        radius: f64,
    ) -> impl Iterator<Item = CellId> + '_ {
        let lo_x = ((p.x - radius - self.origin.x) / self.delta - 1.0)
            .floor()
            .max(0.0) as u32;
        let lo_y = ((p.y - radius - self.origin.y) / self.delta - 1.0)
            .floor()
            .max(0.0) as u32;
        let hi_x = (((p.x + radius - self.origin.x) / self.delta).ceil() as i64)
            .clamp(0, self.nx as i64 - 1) as u32;
        let hi_y = (((p.y + radius - self.origin.y) / self.delta).ceil() as i64)
            .clamp(0, self.ny as i64 - 1) as u32;
        // An empty row range empties the window.
        let (lo_y, hi_y) = if radius.is_finite() && radius >= 0.0 {
            (lo_y, hi_y)
        } else {
            (1, 0)
        };
        let r2 = radius * radius;
        (lo_y..=hi_y)
            .flat_map(move |iy| (lo_x..=hi_x).map(move |ix| CellId { ix, iy }))
            .filter(move |&c| self.cell_center(c).distance_sq(p) <= r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_100x100_d10() -> GridSpec {
        GridSpec::new(Point2::ORIGIN, 100.0, 100.0, 10.0)
    }

    #[test]
    fn cell_counts() {
        let g = grid_100x100_d10();
        assert_eq!(g.nx(), 10);
        assert_eq!(g.ny(), 10);
        assert_eq!(g.num_cells(), 100);
    }

    #[test]
    fn non_divisible_side_rounds_up() {
        let g = GridSpec::new(Point2::ORIGIN, 105.0, 95.0, 10.0);
        assert_eq!(g.nx(), 11);
        assert_eq!(g.ny(), 10);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_panics() {
        let _ = GridSpec::new(Point2::ORIGIN, 10.0, 10.0, 0.0);
    }

    #[test]
    fn zero_extent_region_has_one_row_or_column() {
        for (w, h, nx, ny) in [(0.0, 0.0, 1, 1), (0.0, 300.0, 1, 30), (300.0, 0.0, 30, 1)] {
            let g = GridSpec::new(Point2::new(10.0, 20.0), w, h, 10.0);
            assert_eq!((g.nx(), g.ny()), (nx, ny), "{w} x {h}");
            let cells: Vec<CellId> = g
                .cells_with_center_within(Point2::new(10.0, 20.0), 10.0)
                .collect();
            assert_eq!(cells, vec![g.cell_at(0, 0)], "{w} x {h}");
        }
    }

    #[test]
    #[should_panic(expected = "width must be non-negative")]
    fn negative_width_panics() {
        let _ = GridSpec::new(Point2::ORIGIN, -1.0, 10.0, 1.0);
    }

    #[test]
    fn centers_are_cell_midpoints() {
        let g = grid_100x100_d10();
        assert_eq!(g.cell_center(g.cell_at(0, 0)), Point2::new(5.0, 5.0));
        assert_eq!(g.cell_center(g.cell_at(9, 9)), Point2::new(95.0, 95.0));
        assert_eq!(g.cell_center(g.cell_at(3, 7)), Point2::new(35.0, 75.0));
    }

    #[test]
    fn linear_index_roundtrip() {
        let g = GridSpec::new(Point2::ORIGIN, 70.0, 30.0, 10.0);
        for (i, c) in g.cells().enumerate() {
            assert_eq!(g.linear_index(c), i);
        }
        assert_eq!(g.linear_index(g.cell_at(0, 0)), 0);
        assert_eq!(g.linear_index(g.cell_at(6, 2)), 2 * 7 + 6);
    }

    #[test]
    fn cells_within_radius_cover_sensor() {
        let g = grid_100x100_d10();
        let sensor = Point2::new(50.0, 50.0);
        let cells: Vec<CellId> = g.cells_with_center_within(sensor, 15.0).collect();
        // Every returned center is within the radius...
        for c in &cells {
            assert!(g.cell_center(*c).distance(sensor) <= 15.0);
        }
        // ...and no non-returned cell center is.
        let returned: std::collections::BTreeSet<_> = cells.iter().copied().collect();
        for c in g.cells() {
            if g.cell_center(c).distance(sensor) <= 15.0 {
                assert!(returned.contains(&c), "missing cell {c:?}");
            }
        }
        assert!(!cells.is_empty());
    }

    #[test]
    fn cells_within_radius_near_border() {
        let g = grid_100x100_d10();
        let cells: Vec<CellId> = g
            .cells_with_center_within(Point2::new(1.0, 1.0), 12.0)
            .collect();
        assert!(cells.contains(&g.cell_at(0, 0)));
        for c in &cells {
            assert!(c.ix < g.nx() && c.iy < g.ny());
        }
    }

    #[test]
    fn cells_within_bad_radius_is_empty() {
        let g = grid_100x100_d10();
        let p = Point2::new(50.0, 50.0);
        for r in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(g.cells_with_center_within(p, r).count(), 0, "radius {r}");
        }
    }

    #[test]
    fn paper_bound_on_candidate_count_holds() {
        // |cells covering one sensor| <= π R0²/δ² + O(perimeter), check the
        // asymptotic bound with slack for boundary cells.
        let g = GridSpec::new(Point2::ORIGIN, 1000.0, 1000.0, 5.0);
        let r0 = 50.0;
        let cells: Vec<CellId> = g
            .cells_with_center_within(Point2::new(500.0, 500.0), r0)
            .collect();
        let area_bound = std::f64::consts::PI * r0 * r0 / (5.0 * 5.0);
        assert!((cells.len() as f64) <= area_bound * 1.2 + 16.0);
        assert!((cells.len() as f64) >= area_bound * 0.8);
    }
}
