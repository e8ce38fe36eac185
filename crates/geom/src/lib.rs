//! Planar geometry substrate for UAV data-collection planning.
//!
//! This crate provides the geometric primitives needed by the planners in
//! `uavdc-core`: 2-D points, axis-aligned bounding boxes, the square grid
//! partition of the monitoring region (the paper's `δ`-squares) with the
//! coverage test of Eq. 2 (a cell centre within `R0` of a sensor), and a
//! uniform-grid spatial index for fast "all points within radius `r` of a
//! query point" lookups.
//!
//! Everything here is deterministic and allocation-conscious: queries write
//! into caller-provided buffers or yield iterators where it matters, and
//! the spatial index is a flat bucket grid (no per-node boxing).
//!
//! # Example
//!
//! ```
//! use uavdc_geom::{CellId, GridSpec, Point2};
//!
//! // A 100 m x 100 m region partitioned into 10 m squares.
//! let grid = GridSpec::new(Point2::new(0.0, 0.0), 100.0, 100.0, 10.0);
//! assert_eq!(grid.num_cells(), 100);
//!
//! // The hovering locations that cover a sensor with R0 = 10 m: every
//! // cell whose centre lies within 10 m of it, in row-major order.
//! let sensor = Point2::new(12.0, 13.0);
//! let cells: Vec<CellId> = grid.cells_with_center_within(sensor, 10.0).collect();
//! assert_eq!(cells, vec![grid.cell_at(1, 0), grid.cell_at(0, 1), grid.cell_at(1, 1)]);
//! assert_eq!(grid.cell_center(cells[2]), Point2::new(15.0, 15.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::indexing_slicing
    )
)]

mod aabb;
mod grid;
mod order;
mod point;
mod polyline;
mod spatial;

pub use aabb::Aabb;
pub use grid::{CellId, GridSpec};
pub use order::{cmp_f64, cmp_f64_desc, desc_key, from_total_key, total_key, TotalF64};
pub use point::Point2;
pub use polyline::tour_length;
pub use spatial::SpatialGrid;

/// Numerical tolerance used by approximate geometric comparisons in this
/// crate (metres, for the paper's units).
pub const EPS: f64 = 1e-9;

/// Returns true when `a` and `b` differ by at most [`EPS`] in absolute value.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}
