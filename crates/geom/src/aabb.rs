//! Axis-aligned bounding boxes over the ground plane.

#![expect(
    clippy::indexing_slicing,
    reason = "slices a fixed-size corner array; the module's unit tests check it"
)]

use crate::Point2;

/// An axis-aligned rectangle `[min.x, max.x] x [min.y, max.y]` in metres.
///
/// Used to describe the monitoring region and to clip grid/coverage queries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Aabb {
    /// Creates a box from two opposite corners, normalising the ordering so
    /// that `min` is component-wise below `max`.
    pub fn new(a: Point2, b: Point2) -> Self {
        Aabb {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The square `[0, side] x [0, side]` — the paper's monitoring region
    /// shape (1000 m x 1000 m by default).
    pub fn square(side: f64) -> Self {
        Aabb::new(Point2::ORIGIN, Point2::new(side, side))
    }

    /// Smallest box containing every point of `pts`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_points(pts: &[Point2]) -> Option<Self> {
        let first = *pts.first()?;
        let mut b = Aabb {
            min: first,
            max: first,
        };
        for &p in &pts[1..] {
            b.expand_to(p);
        }
        Some(b)
    }

    /// Grows the box (if needed) to contain `p`.
    pub fn expand_to(&mut self, p: Point2) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Returns a copy grown outward by `margin` on every side.
    pub fn inflated(self, margin: f64) -> Self {
        Aabb {
            min: Point2::new(self.min.x - margin, self.min.y - margin),
            max: Point2::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Box width along x, in metres.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Box height along y, in metres.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Geometric centre of the box.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// Area in square metres.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when the two boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Distance from `p` to the closest point of the box (zero if inside).
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_corners() {
        let b = Aabb::new(Point2::new(5.0, -1.0), Point2::new(-2.0, 3.0));
        assert_eq!(b.min, Point2::new(-2.0, -1.0));
        assert_eq!(b.max, Point2::new(5.0, 3.0));
    }

    #[test]
    fn square_region() {
        let b = Aabb::square(1000.0);
        assert_eq!(b.width(), 1000.0);
        assert_eq!(b.height(), 1000.0);
        assert_eq!(b.area(), 1e6);
        assert_eq!(b.center(), Point2::new(500.0, 500.0));
    }

    #[test]
    fn from_points_bounds_everything() {
        let pts = [
            Point2::new(1.0, 9.0),
            Point2::new(-3.0, 2.0),
            Point2::new(4.0, -7.0),
        ];
        let b = Aabb::from_points(&pts).unwrap();
        for &p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Point2::new(-3.0, -7.0));
        assert_eq!(b.max, Point2::new(4.0, 9.0));
        assert!(Aabb::from_points(&[]).is_none());
    }

    #[test]
    fn containment_is_inclusive_on_boundary() {
        let b = Aabb::square(10.0);
        assert!(b.contains(Point2::new(0.0, 0.0)));
        assert!(b.contains(Point2::new(10.0, 10.0)));
        assert!(!b.contains(Point2::new(10.0001, 5.0)));
    }

    #[test]
    fn intersection_detection() {
        let a = Aabb::square(10.0);
        let b = Aabb::new(Point2::new(9.0, 9.0), Point2::new(20.0, 20.0));
        let c = Aabb::new(Point2::new(11.0, 11.0), Point2::new(20.0, 20.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn point_distance_zero_inside_positive_outside() {
        let b = Aabb::square(10.0);
        assert_eq!(b.distance_to_point(Point2::new(5.0, 5.0)), 0.0);
        assert_eq!(b.distance_to_point(Point2::new(13.0, 14.0)), 5.0);
    }

    #[test]
    fn inflation_adds_margin() {
        let b = Aabb::square(10.0).inflated(2.0);
        assert_eq!(b.min, Point2::new(-2.0, -2.0));
        assert_eq!(b.max, Point2::new(12.0, 12.0));
    }
}
