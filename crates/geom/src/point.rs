//! 2-D points with the handful of vector operations the planners use.

use std::fmt;
use std::ops::{AddAssign, Div};

/// A point (or vector) in the ground plane, in metres.
///
/// Sensor nodes live at `(x, y, 0)`; the paper projects UAV hovering
/// locations onto the ground plane for coverage tests (the altitude is
/// folded into the coverage radius `R0`), so all planning geometry is 2-D.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Easting coordinate in metres.
    pub x: f64,
    /// Northing coordinate in metres.
    pub y: f64,
}

impl Point2 {
    /// Origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this in radius tests: `a.distance_sq(b) <= r * r` avoids the
    /// square root in the hot coverage loops.
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: returns `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// True when every coordinate is finite (not NaN/inf).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Debug for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2} m, {:.2} m)", self.x, self.y)
    }
}

impl AddAssign for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Point2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, s: f64) -> Point2 {
        Point2::new(self.x / s, self.y / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::new(-1.5, 2.0);
        let b = Point2::new(7.0, -3.25);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 10.0);
        let b = Point2::new(10.0, 0.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(5.0, 5.0));
    }

    #[test]
    fn vector_ops() {
        let mut a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        a += b;
        assert_eq!(a, Point2::new(4.0, 1.0));
        assert_eq!(b / 2.0, Point2::new(1.5, -0.5));
    }

    #[test]
    fn finite_check_rejects_nan() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
        assert!(!Point2::new(0.0, f64::INFINITY).is_finite());
    }
}
