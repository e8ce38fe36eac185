//! Closed-tour length.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes consecutive vertex pairs of a non-empty polyline; the module's unit tests check it"
)]

use crate::Point2;

/// Total length of the closed tour through `pts` (returning to the first
/// point), in metres.
///
/// Returns `0.0` for fewer than two points — a tour over one location does
/// not move the UAV.
pub fn tour_length(pts: &[Point2]) -> f64 {
    if pts.len() < 2 {
        return 0.0;
    }
    let open: f64 = pts.windows(2).map(|w| w[0].distance(w[1])).sum();
    open + pts[pts.len() - 1].distance(pts[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_paths_have_zero_length() {
        assert_eq!(tour_length(&[]), 0.0);
        assert_eq!(tour_length(&[Point2::new(5.0, 5.0)]), 0.0);
    }

    #[test]
    fn unit_square_tour() {
        let square = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        assert_eq!(tour_length(&square), 4.0);
    }

    #[test]
    fn two_point_tour_is_out_and_back() {
        let pts = [Point2::ORIGIN, Point2::new(7.0, 0.0)];
        assert_eq!(tour_length(&pts), 14.0);
    }
}
