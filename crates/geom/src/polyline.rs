//! Path/tour length helpers and pairwise distance matrices.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes consecutive vertex pairs of a non-empty polyline; the module's unit tests check it"
)]

use crate::Point2;

/// Total length of the open polyline through `pts`, in metres.
///
/// Returns `0.0` for fewer than two points.
pub fn path_length(pts: &[Point2]) -> f64 {
    pts.windows(2).map(|w| w[0].distance(w[1])).sum()
}

/// Total length of the closed tour through `pts` (returning to the first
/// point), in metres.
///
/// Returns `0.0` for fewer than two points — a tour over one location does
/// not move the UAV.
pub fn tour_length(pts: &[Point2]) -> f64 {
    if pts.len() < 2 {
        return 0.0;
    }
    path_length(pts) + pts[pts.len() - 1].distance(pts[0])
}

/// Dense symmetric Euclidean distance matrix over `pts`, row-major.
///
/// `result[i * n + j]` is the distance between points `i` and `j`. Used to
/// feed the metric-graph algorithms in `uavdc-graph`.
pub fn distance_matrix(pts: &[Point2]) -> Vec<f64> {
    let n = pts.len();
    let mut m = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = pts[i].distance(pts[j]);
            m[i * n + j] = d;
            m[j * n + i] = d;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_paths_have_zero_length() {
        assert_eq!(path_length(&[]), 0.0);
        assert_eq!(path_length(&[Point2::ORIGIN]), 0.0);
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
        assert_eq!(path_length(&square), 3.0);
        assert_eq!(tour_length(&square), 4.0);
    }

    #[test]
    fn two_point_tour_is_out_and_back() {
        let pts = [Point2::ORIGIN, Point2::new(7.0, 0.0)];
        assert_eq!(path_length(&pts), 7.0);
        assert_eq!(tour_length(&pts), 14.0);
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 4.0),
            Point2::new(-1.0, 1.0),
        ];
        let m = distance_matrix(&pts);
        let n = pts.len();
        for i in 0..n {
            assert_eq!(m[i * n + i], 0.0);
            for j in 0..n {
                assert_eq!(m[i * n + j], m[j * n + i]);
                assert_eq!(m[i * n + j], pts[i].distance(pts[j]));
            }
        }
    }
}
