//! Local-search tour improvement: 2-opt and Or-opt.

use crate::{DistMatrix, Tour};

/// Maximum number of full improvement sweeps before giving up; local search
/// converges long before this on the instance sizes this crate targets.
const MAX_SWEEPS: usize = 200;

/// 2-opt: repeatedly reverse tour segments while that shortens the tour.
/// Returns the total length reduction achieved.
pub fn two_opt(tour: &mut Tour, m: &DistMatrix) -> f64 {
    let n = tour.len();
    if n < 4 {
        return 0.0;
    }
    let mut saved = 0.0;
    for _ in 0..MAX_SWEEPS {
        let mut improved = false;
        for i in 0..n - 1 {
            for j in (i + 2)..n {
                // Reversing order[i+1..=j] replaces edges (i, i+1) and
                // (j, j+1) with (i, j) and (i+1, j+1).
                if i == 0 && j == n - 1 {
                    continue; // same edge pair, no-op
                }
                let order = tour.order();
                let a = order[i];
                let b = order[i + 1];
                let c = order[j];
                let d = order[(j + 1) % n];
                let delta = m.get(a, c) + m.get(b, d) - m.get(a, b) - m.get(c, d);
                if delta < -1e-10 {
                    tour.order_mut()[i + 1..=j].reverse();
                    saved -= delta;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

/// Or-opt: relocate segments of 1–3 consecutive vertices to a better
/// position. Returns the total length reduction achieved.
pub fn or_opt(tour: &mut Tour, m: &DistMatrix) -> f64 {
    let n = tour.len();
    if n < 4 {
        return 0.0;
    }
    let mut saved = 0.0;
    for _ in 0..MAX_SWEEPS {
        let mut improved = false;
        for seg_len in 1..=3usize.min(n - 2) {
            for start in 0..n {
                let order = tour.order().to_vec();
                // Segment [start .. start+seg_len) cyclically.
                if seg_len >= n - 1 {
                    continue;
                }
                let seg: Vec<usize> = (0..seg_len).map(|k| order[(start + k) % n]).collect();
                let prev = order[(start + n - 1) % n];
                let next = order[(start + seg_len) % n];
                let seg_first = seg[0];
                let seg_last = seg[seg_len - 1];
                let removal_gain =
                    m.get(prev, seg_first) + m.get(seg_last, next) - m.get(prev, next);
                if removal_gain <= 1e-10 {
                    continue;
                }
                // Remaining cycle after removing the segment.
                let rest: Vec<usize> = (0..n - seg_len)
                    .map(|k| order[(start + seg_len + k) % n])
                    .collect();
                // Best re-insertion point in the remaining cycle.
                let mut best_cost = f64::INFINITY;
                let mut best_pos = 0;
                let mut best_rev = false;
                for i in 0..rest.len() {
                    let a = rest[i];
                    let b = rest[(i + 1) % rest.len()];
                    let fwd = m.get(a, seg_first) + m.get(seg_last, b) - m.get(a, b);
                    let rev = m.get(a, seg_last) + m.get(seg_first, b) - m.get(a, b);
                    if fwd < best_cost {
                        best_cost = fwd;
                        best_pos = i + 1;
                        best_rev = false;
                    }
                    if rev < best_cost {
                        best_cost = rev;
                        best_pos = i + 1;
                        best_rev = true;
                    }
                }
                if best_cost < removal_gain - 1e-10 {
                    let mut new_order = rest;
                    let mut seg = seg;
                    if best_rev {
                        seg.reverse();
                    }
                    for (k, v) in seg.into_iter().enumerate() {
                        new_order.insert(best_pos + k, v);
                    }
                    saved += removal_gain - best_cost;
                    *tour.order_mut() = new_order;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::held_karp;
    use proptest::prelude::*;

    #[test]
    fn two_opt_untangles_crossing() {
        // Square visited in crossing order 0,2,1,3.
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let mut t = Tour::new(vec![0, 2, 1, 3]);
        let before = t.length(&m);
        let saved = two_opt(&mut t, &m);
        assert!((t.length(&m) - 4.0).abs() < 1e-9);
        assert!((before - t.length(&m) - saved).abs() < 1e-9);
    }

    #[test]
    fn two_opt_noop_on_tiny_tours() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        let mut t = Tour::new(vec![0, 1, 2]);
        assert_eq!(two_opt(&mut t, &m), 0.0);
    }

    #[test]
    fn or_opt_relocates_outlier() {
        // Points on a line, but 3 visited out of order.
        let m = DistMatrix::from_euclidean(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
            (4.0, 0.0),
        ]);
        let mut t = Tour::new(vec![0, 3, 1, 2, 4]);
        or_opt(&mut t, &m);
        // Optimal closed tour over a line is out-and-back: length 8.
        assert!((t.length(&m) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn improvements_preserve_permutation() {
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| ((i * 29 % 40) as f64, (i * 17 % 40) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let mut t = Tour::new((0..12).collect());
        two_opt(&mut t, &m);
        or_opt(&mut t, &m);
        let mut order = t.order().to_vec();
        order.sort_unstable();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_two_opt_never_lengthens(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 4..25),
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let mut t = Tour::new((0..pts.len()).collect());
            let before = t.length(&m);
            let saved = two_opt(&mut t, &m);
            prop_assert!(t.length(&m) <= before + 1e-9);
            prop_assert!((before - t.length(&m) - saved).abs() < 1e-6);
        }

        #[test]
        fn prop_or_opt_never_lengthens(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 4..20),
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let mut t = Tour::new((0..pts.len()).collect());
            let before = t.length(&m);
            or_opt(&mut t, &m);
            prop_assert!(t.length(&m) <= before + 1e-9);
        }

        #[test]
        fn prop_polished_close_to_optimal_small(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 4..9),
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let opt = held_karp(&m).unwrap().length(&m);
            let mut t = Tour::new((0..pts.len()).collect());
            two_opt(&mut t, &m);
            or_opt(&mut t, &m);
            two_opt(&mut t, &m);
            // 2-opt+or-opt local optima on tiny Euclidean instances are
            // empirically within ~25% of optimal.
            prop_assert!(t.length(&m) <= 1.25 * opt + 1e-6,
                "polished {} vs opt {}", t.length(&m), opt);
        }
    }
}
