//! Exact TSP via Held–Karp dynamic programming (`O(2^n · n²)`).

#![expect(
    clippy::indexing_slicing,
    reason = "indexes Held-Karp subset tables sized by `n`; the module's unit tests and `matching_fuzz` check it"
)]

use crate::{DistMatrix, Tour};

/// Practical vertex limit for [`held_karp`]; beyond this the table exceeds
/// a gigabyte.
pub const HELD_KARP_MAX_N: usize = 20;

/// Optimal closed tour by Held–Karp DP, or `None` when `n` exceeds
/// [`HELD_KARP_MAX_N`].
///
/// Used as ground truth in tests and for exact re-touring of very small
/// hovering-location sets inside the planners.
pub fn held_karp(m: &DistMatrix) -> Option<Tour> {
    let n = m.len();
    if n > HELD_KARP_MAX_N {
        return None;
    }
    if n <= 2 {
        return Some(Tour::new((0..n).collect()));
    }
    // dp[mask][v]: min cost path starting at 0, visiting exactly the
    // vertices of mask (vertex 0 excluded from the mask encoding; bit i
    // represents vertex i+1), ending at v+1.
    let k = n - 1;
    let full: usize = (1 << k) - 1;
    let mut dp = vec![f64::INFINITY; (full + 1) * k];
    let mut parent = vec![usize::MAX; (full + 1) * k];
    for v in 0..k {
        dp[(1 << v) * k + v] = m.get(0, v + 1);
    }
    for mask in 1..=full {
        for last in 0..k {
            if mask & (1 << last) == 0 {
                continue;
            }
            let cur = dp[mask * k + last];
            if !cur.is_finite() {
                continue;
            }
            let rest = full & !mask;
            let mut bits = rest;
            while bits != 0 {
                let nxt = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let nm = mask | (1 << nxt);
                let cand = cur + m.get(last + 1, nxt + 1);
                if cand < dp[nm * k + nxt] {
                    dp[nm * k + nxt] = cand;
                    parent[nm * k + nxt] = last;
                }
            }
        }
    }
    // Close the tour back to 0.
    let mut best = f64::INFINITY;
    let mut best_last = 0;
    for v in 0..k {
        let cand = dp[full * k + v] + m.get(v + 1, 0);
        if cand < best {
            best = cand;
            best_last = v;
        }
    }
    // Reconstruct.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    let mut v = best_last;
    while v != usize::MAX {
        order.push(v + 1);
        let p = parent[mask * k + v];
        mask &= !(1 << v);
        v = p;
    }
    order.push(0);
    order.reverse();
    debug_assert_eq!(order.len(), n);
    Some(Tour::new(order))
}

/// Optimal tour *length* by brute force permutation — `O(n!)`, for tests
/// against Held–Karp on very small instances only.
#[doc(hidden)]
// lint:allow(raw-quantity): DistMatrix weights are dimension-generic; uavdc-core assigns joules at the AuxGraph boundary
pub fn brute_force_length(m: &DistMatrix) -> f64 {
    let n = m.len();
    if n < 2 {
        return 0.0;
    }
    let mut rest: Vec<usize> = (1..n).collect();
    let mut best = f64::INFINITY;
    permute(&mut rest, 0, &mut |perm| {
        let mut len = m.get(0, perm[0]);
        for w in perm.windows(2) {
            len += m.get(w[0], w[1]);
        }
        #[expect(
            clippy::unwrap_used,
            reason = "perm is (1..n) with n >= 2, never empty"
        )]
        let last = *perm.last().unwrap();
        len += m.get(last, 0);
        if len < best {
            best = len;
        }
    });
    best
}

fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trivial_sizes() {
        assert_eq!(held_karp(&DistMatrix::zeros(0)).unwrap().len(), 0);
        assert_eq!(held_karp(&DistMatrix::zeros(1)).unwrap().len(), 1);
        assert_eq!(held_karp(&DistMatrix::zeros(2)).unwrap().len(), 2);
    }

    #[test]
    fn too_large_returns_none() {
        assert!(held_karp(&DistMatrix::zeros(HELD_KARP_MAX_N + 1)).is_none());
    }

    #[test]
    fn square_optimal() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let t = held_karp(&m).unwrap();
        assert!((t.length(&m) - 4.0).abs() < 1e-12);
        assert_eq!(t.order()[0], 0);
    }

    #[test]
    fn line_optimal_is_out_and_back() {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (5.0, 0.0)]);
        let t = held_karp(&m).unwrap();
        assert!((t.length(&m) - 10.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_brute_force(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 3..8),
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let hk = held_karp(&m).unwrap().length(&m);
            let bf = brute_force_length(&m);
            prop_assert!((hk - bf).abs() < 1e-9, "held-karp {} vs brute {}", hk, bf);
        }

        #[test]
        fn prop_tour_is_permutation_starting_at_zero(
            pts in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), 3..10),
        ) {
            let m = DistMatrix::from_euclidean(&pts);
            let t = held_karp(&m).unwrap();
            prop_assert_eq!(t.order()[0], 0);
            let mut order = t.order().to_vec();
            order.sort_unstable();
            prop_assert_eq!(order, (0..pts.len()).collect::<Vec<_>>());
        }
    }
}
