//! Minimum-weight perfect matching on complete graphs.
//!
//! Christofides' heuristic needs a minimum-weight perfect matching over the
//! odd-degree vertices of the MST. Three backends are provided:
//!
//! * [`MatchingBackend::ExactDp`] — bitmask dynamic programming,
//!   `O(2^n · n)`; exact, for `n <= ~20`. Used as ground truth in tests.
//! * [`MatchingBackend::Blossom`] — an `O(n³)` primal–dual blossom
//!   algorithm (maximum-weight matching on transformed weights) on the
//!   complete graph; exact for any size this crate encounters.
//! * [`MatchingBackend::Greedy`] — greedy edge selection plus pairwise
//!   2-exchange improvement; fast approximation used in the ablation
//!   benches.
//!
//! [`MatchingBackend::Auto`] picks DP for tiny inputs. Above that it runs
//! a sparse blossom solver on a k-nearest-neighbour edge set and proves,
//! with one pass over all pairs, that its answer is the unique optimum —
//! hence the dense blossom's answer. When the proof fails it runs the
//! dense blossom instead, so `Auto` and `Blossom` always return the same
//! `mates`. The `matching.certified`, `matching.repairs` and
//! `matching.fallbacks` counters report which way each call went.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes vertices of the matrix it is given; `matching_fuzz` checks every backend against a brute-force oracle"
)]

mod blossom;
mod sparse;

use crate::DistMatrix;
use uavdc_obs::Recorder;

/// Which matching algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchingBackend {
    /// DP for `n <= 16`; above that the certified sparse blossom, with
    /// the dense blossom as fallback. Same `mates` as `Blossom`.
    #[default]
    Auto,
    /// Exact bitmask dynamic programming (`n <= 20` practical).
    ExactDp,
    /// Exact O(n³) blossom algorithm.
    Blossom,
    /// Greedy construction + 2-exchange improvement (approximate).
    Greedy,
}

/// A perfect matching: `mates[v]` is the vertex matched to `v`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matching {
    /// Partner of each vertex; an involution without fixed points.
    pub mates: Vec<usize>,
    /// Total weight of the matched edges.
    pub weight: f64,
}

impl Matching {
    /// The matched edges with `u < v`, in vertex order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.mates
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v < m)
            .map(|(v, &m)| (v, m))
            .collect()
    }

    /// Debug validation: every vertex matched, symmetric, no self-loops.
    pub fn is_perfect(&self) -> bool {
        self.mates
            .iter()
            .enumerate()
            .all(|(v, &m)| m < self.mates.len() && m != v && self.mates[m] == v)
    }
}

/// Minimum-weight perfect matching with the default backend.
///
/// # Panics
/// Panics when the vertex count is odd (no perfect matching exists).
pub fn min_weight_perfect_matching(m: &DistMatrix) -> Matching {
    min_weight_perfect_matching_with(m, MatchingBackend::Auto, &uavdc_obs::NOOP)
}

/// Minimum-weight perfect matching with an explicit backend.
///
/// `Auto` above the DP size reports to `rec`: `matching.certified` or
/// `matching.fallbacks` (one per call), `matching.repairs` (sparse
/// re-solves after adding violated pairs), and the sparse solver's effort
/// summed over its solves: `matching.stages` (augmentations, plus the
/// last stage that finds none), `matching.dual_steps` (dual adjustments)
/// and `matching.blossoms` (blossoms formed). Each is added once per
/// call.
///
/// # Panics
/// Panics when the vertex count is odd.
pub fn min_weight_perfect_matching_with(
    m: &DistMatrix,
    backend: MatchingBackend,
    rec: &dyn Recorder,
) -> Matching {
    let n = m.len();
    assert!(
        n.is_multiple_of(2),
        "perfect matching needs an even vertex count, got {n}"
    );
    if n == 0 {
        return Matching {
            mates: Vec::new(),
            weight: 0.0,
        };
    }
    let mut result = match backend {
        MatchingBackend::Auto if n <= 16 => exact_dp(m),
        MatchingBackend::Auto => {
            let attempt = sparse::certified_matching(m);
            if attempt.repairs > 0 {
                rec.add("matching.repairs", attempt.repairs);
            }
            rec.add("matching.stages", attempt.effort.stages);
            rec.add("matching.dual_steps", attempt.effort.dual_steps);
            rec.add("matching.blossoms", attempt.effort.blossoms);
            match attempt.mates {
                Some(mates) => {
                    rec.add("matching.certified", 1);
                    Matching { mates, weight: 0.0 }
                }
                None => {
                    rec.add("matching.fallbacks", 1);
                    blossom::min_weight_perfect_matching_blossom(m)
                }
            }
        }
        MatchingBackend::ExactDp => exact_dp(m),
        MatchingBackend::Blossom => blossom::min_weight_perfect_matching_blossom(m),
        MatchingBackend::Greedy => greedy_improved(m),
    };
    // Recompute the weight in f64 from the mates to avoid scaling error.
    result.weight = matching_weight(m, &result.mates);
    debug_assert!(result.is_perfect());
    result
}

fn matching_weight(m: &DistMatrix, mates: &[usize]) -> f64 {
    mates
        .iter()
        .enumerate()
        .filter(|&(v, &p)| v < p)
        .map(|(v, &p)| m.get(v, p))
        .sum()
}

/// Exact `O(2^n · n)` bitmask DP.
fn exact_dp(m: &DistMatrix) -> Matching {
    let n = m.len();
    assert!(n <= 22, "exact DP matching limited to n <= 22, got {n}");
    let full: usize = (1usize << n) - 1;
    let mut dp = vec![f64::INFINITY; full + 1];
    let mut choice = vec![usize::MAX; full + 1];
    dp[0] = 0.0;
    for mask in 1..=full {
        if mask.count_ones() % 2 == 1 {
            continue;
        }
        let i = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << i);
        let mut best = f64::INFINITY;
        let mut best_j = usize::MAX;
        let mut bits = rest;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = dp[rest & !(1 << j)];
            let cand = prev + m.get(i, j);
            if cand < best {
                best = cand;
                best_j = j;
            }
        }
        dp[mask] = best;
        choice[mask] = best_j;
    }
    // Reconstruct mates.
    let mut mates = vec![usize::MAX; n];
    let mut mask = full;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        let j = choice[mask];
        mates[i] = j;
        mates[j] = i;
        mask &= !(1 << i);
        mask &= !(1 << j);
    }
    Matching {
        weight: dp[full],
        mates,
    }
}

/// Greedy matching (cheapest edges first) followed by repeated 2-exchange
/// improvement until a local optimum.
fn greedy_improved(m: &DistMatrix) -> Matching {
    let n = m.len();
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j));
        }
    }
    pairs.sort_by(|a, b| uavdc_geom::cmp_f64(m.get(a.0, a.1), m.get(b.0, b.1)));
    let mut mates = vec![usize::MAX; n];
    for (i, j) in pairs {
        if mates[i] == usize::MAX && mates[j] == usize::MAX {
            mates[i] = j;
            mates[j] = i;
        }
    }
    // 2-exchange: for matched edges (a,b), (c,d) try (a,c)(b,d) and (a,d)(b,c).
    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < 64 {
        improved = false;
        rounds += 1;
        let edges: Vec<(usize, usize)> = mates
            .iter()
            .enumerate()
            .filter(|&(v, &p)| v < p)
            .map(|(v, &p)| (v, p))
            .collect();
        for x in 0..edges.len() {
            for y in (x + 1)..edges.len() {
                let (a, b) = edges[x];
                let (c, d) = edges[y];
                // Skip pairs already rewired this round.
                if mates[a] != b || mates[c] != d {
                    continue;
                }
                let cur = m.get(a, b) + m.get(c, d);
                let alt1 = m.get(a, c) + m.get(b, d);
                let alt2 = m.get(a, d) + m.get(b, c);
                if alt1 < cur - 1e-12 && alt1 <= alt2 {
                    mates[a] = c;
                    mates[c] = a;
                    mates[b] = d;
                    mates[d] = b;
                    improved = true;
                } else if alt2 < cur - 1e-12 {
                    mates[a] = d;
                    mates[d] = a;
                    mates[b] = c;
                    mates[c] = b;
                    improved = true;
                }
            }
        }
    }
    Matching {
        weight: matching_weight(m, &mates),
        mates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uavdc_obs::NOOP;

    fn euclid(pts: &[(f64, f64)]) -> DistMatrix {
        DistMatrix::from_euclidean(pts)
    }

    #[test]
    fn empty_matching() {
        let m = DistMatrix::zeros(0);
        let r = min_weight_perfect_matching(&m);
        assert!(r.mates.is_empty());
        assert_eq!(r.weight, 0.0);
    }

    #[test]
    #[should_panic(expected = "even vertex count")]
    fn odd_count_panics() {
        let m = DistMatrix::zeros(3);
        let _ = min_weight_perfect_matching(&m);
    }

    #[test]
    fn two_vertices_match_each_other() {
        let m = euclid(&[(0.0, 0.0), (3.0, 4.0)]);
        for backend in [
            MatchingBackend::ExactDp,
            MatchingBackend::Blossom,
            MatchingBackend::Greedy,
        ] {
            let r = min_weight_perfect_matching_with(&m, backend, &NOOP);
            assert_eq!(r.mates, vec![1, 0], "{backend:?}");
            assert_eq!(r.weight, 5.0, "{backend:?}");
        }
    }

    #[test]
    fn four_on_a_line_pairs_neighbors() {
        // 0-1 and 2-3 (cost 2) beats 0-2/1-3 (cost 4) and 0-3/1-2 (cost 4).
        let m = euclid(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0)]);
        for backend in [
            MatchingBackend::ExactDp,
            MatchingBackend::Blossom,
            MatchingBackend::Greedy,
        ] {
            let r = min_weight_perfect_matching_with(&m, backend, &NOOP);
            assert!(r.is_perfect());
            assert_eq!(r.weight, 2.0, "{backend:?}");
            assert_eq!(r.mates[0], 1);
            assert_eq!(r.mates[2], 3);
        }
    }

    #[test]
    fn greedy_trap_instance_blossom_still_optimal() {
        // Greedy takes the cheapest edge (1,2) first and is forced into
        // expensive leftovers; the optimum avoids it.
        let mut m = DistMatrix::zeros(4);
        m.set(1, 2, 1.0);
        m.set(0, 1, 2.0);
        m.set(2, 3, 2.0);
        m.set(0, 3, 100.0);
        m.set(0, 2, 100.0);
        m.set(1, 3, 100.0);
        let exact = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp, &NOOP);
        let blossom = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom, &NOOP);
        assert_eq!(exact.weight, 4.0);
        assert!((blossom.weight - exact.weight).abs() < 1e-9);
        // Greedy-with-improvement also escapes this particular trap via
        // 2-exchange, ending perfect regardless.
        let greedy = min_weight_perfect_matching_with(&m, MatchingBackend::Greedy, &NOOP);
        assert!(greedy.is_perfect());
        assert!(greedy.weight <= 103.0);
    }

    #[test]
    fn blossom_matches_dp_on_fixed_grid() {
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| ((i * 29 % 17) as f64, (i * 43 % 19) as f64))
            .collect();
        let m = euclid(&pts);
        let dp = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp, &NOOP);
        let bl = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom, &NOOP);
        assert!(bl.is_perfect());
        assert!(
            (bl.weight - dp.weight).abs() < 1e-6 * (1.0 + dp.weight),
            "blossom {} vs dp {}",
            bl.weight,
            dp.weight
        );
    }

    #[test]
    fn blossom_handles_larger_instance() {
        // 60 vertices: too big for DP; check perfectness and that blossom
        // is no worse than greedy.
        let pts: Vec<(f64, f64)> = (0..60)
            .map(|i| ((i * 37 % 100) as f64, (i * 61 % 100) as f64))
            .collect();
        let m = euclid(&pts);
        let bl = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom, &NOOP);
        let gr = min_weight_perfect_matching_with(&m, MatchingBackend::Greedy, &NOOP);
        assert!(bl.is_perfect());
        assert!(gr.is_perfect());
        assert!(bl.weight <= gr.weight + 1e-6);
    }

    #[test]
    fn edges_listing_is_consistent() {
        let m = euclid(&[(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)]);
        let r = min_weight_perfect_matching(&m);
        let es = r.edges();
        assert_eq!(es.len(), 2);
        for (u, v) in es {
            assert_eq!(r.mates[u], v);
            assert_eq!(r.mates[v], u);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_blossom_matches_exact_dp(
            pts in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..7)
                .prop_map(|half| {
                    // Build an even-sized instance by mirroring points.
                    let mut v = half.clone();
                    for &(x, y) in &half { v.push((1000.0 - x, y + 13.0)); }
                    v
                })
        ) {
            let m = euclid(&pts);
            let dp = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp, &NOOP);
            let bl = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom, &NOOP);
            prop_assert!(bl.is_perfect());
            prop_assert!((bl.weight - dp.weight).abs() < 1e-5 * (1.0 + dp.weight),
                "blossom {} vs dp {}", bl.weight, dp.weight);
        }

        #[test]
        fn prop_greedy_is_perfect_and_bounded(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..15)
                .prop_map(|mut v| { if v.len() % 2 == 1 { v.pop(); } v })
        ) {
            prop_assume!(!pts.is_empty());
            let m = euclid(&pts);
            let gr = min_weight_perfect_matching_with(&m, MatchingBackend::Greedy, &NOOP);
            prop_assert!(gr.is_perfect());
            if pts.len() <= 14 {
                let dp = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp, &NOOP);
                // Greedy is approximate but never better than exact.
                prop_assert!(gr.weight >= dp.weight - 1e-9);
            }
        }
    }
}
