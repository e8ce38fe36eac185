//! Fuzz harness for minimum-weight perfect matching: every backend is
//! compared against an *independent* brute-force oracle on all instances
//! with `n <= 10` vertices.
//!
//! The oracle enumerates every perfect matching recursively (always
//! pairing the lowest-index unmatched vertex, `(n-1)!! = 945` matchings
//! at `n = 10`), so it shares no code — and no failure mode — with the
//! bitmask-DP backend the unit tests lean on. Instances mix quantized
//! Euclidean points (duplicate points, collinear runs and mirrored pairs
//! make ties the norm) with arbitrary symmetric weight matrices, which
//! Euclidean generators can never produce (triangle-inequality
//! violations, zero rows, near-degenerate weights).
//!
//! The second half is differential: for `n` in 18..=120, where `Auto`
//! runs the certified sparse matcher, its `mates` must equal the dense
//! blossom's exactly — on uniform Euclidean points, tie-heavy lattices
//! with duplicate points (the certificate must refuse and fall back),
//! two far-apart odd clusters (the nearest-neighbour graph has no perfect
//! matching, so the repair path runs), greedy traps, and arbitrary
//! symmetric weights. A paper-scale case takes the MST odd set of 501
//! uniform points in 1 km², as the benchmark heuristic does, and reports
//! how many instances the certificate accepted, with the sparse solver's
//! effort counters (stages, dual steps, blossoms) per call.
//!
//! Run with `--features validate` to widen to >= 1024 seeded cases (64
//! paper-scale seeds).

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc_graph::matching::{min_weight_perfect_matching_with, MatchingBackend};
use uavdc_graph::mst::{odd_degree_vertices, prim_mst};
use uavdc_graph::DistMatrix;
use uavdc_obs::{CollectingRecorder, NOOP};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

/// Minimum matching weight by exhaustive recursion: pair the lowest
/// unmatched vertex with every candidate partner and recurse.
fn brute_force_min_weight(m: &DistMatrix) -> f64 {
    fn go(m: &DistMatrix, used: &mut [bool]) -> f64 {
        let Some(i) = used.iter().position(|&u| !u) else {
            return 0.0;
        };
        used[i] = true;
        let mut best = f64::INFINITY;
        for j in (i + 1)..used.len() {
            if used[j] {
                continue;
            }
            used[j] = true;
            let w = m.get(i, j) + go(m, used);
            if w < best {
                best = w;
            }
            used[j] = false;
        }
        used[i] = false;
        best
    }
    let mut used = vec![false; m.len()];
    go(m, &mut used)
}

/// Weight of a `mates` involution under `m`.
fn weight_of(m: &DistMatrix, mates: &[usize]) -> f64 {
    mates
        .iter()
        .enumerate()
        .filter(|&(v, &p)| v < p)
        .map(|(v, &p)| m.get(v, p))
        .sum()
}

fn check_against_oracle(m: &DistMatrix, tag: &str) {
    let want = brute_force_min_weight(m);
    let tol = 1e-9 * (1.0 + want.abs());
    for backend in [
        MatchingBackend::ExactDp,
        MatchingBackend::Blossom,
        MatchingBackend::Auto,
    ] {
        let got = min_weight_perfect_matching_with(m, backend, &NOOP);
        prop_assert!(
            got.is_perfect(),
            "{}: {:?} matching not perfect",
            tag,
            backend
        );
        prop_assert!(
            (got.weight - want).abs() <= tol,
            "{}: {:?} weight {} vs brute force {}",
            tag,
            backend,
            got.weight,
            want
        );
        // The reported weight must be the f64 sum of the reported edges.
        prop_assert_eq!(
            got.weight.to_bits(),
            weight_of(m, &got.mates).to_bits(),
            "{}: {:?} weight is not the sum of its own edges",
            tag,
            backend
        );
    }
    // Greedy is approximate: perfect and never better than the optimum.
    let greedy = min_weight_perfect_matching_with(m, MatchingBackend::Greedy, &NOOP);
    prop_assert!(greedy.is_perfect(), "{}: greedy matching not perfect", tag);
    prop_assert!(
        greedy.weight >= want - tol,
        "{}: greedy weight {} beats the optimum {}",
        tag,
        greedy.weight,
        want
    );
}

/// Tie-heavy quantized coordinates (duplicates allowed on purpose).
fn qpoint() -> impl Strategy<Value = (f64, f64)> {
    (0u32..8, 0u32..8).prop_map(|(x, y)| (f64::from(x) * 2.5, f64::from(y) * 2.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Euclidean instances, n in {2, 4, 6, 8, 10}: every exact backend
    /// hits the brute-force optimum, ties and duplicate points included.
    #[test]
    fn euclidean_backends_match_brute_force(pts in vec(qpoint(), 1..6)) {
        // Mirror each point to force an even count and extra symmetry.
        let mut all = pts.clone();
        for &(x, y) in &pts {
            all.push((17.5 - x, y));
        }
        let m = DistMatrix::from_euclidean(&all);
        check_against_oracle(&m, "euclidean");
    }

    /// Arbitrary symmetric non-negative weights (no triangle inequality):
    /// the blossom dual bounds must still certify the optimum.
    #[test]
    fn arbitrary_weights_match_brute_force(
        half in vec(0u32..100, 1..6),
        weights in vec(0.0f64..50.0, 45..46),
    ) {
        let n = 2 * half.len();
        let mut m = DistMatrix::zeros(n);
        let mut w = weights.iter().cycle();
        for i in 0..n {
            for j in (i + 1)..n {
                // Quantize to make exactly-equal weights common.
                let q = (w.next().unwrap() * 2.0).round() / 2.0;
                m.set(i, j, q);
            }
        }
        check_against_oracle(&m, "arbitrary");
    }

    /// Greedy-trap shapes: one ultra-cheap central edge whose endpoints
    /// are the only cheap partners of everyone else. Exact backends must
    /// not take the bait.
    #[test]
    fn trap_instances_match_brute_force(
        k in 1usize..5,
        cheap in 0.0f64..1.0,
        far in 50.0f64..100.0,
    ) {
        let n = 2 * k + 2;
        let mut m = DistMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, far);
            }
        }
        // Vertices 0 and 1 are mutually cheap and cheap-ish to everyone,
        // so pairing them strands the rest on expensive edges.
        m.set(0, 1, cheap);
        for v in 2..n {
            m.set(0, v, cheap + 1.0);
            m.set(1, v, cheap + 1.0);
        }
        check_against_oracle(&m, "trap");
    }
}

/// `Auto` (sparse + certificate, dense fallback) must return exactly the
/// dense blossom's `mates`. Returns the counters `Auto` emitted.
fn auto_equals_dense(m: &DistMatrix) -> CollectingRecorder {
    let rec = CollectingRecorder::new();
    let auto = min_weight_perfect_matching_with(m, MatchingBackend::Auto, &rec);
    let dense = min_weight_perfect_matching_with(m, MatchingBackend::Blossom, &NOOP);
    assert!(auto.is_perfect());
    assert_eq!(
        auto.mates,
        dense.mates,
        "Auto and Blossom disagree (n = {})",
        m.len()
    );
    let r = rec.report();
    assert_eq!(
        r.counter("matching.certified") + r.counter("matching.fallbacks"),
        1,
        "one verdict per call"
    );
    rec
}

fn even(mut pts: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    if pts.len() % 2 == 1 {
        pts.pop();
    }
    pts
}

/// Points of one cluster: `n` uniform in a `side` square at `(x0, 0)`.
fn cluster(rng: &mut SmallRng, n: usize, x0: f64, side: f64) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (x0 + rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

/// Symmetric weights from `f(i, j)` for `i < j`.
fn weights(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> DistMatrix {
    let mut m = DistMatrix::zeros(n);
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(i, j, f(i, j));
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn auto_equals_dense_on_uniform_points(
        pts in vec((0.0f64..1000.0, 0.0f64..1000.0), 18..121)
    ) {
        auto_equals_dense(&DistMatrix::from_euclidean(&even(pts)));
    }

    /// A 6x6 lattice at 2.5 m: duplicates and equal distances everywhere,
    /// so optima are rarely unique and the dense fallback must take over.
    #[test]
    fn auto_equals_dense_on_tie_heavy_lattices(
        pts in vec((0u32..6, 0u32..6), 18..121)
    ) {
        let pts: Vec<(f64, f64)> = pts
            .into_iter()
            .map(|(x, y)| (f64::from(x) * 2.5, f64::from(y) * 2.5))
            .collect();
        auto_equals_dense(&DistMatrix::from_euclidean(&even(pts)));
    }

    /// Two odd clusters 10 km apart, each larger than the neighbour count:
    /// the sparse graph has no perfect matching until repaired.
    #[test]
    fn auto_equals_dense_on_far_odd_clusters(
        half in 7usize..30,
        other in 7usize..30,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pts = cluster(&mut rng, 2 * half + 1, 0.0, 100.0);
        pts.extend(cluster(&mut rng, 2 * other + 1, 1e4, 100.0));
        auto_equals_dense(&DistMatrix::from_euclidean(&pts));
    }

    /// Vertices 0 and 1 are each other's cheapest partner and cheap to
    /// everyone; pairing them strands the rest on dear edges.
    #[test]
    fn auto_equals_dense_on_greedy_traps(
        half in 9usize..61,
        cheap in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = weights(2 * half, |i, j| match (i, j) {
            (0, 1) => cheap,
            (0 | 1, _) => cheap + 1.0 + rng.gen_range(0.0..0.1),
            _ => rng.gen_range(50.0..100.0),
        });
        auto_equals_dense(&m);
    }

    /// Arbitrary symmetric weights, quantized so exact ties are common:
    /// no triangle inequality, so near neighbours mean little.
    #[test]
    fn auto_equals_dense_on_arbitrary_weights(
        half in 9usize..61,
        step in prop_oneof![Just(0.5f64), Just(1e-3f64)],
        seed in 0u64..u64::MAX,
    ) {
        let step: f64 = step;
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = weights(2 * half, |_, _| (rng.gen_range(0.0..50.0) / step).round() * step);
        auto_equals_dense(&m);
    }
}

/// A 6x4 unit lattice has many optimal matchings: the certificate must
/// refuse, and the fallback must return the dense answer.
#[test]
fn tied_lattice_takes_the_dense_fallback() {
    let pts: Vec<(f64, f64)> = (0..24)
        .map(|i| (f64::from(i % 6), f64::from(i / 6)))
        .collect();
    let r = auto_equals_dense(&DistMatrix::from_euclidean(&pts)).report();
    assert_eq!(r.counter("matching.fallbacks"), 1);
}

/// Two odd clusters far apart: the repair round must add a crossing pair.
#[test]
fn far_odd_clusters_run_a_repair() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut pts = cluster(&mut rng, 21, 0.0, 100.0);
    pts.extend(cluster(&mut rng, 25, 1e4, 100.0));
    let r = auto_equals_dense(&DistMatrix::from_euclidean(&pts)).report();
    assert!(r.counter("matching.repairs") >= 1);
}

/// The benchmark heuristic's matching at paper scale: the MST odd set of
/// 501 uniform points in 1 km² (depot + 500 devices; ~210 vertices).
#[test]
fn paper_scale_odd_sets_certify_and_equal_dense() {
    let seeds: u64 = if cfg!(feature = "validate") { 64 } else { 4 };
    let mut certified = 0;
    let mut effort = [0u64; 3];
    for seed in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = cluster(&mut rng, 501, 0.0, 1000.0);
        let m = DistMatrix::from_euclidean(&pts);
        let odd = odd_degree_vertices(pts.len(), &prim_mst(&m).edges);
        let r = auto_equals_dense(&m.submatrix(&odd)).report();
        certified += r.counter("matching.certified");
        for (sum, name) in effort.iter_mut().zip([
            "matching.stages",
            "matching.dual_steps",
            "matching.blossoms",
        ]) {
            *sum += r.counter(name);
        }
    }
    let [stages, steps, blossoms] = effort.map(|e| e as f64 / seeds as f64);
    println!(
        "paper-scale odd sets certified: {certified}/{seeds}; per call {stages:.1} stages, \
         {steps:.1} dual steps, {blossoms:.1} blossoms"
    );
    // Every sparse solve runs at least the stage that finds no
    // augmentation.
    assert!(stages >= 1.0, "effort counters flushed");
    // The speed-up rests on the certificate accepting these instances.
    assert!(10 * certified >= 9 * seeds, "certified {certified}/{seeds}");
}
