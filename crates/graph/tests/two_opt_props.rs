//! Oracle suite for the 2-opt kernel and Prim (DESIGN.md §15, "The
//! 2-opt kernel").
//!
//! The oracle is the full first-improvement 2-opt scan every planner ran
//! before the kernel existed, kept here verbatim. Both kernel scans
//! (full and neighbour-list) and the size dispatch of
//! [`two_opt_by`] must reproduce it exactly: the same final order, the
//! same move count and the same `saved` bits, with the `on_reverse`
//! callback's ranges rebuilding the order from the start tour.
//!
//! Tour shapes: uniform points and a tie-heavy lattice (each at two
//! scales), coincident points and near-collinear points on a far-off
//! line. Sizes
//! run from 4 through [`NEIGHBOUR_SCAN_MIN`] up to 501 (the Benchmark's
//! Christofides size); start tours are Christofides shortcut tours,
//! random permutations or the generation order, over the whole matrix or
//! over a subset of its vertices, with sweep caps from 1 up to 200.
//!
//! Every entry point must also report `converged` exactly when the
//! oracle stopped on a sweep without a move, so a run that hit its sweep
//! cap certifies nothing.
//!
//! The dirty-edge start is checked against the oracle on the edits the
//! orienteering search makes: a tour over part of the points is run to
//! convergence, then vertices are ejected and outside vertices inserted
//! (the edges each edit creates marked dirty), and the kernel started
//! from those marks must make the oracle's moves from the edited tour,
//! with any sweep cap, at sizes on both sides of the cross-over (the
//! neighbour scan ignores the marks).
//!
//! Prim is checked against the two-pass Prim it replaced on the same
//! matrices, all-equal weights included: same edge list, same weight
//! bits.
//!
//! Run with `--features validate` for 1100 cases (the CI gate); the
//! default is a quick 64.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc_graph::christofides::{christofides_with, ChristofidesConfig};
use uavdc_graph::improve::{
    two_opt, two_opt_by, two_opt_full, two_opt_neighbours, TwoOpt, NEIGHBOUR_SCAN_MIN,
};
use uavdc_graph::mst::{prim_mst, SpanningTree};
use uavdc_graph::{DistMatrix, Tour};

fn cases() -> u64 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

/// The full-scan 2-opt the kernel replaced: returns the move count, the
/// saved sum and whether the last sweep moved nothing.
fn oracle_two_opt(
    order: &mut [usize],
    cost: impl Fn(usize, usize) -> f64,
    max_sweeps: usize,
) -> (usize, f64, bool) {
    let n = order.len();
    if n < 4 {
        return (0, 0.0, true);
    }
    let (mut moves, mut saved) = (0, 0.0);
    let mut improved = true;
    let mut sweeps = 0;
    while improved && sweeps < max_sweeps {
        improved = false;
        sweeps += 1;
        for i in 0..n - 1 {
            for j in (i + 2)..n {
                if i == 0 && j == n - 1 {
                    continue;
                }
                let (a, b) = (order[i], order[i + 1]);
                let (c, d) = (order[j], order[(j + 1) % n]);
                let delta = cost(a, c) + cost(b, d) - cost(a, b) - cost(c, d);
                if delta < -1e-10 {
                    order[i + 1..=j].reverse();
                    saved -= delta;
                    moves += 1;
                    improved = true;
                }
            }
        }
    }
    (moves, saved, !improved)
}

/// The two-pass Prim the fused-fringe Prim replaced.
fn oracle_prim(m: &DistMatrix) -> SpanningTree {
    let n = m.len();
    if n <= 1 {
        return SpanningTree {
            edges: Vec::new(),
            weight: 0.0,
        };
    }
    let mut in_tree = vec![false; n];
    let mut best_cost = vec![f64::INFINITY; n];
    let mut best_edge = vec![usize::MAX; n];
    in_tree[0] = true;
    for v in 1..n {
        best_cost[v] = m.get(0, v);
        best_edge[v] = 0;
    }
    let mut edges = Vec::with_capacity(n - 1);
    let mut weight = 0.0;
    for _ in 1..n {
        let mut u = usize::MAX;
        let mut uc = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best_cost[v] < uc {
                uc = best_cost[v];
                u = v;
            }
        }
        in_tree[u] = true;
        edges.push((best_edge[u], u));
        weight += uc;
        let row = m.row(u);
        for v in 0..n {
            if !in_tree[v] && row[v] < best_cost[v] {
                best_cost[v] = row[v];
                best_edge[v] = u;
            }
        }
    }
    SpanningTree { edges, weight }
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Uniform,
    /// Uniform over a field 10⁴ times wider, so rounding errors are large
    /// in absolute terms.
    UniformWide,
    Lattice,
    /// The lattice with a 10⁶ m spacing: exact ties whose rounded delta
    /// can fall below −1e-10, which the skip tests' slack must keep.
    LatticeWide,
    Coincident,
    NearCollinear,
}

fn points(shape: Shape, n: usize, rng: &mut SmallRng) -> Vec<(f64, f64)> {
    match shape {
        Shape::Uniform => (0..n)
            .map(|_| (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect(),
        Shape::UniformWide => (0..n)
            .map(|_| (rng.gen_range(0.0..1e7), rng.gen_range(0.0..1e7)))
            .collect(),
        Shape::Lattice | Shape::LatticeWide => {
            // Drawn with replacement from a grid barely larger than n.
            let side = (n as f64).sqrt().ceil() as usize + 1;
            let spacing = if matches!(shape, Shape::Lattice) {
                7.5
            } else {
                1e6
            };
            (0..n)
                .map(|_| {
                    let (x, y) = (rng.gen_range(0..side), rng.gen_range(0..side));
                    (x as f64 * spacing, y as f64 * spacing)
                })
                .collect()
        }
        Shape::Coincident => {
            let sites: Vec<(f64, f64)> = (0..(n / 4).max(2))
                .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            (0..n)
                .map(|_| sites[rng.gen_range(0..sites.len())])
                .collect()
        }
        Shape::NearCollinear => (0..n)
            .map(|_| {
                let t = rng.gen_range(0.0..1000.0);
                (1e6 + t, 2e6 + 0.5 * t + rng.gen_range(0.0..1e-6))
            })
            .collect(),
    }
}

/// One generated case: a matrix, a start tour over some of its vertices
/// and a sweep cap.
struct Case {
    m: DistMatrix,
    start: Vec<usize>,
    max_sweeps: usize,
    label: String,
}

fn case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = [
        Shape::Uniform,
        Shape::UniformWide,
        Shape::Lattice,
        Shape::LatticeWide,
        Shape::Coincident,
        Shape::NearCollinear,
    ][rng.gen_range(0..6usize)];
    // Half the cases straddle the cross-over, half reach up to 501.
    let n = match seed {
        0 => 4,
        1 => 501,
        _ => rng.gen_range(4..=[NEIGHBOUR_SCAN_MIN + 40, 501][(seed % 2) as usize]),
    };
    // Some tours run over a subset of a larger matrix (as the
    // orienteering solvers' tours do), so vertex ids are not 0..n.
    let extra = if rng.gen_range(0..4u32) == 0 {
        rng.gen_range(1..=n)
    } else {
        0
    };
    let pts = points(shape, n + extra, &mut rng);
    let m = DistMatrix::from_euclidean(&pts);
    let mut ids: Vec<usize> = (0..n + extra).collect();
    for k in (1..ids.len()).rev() {
        ids.swap(k, rng.gen_range(0..=k));
    }
    ids.truncate(n);
    let start_kind = rng.gen_range(0..3u32);
    let start = match start_kind {
        // Christofides shortcut tour, as the Christofides polish sees it.
        0 => {
            let sub = m.submatrix(&ids);
            let cfg = ChristofidesConfig {
                polish: false,
                ..ChristofidesConfig::default()
            };
            let tour = christofides_with(&sub, &cfg, &uavdc_obs::NOOP);
            tour.order().iter().map(|&k| ids[k]).collect()
        }
        // Random permutation: many moves, long edges and wide vertices
        // (kept small so the oracle stays cheap).
        1 => {
            ids.truncate(n.min(150));
            ids
        }
        // Generation order.
        _ => {
            ids.sort_unstable();
            ids
        }
    };
    let max_sweeps = [1, 2, 100, 200][rng.gen_range(0..4usize)];
    let label = format!(
        "seed {seed}: {shape:?}, n {}, extra {extra}, start {start_kind}, cap {max_sweeps}",
        start.len()
    );
    Case {
        m,
        start,
        max_sweeps,
        label,
    }
}

#[derive(Clone, Copy, Debug)]
enum Entry {
    Dispatch,
    Full,
    Neighbours,
}

/// Runs one kernel entry point on the case, tracking the permutation
/// through the callback: returns the final order, the outcome and the
/// permutation.
fn run(entry: Entry, c: &Case) -> (Vec<usize>, TwoOpt, Vec<usize>) {
    let mut order = c.start.clone();
    let mut perm: Vec<usize> = (0..order.len()).collect();
    let cost = |u: usize, v: usize| c.m.get(u, v);
    let mut on_reverse = |lo: usize, hi: usize| perm[lo..=hi].reverse();
    let out = match entry {
        Entry::Dispatch => two_opt_by(&mut order, cost, c.max_sweeps, None, on_reverse),
        Entry::Full => two_opt_full(&mut order, cost, c.max_sweeps, &mut on_reverse),
        Entry::Neighbours => two_opt_neighbours(&mut order, cost, c.max_sweeps, &mut on_reverse),
    };
    (order, out, perm)
}

#[test]
fn kernel_matches_full_scan_oracle() {
    for seed in 0..cases() {
        let c = case(seed);
        let mut want = c.start.clone();
        let (want_moves, want_saved, want_converged) =
            oracle_two_opt(&mut want, |u, v| c.m.get(u, v), c.max_sweeps);
        for entry in [Entry::Dispatch, Entry::Full, Entry::Neighbours] {
            let (order, out, perm) = run(entry, &c);
            assert_eq!(order, want, "{entry:?} order, {}", c.label);
            assert_eq!(out.moves, want_moves, "{entry:?} moves, {}", c.label);
            assert_eq!(
                out.converged, want_converged,
                "{entry:?} converged, {}",
                c.label
            );
            assert_eq!(
                out.saved.to_bits(),
                want_saved.to_bits(),
                "{entry:?} saved, {}",
                c.label
            );
            let replay: Vec<usize> = perm.iter().map(|&k| c.start[k]).collect();
            assert_eq!(replay, order, "{entry:?} callback permutation, {}", c.label);
        }
    }
}

/// A converged tour over part of the points, edited as the orienteering
/// search edits it, then run from the dirty edges; see the module docs.
#[test]
fn dirty_edge_start_matches_full_scan() {
    let (mut runs, mut moved) = (0, 0);
    for seed in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xd127_ed9e);
        let shape = [
            Shape::Uniform,
            Shape::UniformWide,
            Shape::Lattice,
            Shape::LatticeWide,
            Shape::Coincident,
            Shape::NearCollinear,
        ][rng.gen_range(0..6usize)];
        // Half the cases reach the neighbour scan's sizes.
        let total = rng.gen_range(6..=[64, NEIGHBOUR_SCAN_MIN + 60][(seed % 2) as usize]);
        let m = DistMatrix::from_euclidean(&points(shape, total, &mut rng));
        let cost = |u: usize, v: usize| m.get(u, v);
        let mut outside: Vec<usize> = (1..total).collect();
        for k in (1..outside.len()).rev() {
            outside.swap(k, rng.gen_range(0..=k));
        }
        let keep = rng.gen_range(2..total);
        let mut tour = vec![0];
        tour.extend(outside.drain(..keep));
        if !two_opt_by(&mut tour, cost, 200, None, |_, _| {}).converged {
            continue;
        }
        let mut dirty = vec![false; total];
        for _ in 0..rng.gen_range(1..=6) {
            if tour.len() > 1 && (outside.is_empty() || rng.gen_range(0..5u32) < 2) {
                let i = rng.gen_range(1..tour.len());
                tour.remove(i);
                dirty[tour[i - 1]] = true;
            } else if let Some(w) = outside.pop() {
                let pos = rng.gen_range(1..=tour.len());
                tour.insert(pos, w);
                dirty[tour[pos - 1]] = true;
                dirty[w] = true;
            }
        }
        let flags: Vec<bool> = tour.iter().map(|&v| dirty[v]).collect();
        let max_sweeps = [1, 2, 100, 200][rng.gen_range(0..4usize)];
        let label = format!(
            "seed {seed}: {shape:?}, {} of {total} vertices, cap {max_sweeps}",
            tour.len()
        );
        let mut want = tour.clone();
        let (want_moves, want_saved, want_converged) = oracle_two_opt(&mut want, cost, max_sweeps);
        let mut got = tour.clone();
        let mut perm: Vec<usize> = (0..tour.len()).collect();
        let out = two_opt_by(&mut got, cost, max_sweeps, Some(&flags), |lo, hi| {
            perm[lo..=hi].reverse()
        });
        assert_eq!(got, want, "order, {label}");
        assert_eq!(out.moves, want_moves, "moves, {label}");
        assert_eq!(out.saved.to_bits(), want_saved.to_bits(), "saved, {label}");
        assert_eq!(out.converged, want_converged, "converged, {label}");
        let replay: Vec<usize> = perm.iter().map(|&k| tour[k]).collect();
        assert_eq!(replay, got, "callback permutation, {label}");
        runs += 1;
        moved += usize::from(out.moves > 1);
    }
    // Runs must also go on past their first move, with the edges it
    // changed hot.
    assert!(runs > cases() as usize / 2, "{runs} dirty runs");
    assert!(moved > 0, "no dirty run made a second move");
}

#[test]
fn christofides_polish_is_the_kernel_at_200_sweeps() {
    for seed in 0..cases().min(16) {
        let c = case(seed);
        let mut want = c.start.clone();
        let (_, want_saved, _) = oracle_two_opt(&mut want, |u, v| c.m.get(u, v), 200);
        let mut tour = Tour::new(c.start.clone());
        let saved = two_opt(&mut tour, &c.m);
        assert_eq!(tour.order(), want.as_slice(), "{}", c.label);
        assert_eq!(saved.to_bits(), want_saved.to_bits(), "{}", c.label);
    }
}

#[test]
fn prim_matches_two_pass_oracle() {
    let check = |m: &DistMatrix, label: &str| {
        let (got, want) = (prim_mst(m), oracle_prim(m));
        assert_eq!(got.edges, want.edges, "{label}");
        assert_eq!(got.weight.to_bits(), want.weight.to_bits(), "{label}");
    };
    for seed in 0..cases() {
        let c = case(seed);
        check(&c.m, &c.label);
    }
    for n in [0, 1, 2, 3, 17, 160, 501] {
        check(&DistMatrix::zeros(n), &format!("all-zero n {n}"));
        check(
            &DistMatrix::from_fn(n, |_, _| 1.0),
            &format!("all-equal n {n}"),
        );
    }
}
