//! Local-search tour improvement: 2-opt.
//!
//! [`two_opt_by`] is the workspace's one 2-opt kernel; every 2-opt is a
//! call to it (DESIGN.md §15, "The 2-opt kernel"). It makes the same
//! moves as a full first-improvement scan of all pairs, but from
//! [`NEIGHBOUR_SCAN_MIN`] vertices on it visits only the pairs that pass
//! a necessary test for an improving move, and a caller that knows which
//! edges are new since its last converged run can have it start from
//! the pairs touching those edges only.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes tour positions and neighbour lists it built itself; `two_opt_props` checks it against the full-scan oracle"
)]

use crate::{DistMatrix, Tour};

/// Maximum number of full improvement sweeps before giving up; local search
/// converges long before this on the instance sizes this crate targets.
const MAX_SWEEPS: usize = 200;

/// Tour size from which [`two_opt_by`] runs the neighbour-list scan
/// instead of the full pair scan: the measured cross-over (table in
/// DESIGN.md §15, "The 2-opt kernel"). Below it the lists cost more to
/// build than the skipped pairs save.
pub const NEIGHBOUR_SCAN_MIN: usize = 240;

/// Relative slack of the neighbour scan's skip tests, `1 + 16u` with
/// u = 2⁻⁵³: a pair is skipped only when `d(a,c) ≥ fl(d(a,b)·SLACK)` and
/// `d(b,d) ≥ fl(d(c,d)·SLACK)`. The rounding error of the delta
/// expression needs about `1 + 6u`, so a skipped pair always evaluates
/// to `delta ≥ 0` (proof in DESIGN.md §15, "The 2-opt kernel").
const SLACK: f64 = 1.0 + 8.0 * f64::EPSILON;

/// The 2-opt improvement threshold shared by every caller.
const IMPROVES: f64 = -1e-10;

/// What one [`two_opt_by`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TwoOpt {
    /// Sum of `-delta` over the applied moves.
    pub saved: f64,
    /// Number of segment reversals applied.
    pub moves: usize,
    /// The run stopped because a sweep found no improving pair (or the
    /// tour has no pair to try), not at its sweep cap: no pair of the
    /// final order improves. Only such a run certifies the order for a
    /// later dirty-edge start.
    pub converged: bool,
}

/// 2-opt: repeatedly reverse tour segments while that shortens the tour.
/// Returns the total length reduction achieved.
pub fn two_opt(tour: &mut Tour, m: &DistMatrix) -> f64 {
    two_opt_by(
        tour.order_mut(),
        |u, v| m.get(u, v),
        MAX_SWEEPS,
        None,
        |_, _| {},
    )
    .saved
}

/// First-improvement 2-opt over the closed tour `order`, the one kernel
/// behind every 2-opt in the workspace.
///
/// Each sweep visits the pairs `(i, j)`, `i + 2 ≤ j < n`, in ascending
/// order, skipping the pair that shares the closing edge (`i = 0, j =
/// n − 1`, so `order[0]` never moves). With `a, b = order[i], order[i+1]`
/// and `c, d = order[j], order[j+1 mod n]`, it reverses `order[i+1..=j]`
/// as soon as `cost(a,c) + cost(b,d) − cost(a,b) − cost(c,d) < −1e-10`,
/// calls `on_reverse(i + 1, j)` and continues at `j + 1`. Sweeps repeat
/// until one applies no move or `max_sweeps` have run.
///
/// `order` must hold distinct vertices, and `cost` must be symmetric bit
/// for bit and return finite non-negative weights. From [`NEIGHBOUR_SCAN_MIN`] vertices on, the kernel evaluates
/// only the pairs with `cost(a,c) < cost(a,b)` or `cost(b,d) < cost(c,d)`
/// (up to a rounding slack); every other pair provably fails the
/// threshold, so the moves, the final order and the saved sum are those
/// of the full scan bit for bit.
///
/// **Hot edges.** Below [`NEIGHBOUR_SCAN_MIN`] a sweep evaluates only the
/// pairs with a *hot* edge: one that may have changed since the previous
/// sweep began. A pair of two other edges was evaluated in the previous
/// sweep (or skipped there for the same reason) on the operands it has
/// now, and was found non-improving, so it computes the same delta again.
/// A move at `(i, j)` changes the edges at positions `i..=j` (two new ones
/// and the reversed ones between) and no other, so those positions turn
/// hot for the rest of the sweep and for the next one. A cold row meets
/// only the hot columns, in ascending order. The order of the evaluated
/// pairs is the full scan's, so the moves are too.
///
/// **The last sweep.** After a sweep whose last move was the pair `(i,
/// j)`, that sweep tried every later pair on the final order and none
/// improved, so the next sweep, while it has moved nothing, ends at
/// `(i, j)`. Both scans do this.
///
/// **Dirty-edge start.** `dirty`, when given, has one flag per position:
/// `dirty[k]` marks the edge from `order[k]` to its successor as new
/// since the caller's last run that returned `converged`. Edges the
/// caller inserted or ejected vertices around are new; every other edge
/// must be one that run left, with the same endpoints in the same
/// direction (insertions and ejections keep them so). That run's last
/// sweep found every pair of its edges non-improving, so the first sweep
/// starts with only the dirty edges hot (without flags, every edge is).
/// The neighbour scan, which already skips most pairs, ignores the flags.
pub fn two_opt_by<C, R>(
    order: &mut [usize],
    cost: C,
    max_sweeps: usize,
    dirty: Option<&[bool]>,
    mut on_reverse: R,
) -> TwoOpt
where
    C: Fn(usize, usize) -> f64,
    R: FnMut(usize, usize),
{
    if order.len() < NEIGHBOUR_SCAN_MIN {
        full_scan(order, cost, max_sweeps, dirty, &mut on_reverse)
    } else {
        two_opt_neighbours(order, cost, max_sweeps, &mut on_reverse)
    }
}

/// The full O(n²)-per-sweep scan of [`two_opt_by`], whatever the tour
/// size. Public so the oracle suite can pin it at every size.
#[doc(hidden)]
pub fn two_opt_full<C, R>(
    order: &mut [usize],
    cost: C,
    max_sweeps: usize,
    on_reverse: &mut R,
) -> TwoOpt
where
    C: Fn(usize, usize) -> f64,
    R: FnMut(usize, usize),
{
    full_scan(order, cost, max_sweeps, None, on_reverse)
}

/// [`two_opt_full`] from the caller's dirty edges, if any; see
/// [`two_opt_by`] on hot edges.
fn full_scan<C, R>(
    order: &mut [usize],
    cost: C,
    max_sweeps: usize,
    dirty: Option<&[bool]>,
    on_reverse: &mut R,
) -> TwoOpt
where
    C: Fn(usize, usize) -> f64,
    R: FnMut(usize, usize),
{
    let n = order.len();
    let mut out = TwoOpt::default();
    if n < 4 {
        out.converged = true;
        return out;
    }
    // `cost(a, b)` and `cost(c, d)` of every pair come from here: the same
    // call on the same arguments, so the same bits. A reversal keeps the
    // lengths of the edges it reverses (the cost is symmetric bit for bit).
    let mut len: Vec<f64> = (0..n)
        .map(|k| cost(order[k], order[if k + 1 < n { k + 1 } else { 0 }]))
        .collect();
    // `hot[k]`: the edge at `k` may have changed since the previous sweep
    // began (for the first sweep: since the caller's converged run). A pair
    // of two other edges was found non-improving on its current operands.
    // `fresh[k]`: it changed in this sweep, so it is hot in the next one.
    let mut hot = dirty.map_or_else(|| vec![true; n], <[bool]>::to_vec);
    debug_assert_eq!(hot.len(), n, "one dirty flag per tour edge");
    let mut fresh = vec![false; n];
    let mut hot_list: Vec<usize> = (0..n).filter(|&k| hot[k]).collect();
    // The previous sweep's last move: a sweep that reaches it without a
    // move of its own finds no move after it either.
    let mut stop = None;
    for _ in 0..max_sweeps {
        let mut last = None;
        for i in 0..n - 1 {
            // j = n - 1 with i = 0 shares the closing edge: a no-op.
            let jmax = if i == 0 { n - 2 } else { n - 1 };
            let at_stop = stop.filter(|&(si, _)| si == i);
            let mut j = i + 2;
            loop {
                let limit = match at_stop {
                    Some((_, sj)) if last.is_none() => sj,
                    _ => jmax,
                };
                // A cold row pairs only with hot columns.
                let found = if hot[i] {
                    first_move(order, &len, &cost, i, j..=limit)
                } else {
                    let from = hot_list.partition_point(|&k| k < j);
                    let cols = hot_list[from..].iter().copied();
                    first_move(order, &len, &cost, i, cols.take_while(|&k| k <= limit))
                };
                let Some((j_move, ac, bd, delta)) = found else {
                    break;
                };
                order[i + 1..=j_move].reverse();
                on_reverse(i + 1, j_move);
                out.saved -= delta;
                out.moves += 1;
                last = Some((i, j_move));
                len[i + 1..j_move].reverse();
                len[i] = ac;
                len[j_move] = bd;
                for k in i..=j_move {
                    fresh[k] = true;
                    if !hot[k] {
                        hot[k] = true;
                        let at = hot_list.partition_point(|&h| h < k);
                        hot_list.insert(at, k);
                    }
                }
                j = j_move + 1;
            }
            if at_stop.is_some() && last.is_none() {
                break;
            }
        }
        if last.is_none() {
            out.converged = true;
            break;
        }
        stop = last;
        std::mem::swap(&mut hot, &mut fresh);
        fresh.fill(false);
        hot_list.clear();
        hot_list.extend((0..n).filter(|&k| hot[k]));
    }
    out
}

/// The first improving pair `(i, j)` over the columns `cols`, in their
/// order, as `(j, cost(a,c), cost(b,d), delta)`.
fn first_move<C>(
    order: &[usize],
    len: &[f64],
    cost: &C,
    i: usize,
    cols: impl Iterator<Item = usize>,
) -> Option<(usize, f64, f64, f64)>
where
    C: Fn(usize, usize) -> f64,
{
    let n = order.len();
    let (a, b, ab) = (order[i], order[i + 1], len[i]);
    for j in cols {
        let c = order[j];
        let d = if j + 1 < n { order[j + 1] } else { order[0] };
        let (ac, bd) = (cost(a, c), cost(b, d));
        let delta = ac + bd - ab - len[j];
        if delta < IMPROVES {
            return Some((j, ac, bd, delta));
        }
    }
    None
}

/// The neighbour-list scan of [`two_opt_by`], whatever the tour size.
/// Public so the oracle suite can pin it at every size.
///
/// Vertices are renamed to local indices (the ranks of their ids). Each
/// vertex `x` keeps a radius `r[x]` no shorter than either of its current
/// tour edges and a ball list of the `y` with `d(x,y) < fl(r[x]·SLACK)`;
/// the inverse list of `y` holds the `x` whose ball contains `y`. For the
/// outer vertex `a` and its successor `b`, the candidates `j` are
/// * `pos[c]` for `c` in `a`'s ball with `d(a,c) < fl(d(a,b)·SLACK)`;
/// * `pos[d] − 1` for `d` in `b`'s inverse list with
///   `d(b,d) < fl(pred[d]·SLACK)`, where `pred[d]` is the tour edge into
///   `d`.
///
/// They are visited in ascending order; after a reversal at `j` they are
/// gathered afresh from `j + 1` with the new `b`. A reversal gives four
/// vertices a new tour edge; a vertex whose new edge is longer than its
/// radius gets the radius raised and its ball topped up from its row.
///
/// After a sweep whose last move was the pair `(i, j)`, that sweep tried
/// every later pair on the final order and none improved, so the next
/// sweep, while it has moved nothing, ends at `(i, j)`.
#[doc(hidden)]
pub fn two_opt_neighbours<C, R>(
    order: &mut [usize],
    cost: C,
    max_sweeps: usize,
    on_reverse: &mut R,
) -> TwoOpt
where
    C: Fn(usize, usize) -> f64,
    R: FnMut(usize, usize),
{
    let n = order.len();
    let mut out = TwoOpt::default();
    if n < 4 {
        out.converged = true;
        return out;
    }
    let mut ids = order.to_vec();
    ids.sort_unstable();
    let d = |x: usize, y: usize| cost(ids[x], ids[y]);
    let mut tour: Vec<usize> = order
        .iter()
        .map(|v| ids.binary_search(v).unwrap_or_default())
        .collect();
    let mut pos = vec![0; n];
    for (k, &x) in tour.iter().enumerate() {
        pos[x] = k;
    }
    let mut pred = vec![0.0; n];
    for k in 0..n {
        pred[tour[k]] = d(tour[(k + n - 1) % n], tour[k]);
    }
    let radius = (0..n).map(|x| pred[x].max(pred[tour[(pos[x] + 1) % n]]));
    let mut balls = Balls::new(radius.collect(), &d);
    let mut cand: Vec<usize> = Vec::new();
    // The previous sweep's last move.
    let mut stop = None;
    for _ in 0..max_sweeps {
        let mut last = None;
        'sweep: for i in 0..n - 1 {
            let jmax = if i == 0 { n - 2 } else { n - 1 };
            let mut start = i + 2;
            while start <= jmax {
                // In the previous sweep's last-move row, a sweep that has
                // moved nothing needs the candidates up to that move only.
                let (at_stop, limit) = match stop {
                    Some((si, sj)) if si == i && last.is_none() => (true, sj),
                    _ => (false, jmax),
                };
                let (a, b) = (tour[i], tour[i + 1]);
                let ab = pred[b];
                cand.clear();
                for &(c, w) in &balls.ball[a] {
                    let j = pos[c];
                    if w < ab * SLACK && j >= start && j <= limit {
                        cand.push(j);
                    }
                }
                for &(v, w) in &balls.inv[b] {
                    let j = (pos[v] + n - 1) % n;
                    if w < pred[v] * SLACK && j >= start && j <= limit {
                        cand.push(j);
                    }
                }
                cand.sort_unstable();
                cand.dedup();
                // pred[b] and pred[dd] are d(a, b) and d(c, dd), bit for bit.
                let found = cand.iter().find_map(|&j| {
                    let (c, dd) = (tour[j], tour[(j + 1) % n]);
                    let delta = d(a, c) + d(b, dd) - ab - pred[dd];
                    (delta < IMPROVES).then_some((j, delta))
                });
                let Some((j, delta)) = found else {
                    if at_stop {
                        break 'sweep;
                    }
                    break;
                };
                tour[i + 1..=j].reverse();
                order[i + 1..=j].reverse();
                on_reverse(i + 1, j);
                out.saved -= delta;
                out.moves += 1;
                last = Some((i, j));
                for k in i + 1..=j + 1 {
                    let x = tour[k % n];
                    pos[x] = k % n;
                    pred[x] = d(tour[k - 1], x);
                }
                let (c, dd) = (tour[i + 1], tour[(j + 1) % n]);
                for (x, edge) in [(a, pred[c]), (c, pred[c]), (b, pred[dd]), (dd, pred[dd])] {
                    balls.cover(x, edge, &d);
                }
                start = j + 1;
            }
        }
        if last.is_none() {
            out.converged = true;
            break;
        }
        stop = last;
    }
    out
}

/// The neighbour scan's ball lists and their inverses.
struct Balls {
    radius: Vec<f64>,
    /// `ball[x]`: the `(y, d(x,y))` with `d(x,y) < fl(radius[x]·SLACK)`.
    ball: Vec<Vec<(usize, f64)>>,
    /// `inv[y]`: the `(x, d(x,y))` with `y` in `ball[x]`.
    inv: Vec<Vec<(usize, f64)>>,
}

impl Balls {
    /// Builds every ball from one pass over the upper triangle.
    fn new(radius: Vec<f64>, d: &impl Fn(usize, usize) -> f64) -> Balls {
        let n = radius.len();
        let lim: Vec<f64> = radius.iter().map(|&r| r * SLACK).collect();
        let mut balls = Balls {
            radius,
            ball: vec![Vec::new(); n],
            inv: vec![Vec::new(); n],
        };
        for x in 0..n {
            let lim_x = lim[x];
            for (y, &lim_y) in lim.iter().enumerate().skip(x + 1) {
                let w = d(x, y);
                if w < lim_x.max(lim_y) {
                    if w < lim_x {
                        balls.link(x, y, w);
                    }
                    if w < lim_y {
                        balls.link(y, x, w);
                    }
                }
            }
        }
        balls
    }

    fn link(&mut self, x: usize, y: usize, w: f64) {
        self.ball[x].push((y, w));
        self.inv[y].push((x, w));
    }

    /// Raises `radius[x]` to a new tour edge of `x` when the edge is
    /// longer, adding the vertices between the old and new limits.
    fn cover(&mut self, x: usize, edge: f64, d: &impl Fn(usize, usize) -> f64) {
        if edge <= self.radius[x] {
            return;
        }
        let old = self.radius[x] * SLACK;
        self.radius[x] = edge;
        let lim = edge * SLACK;
        for y in 0..self.radius.len() {
            let w = d(x, y);
            if y != x && w >= old && w < lim {
                self.link(x, y, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn improvements_preserve_permutation() {
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| ((i * 29 % 40) as f64, (i * 17 % 40) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        let mut t = Tour::new((0..12).collect());
        two_opt(&mut t, &m);
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
    }
}
