//! The paper's benchmark heuristic (§VII.A).
//!
//! Build a Christofides tour over *all* aggregate sensor nodes; if its
//! hovering + travel energy exceeds the battery, repeatedly remove the
//! tour node whose removal loses the least data volume per unit of energy
//! saved, until feasible.
//!
//! Collection follows the same physical framework as the planners: the
//! UAV hovering above a node receives from *every* device within coverage
//! radius `R0` simultaneously, each device being collected at its first
//! covering stop in tour order (this is what reproduces the paper's
//! benchmark magnitudes — e.g. ≈ 74 GB at `E = 3·10⁵ J` in Fig. 4 — which
//! single-node collection undershoots by ~3x). The pruning ratio uses the
//! *marginal* data loss of removing a stop: data nobody else on the tour
//! still covers.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes stops, devices and tournament-tree slots it built itself; `prune_props` checks the lazy pruner against the exhaustive one"
)]

use crate::greedy::{EngineMode, EvalCounters, PlanStats};
use crate::plan::{CollectionPlan, HoverStop};
use crate::tourutil::{apply_order, christofides_order, removal_delta};
use crate::Planner;
use uavdc_geom::{tour_length, Point2, SpatialGrid};
use uavdc_net::units::Seconds;
use uavdc_net::{DeviceId, Scenario};
use uavdc_obs::{Recorder, Span};

/// The benchmark planner (no configuration; [`Planner::plan`] uses the
/// incremental pruning engine, [`BenchmarkPlanner::plan_prepared`]
/// selects the engine explicitly).
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchmarkPlanner;

/// The benchmark pruner's capacity-independent setup artifact: per-device
/// coverage lists plus the initial Christofides tour over depot + all
/// devices. Depends only on the scenario *layout* (positions, coverage
/// radius), never on the battery, so capacity sweeps over one instance
/// can share it through an [`ArtifactCache`](crate::ArtifactCache)
/// keyed by `Scenario::layout_fingerprint`.
#[derive(Clone, Debug)]
pub struct BenchmarkSetup {
    /// Devices within `R0` of each device's position (by device index).
    coverage: CoverageRows,
    /// Initial tour positions in Christofides order; index 0 is the depot.
    pts: Vec<Point2>,
    /// Device hovered above per tour index (`usize::MAX` for the depot).
    dev_of: Vec<usize>,
}

/// Per-device coverage lists in one flat array: row `d` is
/// `dev[start[d]..start[d + 1]]`, in [`SpatialGrid::query_radius`] order
/// (bucket order, not ascending). The pruner's `lost` sums read rows in
/// this order, so it is part of the plans' bit-identity.
#[derive(Clone, Debug)]
struct CoverageRows {
    start: Vec<usize>,
    dev: Vec<u32>,
}

impl std::ops::Index<usize> for CoverageRows {
    type Output = [u32];

    fn index(&self, d: usize) -> &[u32] {
        &self.dev[self.start[d]..self.start[d + 1]]
    }
}

impl BenchmarkSetup {
    /// Builds the artifact, reporting the Christofides sub-spans to
    /// `rec`. Requires a non-empty scenario (the planner's empty-scenario
    /// early return never consults the artifact).
    pub fn build_obs(scenario: &Scenario, rec: &dyn Recorder) -> Self {
        let n = scenario.num_devices();
        let r0 = scenario.coverage_radius().value();

        // Coverage lists per device position.
        let positions = scenario.device_positions();
        let index = SpatialGrid::build(&positions, r0.max(1.0));
        let mut coverage = CoverageRows {
            start: Vec::with_capacity(n + 1),
            dev: Vec::new(),
        };
        coverage.start.push(0);
        let mut row = Vec::new();
        for &p in &positions {
            index.query_radius_into(p, r0, &mut row);
            coverage.dev.extend(row.iter().map(|&i| i as u32));
            coverage.start.push(coverage.dev.len());
        }

        // Initial Christofides tour over depot + all devices (polished
        // once up front; the pruning loop then only removes nodes, so its
        // per-iteration cost shrinks as the battery grows — the runtime
        // shape the paper reports).
        let mut pts: Vec<Point2> = Vec::with_capacity(n + 1);
        pts.push(scenario.depot);
        pts.extend(positions.iter().copied());
        let order = christofides_order(&pts, rec);
        let pts = apply_order(&pts, &order);
        let dev_of: Vec<usize> = order
            .iter()
            .map(|&i| if i == 0 { usize::MAX } else { i - 1 })
            .collect();
        BenchmarkSetup {
            coverage,
            pts,
            dev_of,
        }
    }

    /// Builds the artifact without instrumentation.
    pub fn build(scenario: &Scenario) -> Self {
        BenchmarkSetup::build_obs(scenario, &uavdc_obs::NOOP)
    }

    /// Number of stops on the initial tour (depot included).
    pub fn tour_len(&self) -> usize {
        self.pts.len()
    }
}

/// Working state of the pruning loop.
struct PruneState<'a> {
    scenario: &'a Scenario,
    /// Tour positions; index 0 is the depot.
    pts: Vec<Point2>,
    /// Device hovered above per tour index (`usize::MAX` for the depot).
    dev_of: Vec<usize>,
    /// Devices within `R0` of each device's position (by device index),
    /// borrowed from the setup artifact.
    coverage: &'a CoverageRows,
}

impl<'a> PruneState<'a> {
    /// Assigns every device to its first covering stop in tour order and
    /// returns `(per-stop new-device lists, per-stop hover seconds,
    /// total hover energy)`.
    fn assignments(&self) -> (Vec<Vec<u32>>, Vec<f64>, f64) {
        let b = self.scenario.radio.bandwidth.value();
        let eta_h = self.scenario.uav.hover_power.value();
        let mut taken = vec![false; self.scenario.num_devices()];
        let mut new_devices = vec![Vec::new(); self.pts.len()];
        let mut hover_s = vec![0.0; self.pts.len()];
        let mut hover_energy = 0.0;
        for i in 1..self.pts.len() {
            let dev = self.dev_of[i];
            let mut t = 0.0f64;
            for &v in &self.coverage[dev] {
                if !taken[v as usize] {
                    taken[v as usize] = true;
                    new_devices[i].push(v);
                    t = t.max(self.scenario.devices[v as usize].data.value() / b);
                }
            }
            hover_s[i] = t;
            hover_energy += t * eta_h;
        }
        (new_devices, hover_s, hover_energy)
    }
}

/// One pruning pass with a full rescan per iteration (the reference the
/// incremental engine is validated against).
fn prune_exhaustive(state: &mut PruneState<'_>, counters: &mut EvalCounters) {
    let scenario = state.scenario;
    let n = scenario.num_devices();
    let eta_h = scenario.uav.hover_power.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let capacity = scenario.uav.capacity.value();
    loop {
        counters.iterations += 1;
        let (_, hover_s, hover_energy) = state.assignments();
        let tour_len = tour_length(&state.pts);
        if hover_energy + tour_len * per_m <= capacity || state.pts.len() <= 1 {
            break;
        }
        counters.marginal_evals += (state.pts.len() - 1) as u64;
        counters.evaluations += (state.pts.len() - 1) as u64;
        // Marginal data loss of removing stop i: the data of devices
        // assigned to i that no other remaining stop covers.
        let mut covering_stops = vec![0u32; n];
        #[allow(clippy::needless_range_loop)] // several arrays indexed by i
        for i in 1..state.pts.len() {
            for &v in &state.coverage[state.dev_of[i]] {
                covering_stops[v as usize] += 1;
            }
        }
        let mut best_idx = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        #[allow(clippy::needless_range_loop)] // several arrays indexed by i
        for i in 1..state.pts.len() {
            let dev = state.dev_of[i];
            let lost: f64 = state.coverage[dev]
                .iter()
                .filter(|&&v| covering_stops[v as usize] == 1)
                .map(|&v| scenario.devices[v as usize].data.value())
                .sum();
            let saved = removal_delta(&state.pts, i) * per_m + hover_s[i] * eta_h;
            let ratio = lost / saved.max(1e-12);
            if ratio < best_ratio {
                best_ratio = ratio;
                best_idx = i;
            }
        }
        if best_idx == usize::MAX {
            break;
        }
        state.pts.remove(best_idx);
        state.dev_of.remove(best_idx);
    }
}

/// Min tournament tree over the stops' cached removal ratios, keyed
/// `(ratio, id)`. Leaves are implicit (`size + id`); internal node `k`
/// holds the winning leaf of its subtree. Every id in a left subtree is
/// lower than every id in its right sibling, so "the right child wins
/// only on a strictly smaller ratio" makes the root the *leftmost*
/// minimum — exactly the stop the ascending strict-`<` fold picks. Ties
/// compare with IEEE `<`, under which `-0.0` and `0.0` are equal, as in
/// the fold.
struct Tournament {
    /// Key per leaf; `+∞` for the depot, removed stops and padding.
    key: Vec<f64>,
    /// Winning leaf per internal node `1..size` (`win[0]` is unused).
    win: Vec<u32>,
    size: usize,
}

impl Tournament {
    /// A tree over `n >= 2` leaves, all at `+∞`.
    fn new(n: usize) -> Self {
        let size = n.next_power_of_two();
        let mut t = Tournament {
            key: vec![f64::INFINITY; size],
            win: vec![0; size],
            size,
        };
        for k in (1..size).rev() {
            t.win[k] = t.winner(k);
        }
        t
    }

    /// Winning leaf of node `k`'s two children.
    #[inline]
    fn winner(&self, k: usize) -> u32 {
        let child = |c: usize| {
            if c >= self.size {
                (c - self.size) as u32
            } else {
                self.win[c]
            }
        };
        let (l, r) = (child(2 * k), child(2 * k + 1));
        if self.key[r as usize] < self.key[l as usize] {
            r
        } else {
            l
        }
    }

    /// Sets leaf `id`'s key and replays the matches on its root path.
    fn set(&mut self, id: usize, key: f64) {
        self.key[id] = key;
        let mut k = (self.size + id) / 2;
        while k >= 1 {
            self.win[k] = self.winner(k);
            k /= 2;
        }
    }

    /// The leftmost minimum as `(key, id)`.
    fn min(&self) -> (f64, usize) {
        let id = self.win[1] as usize;
        (self.key[id], id)
    }
}

/// `γ_k = k·ε / (1 − k·ε)` with `ε = f64::EPSILON`, twice the unit
/// roundoff: the standard bound on the rounding error of a `k`-term
/// floating-point sum, relative to the sum of the terms' magnitudes,
/// with the unit doubled to absorb the rounding of the certificate's own
/// arithmetic (DESIGN.md §8).
fn gamma(k: usize) -> f64 {
    let ke = k as f64 * f64::EPSILON;
    ke / (1.0 - ke)
}

/// A running floating-point sum kept alongside the exact recomputation
/// it estimates, with the bookkeeping of its proven error bound
/// (DESIGN.md §8): `value` differs from the exact sum over the current
/// `terms` non-negative terms by at most `γ_{ops + 2·terms_at_reset +
/// terms + 4} · mass`.
#[derive(Clone, Copy)]
struct RunningSum {
    value: f64,
    /// Value at the last reset plus every term added or removed since.
    mass: f64,
    /// Additions and subtractions since the last reset.
    ops: usize,
    /// Terms summed by the exact recomputation at the last reset.
    terms_at_reset: usize,
}

impl RunningSum {
    /// Restarts from an exact `terms`-term sum.
    fn reset(exact: f64, terms: usize) -> Self {
        RunningSum {
            value: exact,
            mass: exact,
            ops: 0,
            terms_at_reset: terms,
        }
    }

    #[inline]
    fn add(&mut self, t: f64) {
        self.value += t;
        self.mass += t;
        self.ops += 1;
    }

    #[inline]
    fn sub(&mut self, t: f64) {
        self.value -= t;
        self.mass += t;
        self.ops += 1;
    }

    /// Error bound against the exact sum over `terms` current terms.
    fn bound(&self, terms: usize) -> f64 {
        gamma(self.ops + 2 * self.terms_at_reset + terms + 4) * self.mass
    }
}

/// Incremental pruning with per-iteration work in proportion to what the
/// last removal changed. Stops keep their initial tour positions as ids,
/// linked by `prev`/`next`, so tour order is ascending id and "the first
/// covering stop in tour order" is the lowest alive id. It maintains
/// per-device covering-stop counts, the first-covering-stop assignment
/// and per-stop hover seconds (max-merged), cached edge lengths and
/// removal deltas (a removal changes only its two neighbours' deltas),
/// cached `lost` sums refreshed from a dirty list, and a [`Tournament`]
/// over the cached ratios. Every cached quantity is kept bit-identical to
/// the full rescan's (same filtered coverage-order sums, same delta
/// operands), and the tree's leftmost minimum is the rescan's
/// ascending strict-`<` pick, so the removal sequence — and the final
/// plan — matches [`prune_exhaustive`] exactly (property-tested in
/// `tests/prune_props.rs`; DESIGN.md §8).
///
/// Feasibility is decided from running estimates of the hover energy and
/// the tour length. Only when the estimate comes within its proven
/// rounding bound of the battery do the exact sums run (in the rescan's
/// order, restarting the estimates); otherwise the estimate certifies
/// "infeasible", which is the exact test's answer too.
fn prune_lazy(state: &mut PruneState<'_>, counters: &mut EvalCounters) {
    let scenario = state.scenario;
    let n = scenario.num_devices();
    let eta_h = scenario.uav.hover_power.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let capacity = scenario.uav.capacity.value();
    let b = scenario.radio.bandwidth.value();
    let pts = &state.pts;
    let dev_of = &state.dev_of;
    let coverage = state.coverage;
    let len0 = pts.len();

    // Stop id of each device (the initial tour visits every device once).
    let mut stop_of_dev = vec![0usize; n];
    for i in 1..len0 {
        stop_of_dev[dev_of[i]] = i;
    }
    let mut prev: Vec<usize> = (0..len0).map(|i| (i + len0 - 1) % len0).collect();
    let mut next: Vec<usize> = (0..len0).map(|i| (i + 1) % len0).collect();
    let mut alive = vec![true; len0];
    let mut alive_count = len0;
    // `edge[i]` = length of the edge from stop `i` to its successor.
    let mut edge: Vec<f64> = (0..len0).map(|i| pts[i].distance(pts[next[i]])).collect();
    // Number of on-tour stops covering each device.
    let mut covering_stops = vec![0u32; n];
    for &d in &dev_of[1..] {
        for &v in &coverage[d] {
            covering_stops[v as usize] += 1;
        }
    }
    // First-covering-stop assignment (same sweep as `assignments`).
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); len0];
    let mut hover_s: Vec<f64> = vec![0.0; len0];
    {
        let mut taken = vec![false; n];
        for i in 1..len0 {
            let mut t = 0.0f64;
            for &v in &coverage[dev_of[i]] {
                if !taken[v as usize] {
                    taken[v as usize] = true;
                    assigned[i].push(v);
                    t = t.max(scenario.devices[v as usize].data.value() / b);
                }
            }
            hover_s[i] = t;
        }
    }

    // Removal delta of stop `i` on the current tour: `removal_delta`'s
    // operands read from the edge cache, including its rule that with one
    // stop left its removal saves the whole out-and-back tour.
    let removal_delta_of =
        |i: usize, prev: &[usize], next: &[usize], edge: &[f64], alive_count: usize| {
            if alive_count <= 2 {
                edge[0] + edge[i]
            } else {
                edge[prev[i]] + edge[i] - pts[prev[i]].distance(pts[next[i]])
            }
        };
    let mut delta: Vec<f64> = (0..len0)
        .map(|i| removal_delta_of(i, &prev, &next, &edge, alive_count))
        .collect();
    // The rescan's ratio formula on cached operands. No key is ever NaN:
    // the denominator is at least 1e-12 (`f64::max` drops a NaN operand)
    // and `lost` is a sum of non-negative volumes, so a ratio is NaN only
    // when `lost` and `saved` both overflow to +∞, and such a ratio is
    // keyed +∞ — never picked by the tree, just as the fold's strict `<`
    // never picks a NaN.
    let ratio_of = |lost: f64, delta: f64, hover: f64| -> f64 {
        let saved = delta * per_m + hover * eta_h;
        let ratio = lost / saved.max(1e-12);
        if ratio.is_nan() {
            f64::INFINITY
        } else {
            ratio
        }
    };
    // Cached marginal loss per stop; every stop starts dirty.
    let mut lost: Vec<f64> = vec![0.0; len0];
    let mut dirty: Vec<usize> = (1..len0).collect();
    let mut in_dirty = vec![true; len0];
    let mut tree = Tournament::new(len0);

    // Exact energy sums, in the rescan's order and operations: hover
    // terms accumulated in tour order, and `tour_length` (the
    // open path's `sum` plus the closing edge) over cached edges. Called
    // with at least two stops on the tour.
    let exact_sums = |next: &[usize], edge: &[f64], hover_s: &[f64]| {
        let mut hover_energy = 0.0f64;
        let mut i = next[0];
        while i != 0 {
            hover_energy += hover_s[i] * eta_h;
            i = next[i];
        }
        let mut last = 0;
        let path: f64 =
            std::iter::successors(Some(0usize), |&i| (next[next[i]] != 0).then_some(next[i]))
                .map(|i| {
                    last = next[i];
                    edge[i]
                })
                .sum();
        (hover_energy, path + edge[last])
    };
    let (h0, l0) = exact_sums(&next, &edge, &hover_s);
    let mut est_h = RunningSum::reset(h0, alive_count - 1);
    let mut est_l = RunningSum::reset(l0, alive_count);
    let mut restale: Vec<usize> = Vec::new();

    loop {
        counters.iterations += 1;
        if alive_count <= 1 {
            break;
        }
        let est = est_h.value + est_l.value * per_m;
        let margin = est_h.bound(alive_count - 1) + est_l.bound(alive_count) * per_m;
        if est - margin > capacity {
            if crate::validate::hooks_active() {
                let (h, l) = exact_sums(&next, &edge, &hover_s);
                debug_assert!(
                    h + l * per_m > capacity,
                    "feasibility certificate disagrees with the exact sums"
                );
            }
        } else {
            let (h, l) = exact_sums(&next, &edge, &hover_s);
            if h + l * per_m <= capacity {
                break;
            }
            est_h = RunningSum::reset(h, alive_count - 1);
            est_l = RunningSum::reset(l, alive_count);
        }
        // Refresh stale loss caches (the filtered sum runs in coverage
        // order, exactly like the exhaustive pass).
        let refreshed = dirty.len() as u64;
        for &i in &dirty {
            in_dirty[i] = false;
            lost[i] = coverage[dev_of[i]]
                .iter()
                .filter(|&&v| covering_stops[v as usize] == 1)
                .map(|&v| scenario.devices[v as usize].data.value())
                .sum();
            tree.set(i, ratio_of(lost[i], delta[i], hover_s[i]));
        }
        dirty.clear();
        counters.marginal_evals += refreshed;
        counters.evaluations += refreshed;
        let (best_ratio, s) = tree.min();
        if best_ratio.is_infinite() {
            break;
        }

        // Unlink stop `s` and repair the incremental structures.
        alive[s] = false;
        alive_count -= 1;
        tree.set(s, f64::INFINITY);
        est_h.sub(hover_s[s] * eta_h);
        let (p, q) = (prev[s], next[s]);
        next[p] = q;
        prev[q] = p;
        let e_pq = pts[p].distance(pts[q]);
        est_l.sub(edge[p]);
        est_l.sub(edge[s]);
        est_l.add(e_pq);
        edge[p] = e_pq;
        // Decrement covering counts; a device dropping to a single
        // remaining coverer changes that coverer's marginal loss.
        let removed_dev = dev_of[s];
        for &v in &coverage[removed_dev] {
            let v = v as usize;
            covering_stops[v] -= 1;
            if covering_stops[v] == 1 {
                for &d in &coverage[v] {
                    let t = stop_of_dev[d as usize];
                    if alive[t] && !in_dirty[t] {
                        in_dirty[t] = true;
                        dirty.push(t);
                    }
                }
            }
        }
        // Reassign the removed stop's devices to their next covering
        // stop in tour order (max-merge keeps hover times exact).
        restale.clear();
        for v in std::mem::take(&mut assigned[s]) {
            let first = coverage[v as usize]
                .iter()
                .map(|&d| stop_of_dev[d as usize])
                .filter(|&t| alive[t])
                .min();
            if let Some(t) = first {
                assigned[t].push(v);
                let h = hover_s[t].max(scenario.devices[v as usize].data.value() / b);
                if h > hover_s[t] {
                    est_h.sub(hover_s[t] * eta_h);
                    est_h.add(h * eta_h);
                    restale.push(t);
                }
                hover_s[t] = h;
            }
        }
        // A removal changes only its neighbours' deltas, except that the
        // last stop's delta follows the one-stop rule.
        if alive_count <= 3 {
            let mut i = next[0];
            while i != 0 {
                restale.push(i);
                i = next[i];
            }
        } else {
            restale.extend([p, q].into_iter().filter(|&i| i != 0));
        }
        for &i in &restale {
            delta[i] = removal_delta_of(i, &prev, &next, &edge, alive_count);
            tree.set(i, ratio_of(lost[i], delta[i], hover_s[i]));
        }
    }

    // Hand the surviving tour back in tour order.
    let kept: Vec<usize> =
        std::iter::successors(Some(0), |&i| (next[i] != 0).then_some(next[i])).collect();
    state.pts = kept.iter().map(|&i| state.pts[i]).collect();
    state.dev_of = kept.iter().map(|&i| state.dev_of[i]).collect();
}

impl BenchmarkPlanner {
    /// Recorder-free twin of
    /// [`plan_prepared_obs`](BenchmarkPlanner::plan_prepared_obs).
    pub fn plan_prepared(
        &self,
        scenario: &Scenario,
        engine: EngineMode,
        prepared: Option<&BenchmarkSetup>,
    ) -> (CollectionPlan, PlanStats) {
        self.plan_prepared_obs(scenario, engine, prepared, &uavdc_obs::NOOP)
    }

    /// Plans with an explicit engine choice and returns the work
    /// breakdown alongside the plan (`counters.candidates` is the initial
    /// tour's stop count: the benchmark has no grid candidates). Reports
    /// spans (`bench/setup` covering the initial Christofides tour,
    /// `bench/prune`, each opened once per call on every path) and
    /// end-of-run counters to `rec`. With the no-op recorder this is the
    /// same computation producing bit-identical plans (property-tested in
    /// `tests/obs_noop_equivalence.rs`).
    ///
    /// `prepared` optionally reuses a prebuilt [`BenchmarkSetup`] instead
    /// of rebuilding it. It must be exactly what
    /// [`BenchmarkSetup::build_obs`] would produce for this scenario (the
    /// keying contract of an [`ArtifactCache`](crate::ArtifactCache)).
    /// The pruning loop runs on a copy of the artifact's tour (borrowing
    /// its coverage lists) either way, so cold and prepared runs share
    /// every instruction after setup and produce bit-identical plans and
    /// stats (property-tested in `tests/artifact_cache_invisibility.rs`);
    /// only the `setup` span shrinks.
    pub fn plan_prepared_obs(
        &self,
        scenario: &Scenario,
        engine: EngineMode,
        prepared: Option<&BenchmarkSetup>,
        rec: &dyn Recorder,
    ) -> (CollectionPlan, PlanStats) {
        let root = Span::root(rec, "bench");
        let setup_span = root.child("setup");
        let n = scenario.num_devices();
        let mut stats = PlanStats {
            engine,
            counters: EvalCounters {
                candidates: n,
                ..EvalCounters::default()
            },
        };
        let built;
        let setup = match prepared {
            // An empty scenario never consults the artifact.
            _ if n == 0 => None,
            Some(s) => Some(s),
            None => {
                built = BenchmarkSetup::build_obs(scenario, rec);
                Some(&built)
            }
        };
        let state = setup.map(|setup| PruneState {
            scenario,
            pts: setup.pts.clone(),
            dev_of: setup.dev_of.clone(),
            coverage: &setup.coverage,
        });
        drop(setup_span);
        let prune_span = root.child("prune");
        let Some(mut state) = state else {
            return (CollectionPlan::empty(), stats);
        };
        match engine {
            EngineMode::Lazy => prune_lazy(&mut state, &mut stats.counters),
            EngineMode::Exhaustive => prune_exhaustive(&mut state, &mut stats.counters),
        }
        drop(prune_span);
        let c = &stats.counters;
        rec.add("bench.initial_stops", c.candidates as u64);
        rec.add("bench.iterations", c.iterations);
        rec.add("bench.evaluations", c.evaluations);
        rec.add("bench.marginal_evals", c.marginal_evals);

        // Materialise stops from the final assignment.
        let (new_devices, hover_s, _) = state.assignments();
        let stops = (1..state.pts.len())
            .filter(|&i| !new_devices[i].is_empty() || hover_s[i] > 0.0)
            .map(|i| HoverStop {
                pos: state.pts[i],
                sojourn: Seconds(hover_s[i]),
                collected: new_devices[i]
                    .iter()
                    .map(|&v| (DeviceId(v), scenario.devices[v as usize].data))
                    .collect(),
            })
            .collect();
        let plan = CollectionPlan { stops };
        debug_assert!(
            plan.total_energy(scenario).value()
                <= scenario.uav.capacity.value() * (1.0 + 1e-9) + 1e-9
        );
        crate::validate::debug_check_plan(
            "BenchmarkPlanner",
            scenario,
            &plan,
            crate::validate::Profile::P1FullDisjoint,
        );
        (plan, stats)
    }
}

impl Planner for BenchmarkPlanner {
    fn name(&self) -> &'static str {
        "Benchmark (Christofides + prune)"
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        self.plan_prepared(scenario, EngineMode::Lazy, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{check_plan, Profile};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64, devices: Vec<(f64, f64, f64)>) -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: devices
                .into_iter()
                .map(|(x, y, d)| IotDevice {
                    pos: Point2::new(x, y),
                    data: MegaBytes(d),
                })
                .collect(),
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn generous_budget_collects_everything() {
        let s = scenario(
            50_000.0,
            vec![
                (40.0, 40.0, 300.0),
                (120.0, 50.0, 450.0),
                (60.0, 150.0, 150.0),
            ],
        );
        let plan = BenchmarkPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes(900.0));
    }

    #[test]
    fn coverage_semantics_collects_neighbors_at_one_stop() {
        // Two devices 10 m apart (coverage 20 m): visiting either stop
        // collects both, and the duplicate stop hovers zero seconds.
        let s = scenario(50_000.0, vec![(40.0, 40.0, 300.0), (50.0, 40.0, 600.0)]);
        let plan = BenchmarkPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert_eq!(plan.collected_volume(), MegaBytes(900.0));
        let total_devices: usize = plan.stops.iter().map(|st| st.collected.len()).sum();
        assert_eq!(total_devices, 2, "each device collected exactly once");
        // The first covering stop got both; hover time is the max need.
        let first = plan
            .stops
            .iter()
            .find(|st| st.collected.len() == 2)
            .unwrap();
        assert!((first.sojourn.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_prunes_low_value_far_nodes() {
        let s = scenario(
            4000.0,
            vec![
                (30.0, 30.0, 900.0),
                (35.0, 30.0, 800.0),
                (190.0, 190.0, 100.0),
            ],
        );
        let plan = BenchmarkPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        let kept: Vec<u32> = plan
            .stops
            .iter()
            .flat_map(|st| st.collected.iter().map(|&(d, _)| d.0))
            .collect();
        assert!(
            !kept.contains(&2),
            "far low-value node should be pruned, kept {kept:?}"
        );
        assert!(kept.contains(&0) && kept.contains(&1));
    }

    #[test]
    fn zero_capacity_empty_plan() {
        let s = scenario(0.0, vec![(40.0, 40.0, 300.0)]);
        let plan = BenchmarkPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        assert!(plan.stops.is_empty());
    }

    #[test]
    fn empty_scenario() {
        let s = scenario(1000.0, vec![]);
        assert!(BenchmarkPlanner.plan(&s).stops.is_empty());
    }

    #[test]
    fn feasible_for_a_range_of_budgets() {
        let devices: Vec<(f64, f64, f64)> = (0..40)
            .map(|i| {
                (
                    ((i * 37) % 200) as f64,
                    ((i * 53) % 200) as f64,
                    100.0 + (i * 23 % 900) as f64,
                )
            })
            .collect();
        for cap in [500.0, 2000.0, 10_000.0, 100_000.0] {
            let s = scenario(cap, devices.clone());
            let plan = BenchmarkPlanner.plan(&s);
            check_plan(&s, &plan, Profile::P1FullDisjoint)
                .unwrap_or_else(|e| panic!("capacity {cap}: {e}"));
        }
    }

    #[test]
    fn collected_volume_monotone_in_budget() {
        let devices: Vec<(f64, f64, f64)> = (0..30)
            .map(|i| {
                (
                    ((i * 41) % 200) as f64,
                    ((i * 29) % 200) as f64,
                    200.0 + (i * 31 % 700) as f64,
                )
            })
            .collect();
        let mut prev = -1.0;
        for cap in [1000.0, 5000.0, 20_000.0, 80_000.0] {
            let s = scenario(cap, devices.clone());
            let v = BenchmarkPlanner.plan(&s).collected_volume().value();
            assert!(
                v >= prev - 1e-6,
                "volume decreased: {v} after {prev} at cap {cap}"
            );
            prev = v;
        }
    }

    #[test]
    fn pruning_keeps_marginal_coverage_consistent() {
        // Devices covered by several stops must not be lost when one of
        // their covering stops is pruned.
        let s = scenario(
            6000.0,
            vec![
                (30.0, 30.0, 500.0),
                (45.0, 30.0, 500.0),
                (38.0, 35.0, 400.0), // covered by both neighbours
                (150.0, 150.0, 100.0),
            ],
        );
        let plan = BenchmarkPlanner.plan(&s);
        check_plan(&s, &plan, Profile::P1FullDisjoint).unwrap();
        let collected: std::collections::BTreeSet<u32> = plan
            .stops
            .iter()
            .flat_map(|st| st.collected.iter().map(|&(d, _)| d.0))
            .collect();
        // Device 2 sits between 0 and 1; if either of those stops
        // survives, device 2 must be collected.
        if collected.contains(&0) || collected.contains(&1) {
            assert!(collected.contains(&2));
        }
    }
}
