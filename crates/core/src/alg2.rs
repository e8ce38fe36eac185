//! Algorithm 2: the data collection maximization problem *with* hovering
//! coverage overlapping — greedy maximum-ρ insertion.
//!
//! The tour starts as `{depot}`. Each iteration evaluates every remaining
//! candidate hovering location `s` by the paper's ratio (Eq. 13)
//!
//! ```text
//! ρ(s) = P'(s) / (t'(s)·η_h + Δtravel(s)·η_t/speed)
//! ```
//!
//! where `P'(s)` counts only *not-yet-collected* devices (Eq. 11), `t'(s)`
//! is the hover time those devices need (Eq. 12), and `Δtravel` is the
//! tour-length increase from adding `s`. The best candidate that keeps the
//! plan within the battery is added; iteration stops when nothing fits.
//!
//! Two tour-maintenance modes ([`TourMode`]):
//!
//! * [`TourMode::FastInsertion`] (default) ranks candidates by their
//!   cheapest-insertion delta — O(|tour|) per candidate — inserts the
//!   winner, and periodically compacts the tour with 2-opt. This is the
//!   mode that scales to the paper's 40 000-candidate instances.
//! * [`TourMode::PaperChristofides`] recomputes a full Christofides tour
//!   for every candidate evaluation, exactly as Algorithm 2 is written.
//!   `O(M · n³)` per iteration — use only on small instances (the
//!   ablation bench quantifies what FastInsertion gives up). Each
//!   score is a from-scratch `tourutil::christofides_order` over the
//!   tour plus the candidate, and the winner's scoring tour is the tour
//!   it commits.
//!
//! FastInsertion's lazy engine leans on the batch kernels of
//! `uavdc_graph::incremental` (bit-identical per lane to the scalar scans
//! they replace) and on an [`IncrementalTour`] mirror of the growing
//! tour, so its *operation counts* — frozen by the perf baseline — stay
//! exactly those of the exhaustive reference while each operation gets
//! cheaper.

#![expect(
    clippy::indexing_slicing,
    reason = "indexes candidate, device and tour-point ids it built itself; `lazy_equivalence`, `alg2_incremental_equivalence` and `alg2_paper_goldens` check it"
)]

use crate::candidates::CandidateSet;
use crate::greedy::{
    self, touch, DistanceBank, EngineMode, EvalCounters, Fixup, InsertionCache, LazyHeap,
    PlanStats, Probe,
};
use crate::plan::{CollectionPlan, HoverStop};
use crate::tourutil::cheapest_insertion_point;
use crate::Planner;
use uavdc_geom::{tour_length, Point2};
use uavdc_graph::improve::two_opt_by;
use uavdc_graph::incremental::IncrementalTour;
use uavdc_net::units::Seconds;
use uavdc_net::{DeviceId, Scenario};
use uavdc_obs::{Recorder, Span};

/// How the tour is re-planned as stops are added.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TourMode {
    /// Cheapest-insertion deltas + periodic 2-opt compaction (scalable).
    #[default]
    FastInsertion,
    /// Full Christofides re-tour per candidate evaluation, the winner's
    /// re-tour committed (faithful to the paper's pseudocode; cubic —
    /// small instances only).
    PaperChristofides,
}

/// Configuration of [`Alg2Planner`].
#[derive(Clone, Copy, Debug)]
pub struct Alg2Config {
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Tour maintenance strategy.
    pub tour_mode: TourMode,
    /// Drop candidates whose coverage is dominated by another candidate
    /// before planning.
    pub prune_dominated: bool,
    /// Per-iteration evaluation strategy. [`EngineMode::Lazy`] (default)
    /// applies only to [`TourMode::FastInsertion`];
    /// [`TourMode::PaperChristofides`] always rescans exhaustively
    /// because every candidate's Δtravel changes with each re-tour.
    pub engine: EngineMode,
}

impl Default for Alg2Config {
    fn default() -> Self {
        Alg2Config {
            delta: 10.0,
            tour_mode: TourMode::FastInsertion,
            prune_dominated: true,
            engine: EngineMode::Lazy,
        }
    }
}

/// Algorithm 2 planner.
#[derive(Clone, Debug, Default)]
pub struct Alg2Planner {
    /// Planner configuration.
    pub config: Alg2Config,
}

impl Alg2Planner {
    /// Creates a planner with the given configuration.
    pub fn new(config: Alg2Config) -> Self {
        Alg2Planner { config }
    }
}

/// Evaluation of one candidate in the current state.
#[derive(Clone, Copy, Debug)]
struct Evaluation {
    cand: usize,
    ratio: f64,
    sojourn: f64,
    insert_pos: usize,
}

struct GreedyState<'a> {
    scenario: &'a Scenario,
    candidates: &'a CandidateSet,
    /// Device already fully collected?
    collected: Vec<bool>,
    /// Tour as points; index 0 is the depot. `stop_of[i]` maps tour index
    /// `i >= 1` to an index into `stops`.
    tour_pts: Vec<Point2>,
    stop_of: Vec<usize>,
    stops: Vec<HoverStop>,
    /// Candidate still worth considering (covers uncollected data)?
    active: Vec<bool>,
    hover_energy_total: f64,
    tour_len: f64,
}

impl<'a> GreedyState<'a> {
    fn new(scenario: &'a Scenario, candidates: &'a CandidateSet) -> Self {
        GreedyState {
            scenario,
            candidates,
            collected: vec![false; scenario.num_devices()],
            tour_pts: vec![scenario.depot],
            stop_of: vec![usize::MAX],
            stops: Vec::new(),
            active: vec![true; candidates.len()],
            hover_energy_total: 0.0,
            tour_len: 0.0,
        }
    }

    /// Marginal volume / hover time of a candidate on the uncollected
    /// devices (Eqs. 11–12). Returns `(volume_mb, hover_s)`.
    fn marginal(&self, cand: usize) -> (f64, f64) {
        let b = self.scenario.radio.bandwidth.value();
        let mut vol = 0.0f64;
        let mut t = 0.0f64;
        for &v in self.candidates.covered(cand) {
            if !self.collected[v as usize] {
                let d = self.scenario.devices[v as usize].data.value();
                vol += d;
                t = t.max(d / b);
            }
        }
        (vol, t)
    }

    /// Evaluates one candidate under FastInsertion; `None` when inactive,
    /// empty, or infeasible right now.
    fn evaluate_insertion(
        &self,
        cand: usize,
        capacity: f64,
        eta_h: f64,
        per_m: f64,
    ) -> Option<Evaluation> {
        if !self.active[cand] {
            return None;
        }
        let (vol, t) = self.marginal(cand);
        if vol <= 0.0 {
            return None;
        }
        let (delta_len, pos) =
            cheapest_insertion_point(&self.tour_pts, self.candidates.get(cand).pos);
        let extra = t * eta_h + delta_len * per_m;
        let total = self.hover_energy_total + t * eta_h + (self.tour_len + delta_len) * per_m;
        if total > capacity {
            return None;
        }
        Some(Evaluation {
            cand,
            ratio: vol / extra.max(1e-12),
            sojourn: t,
            insert_pos: pos,
        })
    }

    /// Commits the chosen candidate under FastInsertion: collects its
    /// uncovered devices, splices it into the tour at
    /// `eval.insert_pos`, updates energies. Returns the device ids
    /// drained by this stop (the lazy engine's dirty seed). Leaves
    /// `tour_len` to the caller: the exhaustive engine recomputes it, the
    /// lazy engine reads its [`IncrementalTour`] mirror. Does **not**
    /// deactivate other exhausted candidates — the exhaustive path sweeps
    /// with [`GreedyState::deactivate_exhausted`], the lazy path reaches
    /// the same candidates through the set's transpose.
    fn commit(&mut self, eval: Evaluation, eta_h: f64) -> Vec<u32> {
        let cand = self.candidates.get(eval.cand);
        let drained = self.drain_devices(eval);
        self.tour_pts.insert(eval.insert_pos, cand.pos);
        self.stop_of.insert(eval.insert_pos, self.stops.len() - 1);
        self.hover_energy_total += eval.sojourn * eta_h;
        self.active[eval.cand] = false;
        drained
    }

    /// Commits the chosen candidate under PaperChristofides: the stop is
    /// appended and the whole tour re-ordered by `order`, the winner's
    /// Christofides order over `tour_pts ∪ {cand}` (positions
    /// `0..len()+1`, the candidate at position `len()`) from its
    /// evaluation, which is the re-tour the pseudocode runs at commit.
    fn commit_paper(&mut self, eval: Evaluation, order: &[usize], eta_h: f64) -> Vec<u32> {
        let cand = self.candidates.get(eval.cand);
        let drained = self.drain_devices(eval);
        self.tour_pts.push(cand.pos);
        self.stop_of.push(self.stops.len() - 1);
        self.tour_pts = crate::tourutil::apply_order(&self.tour_pts, order);
        self.stop_of = crate::tourutil::apply_order(&self.stop_of, order);
        self.tour_len = tour_length(&self.tour_pts);
        self.hover_energy_total += eval.sojourn * eta_h;
        self.active[eval.cand] = false;
        drained
    }

    /// Shared commit prologue: collects the candidate's uncovered devices
    /// into a new [`HoverStop`] and returns the drained device ids.
    fn drain_devices(&mut self, eval: Evaluation) -> Vec<u32> {
        let cand = self.candidates.get(eval.cand);
        let mut collected_here = Vec::new();
        let mut drained = Vec::new();
        for &v in cand.covered {
            if !self.collected[v as usize] {
                self.collected[v as usize] = true;
                collected_here.push((DeviceId(v), self.scenario.devices[v as usize].data));
                drained.push(v);
            }
        }
        debug_assert!(!collected_here.is_empty());
        self.stops.push(HoverStop {
            pos: cand.pos,
            sojourn: Seconds(eval.sojourn),
            collected: collected_here,
        });
        drained
    }

    /// Deactivates candidates that no longer cover anything uncollected
    /// (full sweep; the exhaustive engine runs this after every commit).
    fn deactivate_exhausted(&mut self) {
        for i in 0..self.candidates.len() {
            if self.active[i] {
                let covered = self.candidates.covered(i);
                if covered.iter().all(|&v| self.collected[v as usize]) {
                    self.active[i] = false;
                }
            }
        }
    }

    /// 2-opt compaction (the shared kernel at a 100-sweep cap) over the
    /// tour points, reordering the points and their stops in lockstep;
    /// compaction only shortens the tour, so feasibility is preserved.
    /// Returns whether the tour order actually changed (when it did not,
    /// every cached insertion delta is still exact).
    fn compact(&mut self) -> bool {
        let pts = &self.tour_pts;
        let mut order: Vec<usize> = (0..pts.len()).collect();
        let moves = two_opt_by(
            &mut order,
            |i, j| pts[i].distance(pts[j]),
            100,
            None,
            |_, _| {},
        )
        .moves;
        if moves == 0 {
            return false;
        }
        self.tour_pts = crate::tourutil::apply_order(&self.tour_pts, &order);
        self.stop_of = crate::tourutil::apply_order(&self.stop_of, &order);
        self.tour_len = tour_length(&self.tour_pts);
        true
    }

    fn into_plan(self) -> CollectionPlan {
        // Emit stops in tour order (skipping the depot sentinel).
        let mut ordered = Vec::with_capacity(self.stops.len());
        for (i, &s) in self.stop_of.iter().enumerate() {
            if i == 0 {
                continue;
            }
            ordered.push(self.stops[s].clone());
        }
        CollectionPlan { stops: ordered }
    }
}

/// The exhaustive engines' ratio comparator (deterministic tie-break on
/// candidate index).
fn better(a: &Evaluation, b: &Evaluation) -> bool {
    a.ratio > b.ratio + greedy::RATIO_BAND
        || (a.ratio >= b.ratio - greedy::RATIO_BAND && a.cand < b.cand)
}

/// Finds the best FastInsertion evaluation over all candidates: a serial
/// fold in ascending candidate order, so ties go to the lowest index.
fn best_evaluation(state: &GreedyState<'_>) -> Option<Evaluation> {
    let capacity = state.scenario.uav.capacity.value();
    let eta_h = state.scenario.uav.hover_power.value();
    let per_m = state.scenario.uav.travel_energy_per_meter().value();
    (0..state.candidates.len())
        .filter_map(|c| state.evaluate_insertion(c, capacity, eta_h, per_m))
        .reduce(|best, e| if better(&e, &best) { e } else { best })
}

/// Runs the exhaustive FastInsertion greedy loop (full rescan per
/// iteration) to completion, counting iterations as it goes. This is the
/// reference engine — and the perf baseline's speedup denominator — so it
/// deliberately stays scalar.
fn run_exhaustive(state: &mut GreedyState<'_>, eta_h: f64, counters: &mut EvalCounters) {
    let mut since_compact = 0;
    loop {
        counters.iterations += 1;
        counters.marginal_evals += state.candidates.len() as u64;
        counters.evaluations += state.candidates.len() as u64;
        let Some(eval) = best_evaluation(state) else {
            break;
        };
        state.commit(eval, eta_h);
        state.tour_len = tour_length(&state.tour_pts);
        counters.tour_patches += 1;
        state.deactivate_exhausted();
        since_compact += 1;
        if since_compact >= 8 {
            if state.compact() {
                counters.tour_patches += 1;
            }
            since_compact = 0;
        }
    }
    if state.compact() {
        counters.tour_patches += 1;
    }
}

/// A recorder that passes counters on to another and drops spans.
struct CountersOnly<'r>(&'r dyn Recorder);

impl Recorder for CountersOnly<'_> {
    fn add(&self, counter: &'static str, delta: u64) {
        self.0.add(counter, delta);
    }
}

/// Runs the PaperChristofides greedy loop: every candidate is scored by a
/// full Christofides re-tour of the stop set with the candidate included,
/// exactly as Algorithm 2 is written, and the winner's re-tour is the one
/// committed.
fn run_paper(
    state: &mut GreedyState<'_>,
    eta_h: f64,
    counters: &mut EvalCounters,
    rec: &dyn Recorder,
) {
    let scenario = state.scenario;
    let capacity = scenario.uav.capacity.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let m = state.candidates.len();
    // The per-candidate re-tours report counters only: a plan runs
    // thousands of them, and their spans would outweigh them.
    let retour_rec = CountersOnly(rec);
    loop {
        counters.iterations += 1;
        counters.marginal_evals += m as u64;
        counters.evaluations += m as u64;
        let mut best: Option<(Evaluation, Vec<usize>)> = None;
        for c in 0..m {
            if !state.active[c] {
                continue;
            }
            let (vol, t) = state.marginal(c);
            if vol <= 0.0 {
                continue;
            }
            counters.full_retours += 1;
            let mut pts = state.tour_pts.clone();
            pts.push(state.candidates.get(c).pos);
            let order = crate::tourutil::christofides_order(&pts, &retour_rec);
            let new_len = tour_length(&crate::tourutil::apply_order(&pts, &order));
            let delta_len = (new_len - state.tour_len).max(0.0);
            let extra = t * eta_h + delta_len * per_m;
            let total = state.hover_energy_total + t * eta_h + new_len * per_m;
            if total > capacity {
                continue;
            }
            let eval = Evaluation {
                cand: c,
                ratio: vol / extra.max(1e-12),
                sojourn: t,
                insert_pos: usize::MAX,
            };
            if best.as_ref().is_none_or(|(b, _)| better(&eval, b)) {
                best = Some((eval, order));
            }
        }
        let Some((eval, order)) = best else {
            break;
        };
        state.commit_paper(eval, &order, eta_h);
        counters.tour_patches += 1;
        state.deactivate_exhausted();
    }
}

/// The lazy engine's compaction: 2-opt over the incremental tour's cached
/// triangular matrix, with the resulting permutation applied to the
/// planner state and coordinate mirrors in lockstep. Produces exactly the
/// state [`GreedyState::compact`] would: the sweeps make bit-identical
/// decisions (cached distances ≡ fresh ones) and the skipped `tour_len`
/// recomputation on the unchanged path is the value it already holds.
fn lazy_compact(state: &mut GreedyState<'_>, inc: &mut IncrementalTour) -> bool {
    let Some(perm) = inc.two_opt_compact() else {
        return false;
    };
    state.tour_pts = crate::tourutil::apply_order(&state.tour_pts, &perm);
    state.stop_of = crate::tourutil::apply_order(&state.stop_of, &perm);
    state.tour_len = inc.total_cost();
    true
}

/// Input-derived accelerator structures for the lazy engine, built during
/// the setup phase alongside the candidate set (each is a pure function
/// of the scenario and candidates, independent of the greedy loop's
/// progress): the volume and hover time of every coverage entry,
/// preresolved and indexed by [`CandidateSet::coverage_range`], and the
/// candidate × tour-point [`DistanceBank`] with its depot column (tour
/// point id 0) filled.
struct LazyPre {
    cov_data: Vec<f64>,
    cov_rate: Vec<f64>,
    bank: DistanceBank,
}

impl LazyPre {
    fn build(candidates: &CandidateSet, scenario: &Scenario) -> Self {
        let bandwidth = scenario.radio.bandwidth.value();
        let cov_data: Vec<f64> = (0..candidates.len())
            .flat_map(|c| candidates.covered(c))
            .map(|&v| scenario.devices[v as usize].data.value())
            .collect();
        LazyPre {
            cov_rate: cov_data.iter().map(|d| d / bandwidth).collect(),
            cov_data,
            bank: DistanceBank::new(candidates, scenario.depot),
        }
    }
}

/// Runs the lazy greedy loop: dirty invalidation through the set's
/// device → candidate transpose, exact insertion-cache repair, CELF-style
/// heap selection. Produces the same
/// state evolution — same plans, same operation counts — as
/// [`run_exhaustive`] (property-tested in `tests/lazy_equivalence.rs`;
/// the identical-output argument is in DESIGN.md §8 and §15). The
/// individual operations are cheapened with the cached-distance machinery
/// of `uavdc_graph::incremental`: each committed stop's distance column
/// is computed once (vectorised) and banked in [`LazyPre`]'s
/// [`DistanceBank`], so per-commit cache repair, destroyed-argmin rescans
/// and compaction rescans are pure table arithmetic with no repeated
/// square roots; marginals run over the set's coverage CSR with
/// preresolved volumes, and compaction 2-opts the
/// [`IncrementalTour`]'s cached matrix instead of recomputing point
/// distances. Returns how many destroyed argmins the split rule settled
/// without a rescan (the `alg2.split_resolved` counter).
fn run_lazy(
    state: &mut GreedyState<'_>,
    eta_h: f64,
    counters: &mut EvalCounters,
    pre: &mut LazyPre,
) -> u64 {
    let scenario = state.scenario;
    let capacity = scenario.uav.capacity.value();
    let per_m = scenario.uav.travel_energy_per_meter().value();
    let candidates = state.candidates;
    let m = candidates.len();

    // Split the prebuilt structures into disjoint field borrows: the
    // distance matrix is written inside loops that read the others.
    let LazyPre {
        cov_data,
        cov_rate,
        bank,
    } = pre;

    // Branch-free twin of `GreedyState::marginal` over the set's coverage
    // CSR, bit-identical because the masked contributions are exact
    // identities: volumes are non-negative and both accumulators start at
    // +0.0, so `+= d·0.0` and `.max(rate·0.0)` leave them unchanged bit
    // for bit.
    let marginal_fast = |c: usize, collected: &[bool]| -> (f64, f64) {
        let range = candidates.coverage_range(c);
        let entries = candidates
            .covered(c)
            .iter()
            .zip(&cov_data[range.clone()])
            .zip(&cov_rate[range]);
        let mut vol = 0.0f64;
        let mut t = 0.0f64;
        for ((&v, &d), &rate) in entries {
            let w = (!collected[v as usize]) as u32 as f64;
            vol += d * w;
            t = t.max(rate * w);
        }
        (vol, t)
    };

    let mut cache_vol = vec![0.0f64; m];
    let mut cache_t = vec![0.0f64; m];
    let mut ins = InsertionCache::new(m);
    let mut heap = LazyHeap::new(m);
    let mut inc = IncrementalTour::new((scenario.depot.x, scenario.depot.y));

    // The engine's one ratio formula — must stay bit-identical to
    // `evaluate_insertion` (same ops in the same order on the same
    // cached operands).
    let ratio_of = |vol: f64, t: f64, delta: f64| -> f64 {
        let extra = t * eta_h + delta * per_m;
        vol / extra.max(1e-12)
    };

    // Initial full evaluation of every candidate: marginals, then
    // insertion deltas from the banked depot column (the depot-only
    // tour's delta is `2·d`, bit-identical to `cheapest_insertion_point`).
    let marg: Vec<(f64, f64)> = (0..m).map(|c| marginal_fast(c, &state.collected)).collect();
    counters.marginal_evals += m as u64;
    counters.evaluations += m as u64;
    for (c, &(vol, t)) in marg.iter().enumerate() {
        cache_vol[c] = vol;
        cache_t[c] = t;
        if vol <= 0.0 {
            state.active[c] = false;
            ins.retire(c);
        } else {
            // The depot-only tour's one edge starts at the depot (id 0).
            let delta = 2.0 * bank.depot_dist(c);
            ins.set(c, delta, 0);
            heap.push(c, ratio_of(vol, t, delta));
        }
    }

    let mut stamp = vec![0u32; m];
    let mut epoch = 0u32;
    let mut tstamp = vec![0u32; m];
    let mut tepoch = 0u32;
    let mut dirty: Vec<u32> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut resolved: Vec<u32> = Vec::new();
    let mut rescan: Vec<u32> = Vec::new();
    let mut alive: Vec<u32> = Vec::new();
    let mut pubbuf: Vec<(u32, f64)> = Vec::new();
    let mut split_resolved = 0u64;
    let mut since_compact = 0;
    loop {
        counters.iterations += 1;
        let selected = heap.select(
            |c| state.active[c],
            |c| {
                // Caches are exact; only feasibility depends on the
                // running totals. Mirrors `evaluate_insertion` bit for
                // bit (infeasible ⇔ it would return `None`).
                let t = cache_t[c];
                let delta = ins.get(c).unwrap_or(0.0);
                let total = state.hover_energy_total + t * eta_h + (state.tour_len + delta) * per_m;
                if total > capacity {
                    Probe::Infeasible
                } else {
                    Probe::Feasible(ratio_of(cache_vol[c], t, delta))
                }
            },
        );
        // Entries the heap took in since the last selection, this one's
        // re-queues and returned losers included (see `heap_pops`).
        counters.heap_pops += heap.take_entries();
        let Some((winner, ratio)) = selected else {
            break;
        };
        // Canonical insertion position for the winner (the cache may
        // name a different edge of equal delta).
        let pos = bank.cheapest_insertion(winner, &inc).1;
        let eval = Evaluation {
            cand: winner,
            ratio,
            sojourn: cache_t[winner],
            insert_pos: pos,
        };
        let drained = state.commit(eval, eta_h);
        ins.retire(winner);
        // Mirror the commit into the incremental tour (its cached edge
        // lengths feed the repair distances below).
        let id = inc.append_point(bank.pos(winner));
        inc.insert_id_at(id, pos);
        state.tour_len = inc.total_cost();
        #[cfg(feature = "validate")]
        debug_assert_eq!(
            state.tour_len.to_bits(),
            tour_length(&state.tour_pts).to_bits(),
            "the incremental mirror's length must equal the recomputed one"
        );
        since_compact += 1;

        // Repair every live (active) candidate's cached insertion delta
        // in O(1) from the bank (the new stop's column is computed once,
        // vectorised, and banked for all later rescans). Candidates whose
        // argmin edge was split collect as settled by the split rule or
        // awaiting a banked-row rescan.
        tepoch = tepoch.wrapping_add(1);
        touched.clear();
        resolved.clear();
        rescan.clear();
        bank.insert_point(&inc, pos, &mut ins, |c, fix| {
            counters.fixups += 1;
            match fix {
                Fixup::Unchanged => {}
                Fixup::Improved => touch(&mut tstamp, tepoch, &mut touched, c),
                Fixup::Resolved => resolved.push(c),
                Fixup::Invalidated => rescan.push(c),
            }
        });

        // Re-evaluate the marginal reward of candidates sharing a
        // drained device; fully-drained ones deactivate (the exhaustive
        // sweep would catch exactly these this iteration).
        epoch = epoch.wrapping_add(1);
        greedy::dirty_candidates(
            candidates,
            drained.iter().copied(),
            &mut stamp,
            epoch,
            &mut dirty,
        );
        for &cu in &dirty {
            let c = cu as usize;
            if !state.active[c] {
                continue;
            }
            counters.marginal_evals += 1;
            counters.evaluations += 1;
            let (vol, t) = marginal_fast(c, &state.collected);
            cache_vol[c] = vol;
            cache_t[c] = t;
            if vol <= 0.0 {
                state.active[c] = false;
                ins.retire(c);
            } else {
                touch(&mut tstamp, tepoch, &mut touched, cu);
            }
        }

        // Re-derive destroyed insertion deltas of the still-active
        // candidates: the split rule already settled `resolved`; the rest
        // rescan their banked distance rows — pure table arithmetic, no
        // recomputed square roots. Both count as re-derivations.
        resolved.retain(|&c| state.active[c as usize]);
        rescan.retain(|&c| state.active[c as usize]);
        let rederived = (resolved.len() + rescan.len()) as u64;
        counters.delta_rescans += rederived;
        counters.evaluations += rederived;
        split_resolved += resolved.len() as u64;
        for &cu in &resolved {
            touch(&mut tstamp, tepoch, &mut touched, cu);
        }
        bank.rescan(&rescan, &inc, &mut ins, |cu, _| {
            touch(&mut tstamp, tepoch, &mut touched, cu)
        });

        // Publish fresh heap entries for every candidate whose caches
        // changed (this is also what lets a parked candidate re-enter
        // contention when its own cost shrank).
        pubbuf.clear();
        for &cu in &touched {
            let c = cu as usize;
            if state.active[c] {
                if let Some(delta) = ins.get(c) {
                    pubbuf.push((cu, ratio_of(cache_vol[c], cache_t[c], delta)));
                }
            }
        }
        for &(cu, r) in &pubbuf {
            heap.push(cu as usize, r);
        }

        // Periodic 2-opt compaction. When the tour actually changed,
        // every cached delta is stale and battery slack may have grown:
        // rescan all active candidates and return parked ones to
        // contention.
        if since_compact >= 8 {
            if lazy_compact(state, &mut inc) {
                // The live list is exactly the active set.
                alive.clear();
                alive.extend_from_slice(ins.live());
                counters.delta_rescans += alive.len() as u64;
                counters.evaluations += alive.len() as u64;
                pubbuf.clear();
                bank.rescan(&alive, &inc, &mut ins, |cu, delta| {
                    let c = cu as usize;
                    pubbuf.push((cu, ratio_of(cache_vol[c], cache_t[c], delta)));
                });
                for &(cu, r) in &pubbuf {
                    heap.push(cu as usize, r);
                }
                heap.unpark_all();
            }
            since_compact = 0;
        }
    }
    lazy_compact(state, &mut inc);
    counters.tour_patches += inc.patches();
    split_resolved
}

impl Alg2Planner {
    /// Recorder-free twin of
    /// [`plan_prepared_obs`](Alg2Planner::plan_prepared_obs).
    pub fn plan_prepared(
        &self,
        scenario: &Scenario,
        prepared: Option<&CandidateSet>,
    ) -> (CollectionPlan, PlanStats) {
        self.plan_prepared_obs(scenario, prepared, &uavdc_obs::NOOP)
    }

    /// Plans and returns the work breakdown alongside the plan, reporting
    /// spans (`alg2/setup`, `alg2/loop`, each opened once per call on
    /// every path) and end-of-run counters to `rec`. With the no-op
    /// recorder this is the same computation producing bit-identical plans
    /// (property-tested in `tests/obs_noop_equivalence.rs`).
    ///
    /// `prepared` optionally reuses a prebuilt candidate set instead of
    /// rebuilding it. It must be exactly what the cold path would build —
    /// `CandidateSet::build(scenario, config.delta)` followed by
    /// `prune_dominated()` when `config.prune_dominated` is set — which an
    /// [`ArtifactCache`](crate::ArtifactCache) keyed on the scenario
    /// layout fingerprint and `δ` guarantees. Cold and prepared runs then
    /// share every instruction after setup, so plans and stats are
    /// bit-identical (property-tested in
    /// `tests/artifact_cache_invisibility.rs`); only the `setup` span
    /// shrinks.
    pub fn plan_prepared_obs(
        &self,
        scenario: &Scenario,
        prepared: Option<&CandidateSet>,
        rec: &dyn Recorder,
    ) -> (CollectionPlan, PlanStats) {
        let root = Span::root(rec, "alg2");
        let setup_span = root.child("setup");
        let built;
        let candidates = match prepared {
            Some(c) => c,
            None => {
                let mut c = CandidateSet::build(scenario, self.config.delta);
                if self.config.prune_dominated {
                    c.prune_dominated();
                }
                built = c;
                &built
            }
        };
        let engine = match self.config.tour_mode {
            TourMode::FastInsertion => self.config.engine,
            // Christofides re-touring invalidates every Δtravel each
            // iteration; there is nothing for the lazy engine to cache.
            TourMode::PaperChristofides => EngineMode::Exhaustive,
        };
        let mut stats = PlanStats {
            engine,
            counters: EvalCounters {
                candidates: candidates.len(),
                ..EvalCounters::default()
            },
        };
        // The lazy engine's accelerator structures are input-derived
        // (scenario + candidate set only), so they are built in the setup
        // span alongside the candidate set itself; the loop span covers
        // the greedy search proper for both engines.
        let ready = if candidates.is_empty() {
            None
        } else {
            let state = GreedyState::new(scenario, candidates);
            let pre = match (self.config.tour_mode, engine) {
                (TourMode::FastInsertion, EngineMode::Lazy) => {
                    Some(LazyPre::build(candidates, scenario))
                }
                _ => None,
            };
            Some((state, pre))
        };
        let eta_h = scenario.uav.hover_power.value();
        drop(setup_span);
        let loop_span = root.child("loop");
        let Some((mut state, mut pre)) = ready else {
            return (CollectionPlan::empty(), stats);
        };
        let split_resolved = match (self.config.tour_mode, engine, pre.as_mut()) {
            (TourMode::PaperChristofides, _, _) => {
                run_paper(&mut state, eta_h, &mut stats.counters, rec);
                0
            }
            (TourMode::FastInsertion, EngineMode::Lazy, Some(pre)) => {
                run_lazy(&mut state, eta_h, &mut stats.counters, pre)
            }
            _ => {
                run_exhaustive(&mut state, eta_h, &mut stats.counters);
                0
            }
        };
        drop(loop_span);
        flush_counters(rec, &stats.counters, split_resolved);
        let plan = state.into_plan();
        crate::validate::debug_check_plan(
            "Alg2Planner",
            scenario,
            &plan,
            crate::validate::Profile::P2FullOverlap,
        );
        (plan, stats)
    }
}

/// Publishes the end-of-run engine counters under the `alg2.` namespace,
/// plus the split-rule tally, which stays out of [`EvalCounters`] (and so
/// out of the committed baselines).
fn flush_counters(rec: &dyn Recorder, c: &EvalCounters, split_resolved: u64) {
    rec.add("alg2.candidates", c.candidates as u64);
    rec.add("alg2.iterations", c.iterations);
    rec.add("alg2.evaluations", c.evaluations);
    rec.add("alg2.marginal_evals", c.marginal_evals);
    rec.add("alg2.delta_rescans", c.delta_rescans);
    rec.add("alg2.fixups", c.fixups);
    rec.add("alg2.heap_pops", c.heap_pops);
    rec.add("alg2.tour_patches", c.tour_patches);
    rec.add("alg2.full_retours", c.full_retours);
    rec.add("alg2.split_resolved", split_resolved);
}

impl Planner for Alg2Planner {
    fn name(&self) -> &'static str {
        match self.config.tour_mode {
            TourMode::FastInsertion => "Algorithm 2 (greedy ρ, fast)",
            TourMode::PaperChristofides => "Algorithm 2 (greedy ρ, Christofides)",
        }
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        self.plan_prepared(scenario, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{check_plan, Profile};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytes, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64) -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: vec![
                IotDevice {
                    pos: Point2::new(40.0, 40.0),
                    data: MegaBytes(300.0),
                },
                IotDevice {
                    pos: Point2::new(48.0, 40.0),
                    data: MegaBytes(450.0),
                },
                IotDevice {
                    pos: Point2::new(60.0, 44.0),
                    data: MegaBytes(150.0),
                },
                IotDevice {
                    pos: Point2::new(180.0, 180.0),
                    data: MegaBytes(900.0),
                },
            ],
            depot: Point2::new(0.0, 0.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn plan_validates_and_respects_budget() {
        let s = scenario(4000.0);
        let plan = Alg2Planner::default().plan(&s);
        check_plan(&s, &plan, Profile::P2FullOverlap).unwrap();
        assert!(plan.total_energy(&s).value() <= 4000.0 + 1e-6);
        assert!(plan.collected_volume().value() > 0.0);
    }

    #[test]
    fn overlapping_coverage_collects_each_device_once() {
        let s = scenario(50_000.0);
        let plan = Alg2Planner::default().plan(&s);
        check_plan(&s, &plan, Profile::P2FullOverlap).unwrap();
        // All four devices collected exactly once.
        assert_eq!(plan.collected_volume(), MegaBytes(1800.0));
        let mut seen = std::collections::BTreeSet::new();
        for stop in &plan.stops {
            for (dev, _) in &stop.collected {
                assert!(seen.insert(*dev), "device collected twice");
            }
        }
    }

    #[test]
    fn zero_capacity_collects_nothing() {
        let s = scenario(0.0);
        let plan = Alg2Planner::default().plan(&s);
        assert!(plan.stops.is_empty());
    }

    #[test]
    fn paper_christofides_mode_works_on_small_instances() {
        let s = scenario(8000.0);
        let cfg = Alg2Config {
            delta: 20.0,
            tour_mode: TourMode::PaperChristofides,
            ..Alg2Config::default()
        };
        let plan = Alg2Planner::new(cfg).plan(&s);
        check_plan(&s, &plan, Profile::P2FullOverlap).unwrap();
        assert!(plan.collected_volume().value() > 0.0);
    }

    #[test]
    fn finer_grid_does_not_collect_less() {
        // More candidates can only help the greedy (it has strictly more
        // choices); allow small tolerance for tie-breaking noise.
        let s = scenario(5000.0);
        let coarse = Alg2Planner::new(Alg2Config {
            delta: 40.0,
            ..Alg2Config::default()
        })
        .plan(&s);
        let fine = Alg2Planner::new(Alg2Config {
            delta: 5.0,
            ..Alg2Config::default()
        })
        .plan(&s);
        assert!(
            fine.collected_volume().value() >= 0.9 * coarse.collected_volume().value(),
            "fine {} vs coarse {}",
            fine.collected_volume(),
            coarse.collected_volume()
        );
    }

    #[test]
    fn sojourn_covers_only_new_devices() {
        // Second stop overlapping the first should hover only as long as
        // its new devices need (Eq. 12).
        let s = scenario(50_000.0);
        let plan = Alg2Planner::default().plan(&s);
        let b = s.radio.bandwidth.value();
        for stop in &plan.stops {
            let needed = stop
                .collected
                .iter()
                .map(|&(_, v)| v.value() / b)
                .fold(0.0, f64::max);
            assert!((stop.sojourn.value() - needed).abs() < 1e-9);
        }
    }
}
