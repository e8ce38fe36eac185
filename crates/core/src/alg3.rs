//! Algorithm 3: the *partial* data collection maximization problem.
//!
//! Each real hovering location `s` spawns `K` virtual hovering locations
//! `s_{j,1..K}` with sojourn durations `k·t(s)/K` (paper Eq. 4–5); a
//! shorter sojourn collects `min(D_v, B·τ)` from every covered device
//! simultaneously. The greedy loop of Algorithm 2 runs over the virtual
//! locations, with two partial-collection twists (paper §VI):
//!
//! * at most one virtual location per real location is on the tour at a
//!   time — choosing a second one *extends the sojourn* of the existing
//!   stop instead of adding a new tour vertex (the paper removes the
//!   shorter virtual stop and keeps the longer, which is travel-wise
//!   identical; Lemma 2 shows no collected data is lost);
//! * residual volumes are tracked per device, so a device partially
//!   drained at one stop can yield its remainder at later stops, and
//!   hover durations are recomputed from residuals as the tour grows
//!   (the pseudocode's lines 11–12).

#![expect(
    clippy::indexing_slicing,
    reason = "indexes candidate, device and partition ids it built itself; `lazy_equivalence` and `obs_noop_equivalence` check it"
)]

use crate::candidates::CandidateSet;
use crate::greedy::{
    self, touch, DistanceBank, EngineMode, EvalCounters, Fixup, InsertionCache, LazyHeap,
    PlanStats, Probe,
};
use crate::plan::{CollectionPlan, HoverStop};
use crate::tourutil::{cheapest_insertion_point, closed_tour_length};
use crate::Planner;
use uavdc_geom::Point2;
use uavdc_graph::incremental::IncrementalTour;
use uavdc_net::units::{MegaBytes, Seconds};
use uavdc_net::{DeviceId, Scenario};
use uavdc_obs::{Recorder, Span};

/// Configuration of [`Alg3Planner`].
#[derive(Clone, Copy, Debug)]
pub struct Alg3Config {
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Number of sojourn partitions `K >= 1`; `K = 1` degenerates to full
    /// collection per stop (Algorithm 2 behaviour).
    pub k: usize,
    /// Drop dominated candidates before planning.
    pub prune_dominated: bool,
    /// Per-iteration evaluation strategy ([`EngineMode::Lazy`] default).
    pub engine: EngineMode,
}

impl Default for Alg3Config {
    fn default() -> Self {
        Alg3Config {
            delta: 10.0,
            k: 2,
            prune_dominated: true,
            engine: EngineMode::Lazy,
        }
    }
}

/// Algorithm 3 planner.
#[derive(Clone, Debug, Default)]
pub struct Alg3Planner {
    /// Planner configuration.
    pub config: Alg3Config,
}

impl Alg3Planner {
    /// Creates a planner with the given configuration.
    pub fn new(config: Alg3Config) -> Self {
        Alg3Planner { config }
    }

    /// Convenience constructor: default configuration with the given `K`.
    pub fn with_k(k: usize) -> Self {
        Alg3Planner {
            config: Alg3Config {
                k,
                ..Alg3Config::default()
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct VirtualEval {
    cand: usize,
    /// Chosen sojourn extension τ (seconds).
    tau: f64,
    ratio: f64,
    /// Cheapest-insertion position (ignored when the candidate already has
    /// a stop on the tour).
    insert_pos: usize,
}

struct PartialState<'a> {
    scenario: &'a Scenario,
    candidates: &'a CandidateSet,
    /// Remaining (uncollected) volume per device, MB.
    residual: Vec<f64>,
    tour_pts: Vec<Point2>,
    /// Stop index per tour position (`usize::MAX` for the depot).
    stop_of: Vec<usize>,
    stops: Vec<HoverStop>,
    /// Existing stop index per candidate, if any.
    stop_of_candidate: Vec<usize>,
    active: Vec<bool>,
    hover_energy_total: f64,
    tour_len: f64,
}

impl<'a> PartialState<'a> {
    fn new(scenario: &'a Scenario, candidates: &'a CandidateSet) -> Self {
        PartialState {
            scenario,
            candidates,
            residual: scenario.devices.iter().map(|d| d.data.value()).collect(),
            tour_pts: vec![scenario.depot],
            stop_of: vec![usize::MAX],
            stops: Vec::new(),
            stop_of_candidate: vec![usize::MAX; candidates.len()],
            active: vec![true; candidates.len()],
            hover_energy_total: 0.0,
            tour_len: 0.0,
        }
    }

    /// Best virtual location of candidate `c` (over `k = 1..=K`), or
    /// `None` when inactive/empty/infeasible.
    fn evaluate(
        &self,
        c: usize,
        k_parts: usize,
        capacity: f64,
        eta_h: f64,
        per_m: f64,
    ) -> Option<VirtualEval> {
        if !self.active[c] {
            return None;
        }
        let b = self.scenario.radio.bandwidth.value();
        let covered = self.candidates.covered(c);
        // Full residual hover time t(s) (Eq. 1 on residual volumes).
        let mut t_full = 0.0f64;
        for &v in covered {
            t_full = t_full.max(self.residual[v as usize] / b);
        }
        if t_full <= 0.0 {
            return None;
        }
        let on_tour = self.stop_of_candidate[c] != usize::MAX;
        let (delta_len, insert_pos) = if on_tour {
            (0.0, usize::MAX)
        } else {
            cheapest_insertion_point(&self.tour_pts, self.candidates.get(c).pos)
        };
        let travel_extra = delta_len * per_m;
        let mut best: Option<VirtualEval> = None;
        for k in 1..=k_parts {
            let tau = t_full * (k as f64) / (k_parts as f64);
            // Volume collected in τ: every covered device uploads in
            // parallel at B, truncated by its residual.
            let vol: f64 = covered
                .iter()
                .map(|&v| self.residual[v as usize].min(b * tau))
                .sum();
            if vol <= 1e-9 {
                continue;
            }
            let hover_extra = tau * eta_h;
            let total = self.hover_energy_total + hover_extra + (self.tour_len + delta_len) * per_m;
            if total > capacity {
                continue;
            }
            let ratio = vol / (hover_extra + travel_extra).max(1e-12);
            if best.as_ref().is_none_or(|e| ratio > e.ratio) {
                best = Some(VirtualEval {
                    cand: c,
                    tau,
                    ratio,
                    insert_pos,
                });
            }
        }
        best
    }

    /// Commits the chosen virtual location. Returns the volume collected,
    /// the drained device ids (the lazy engine's dirty seed), and the
    /// tour position the stop was inserted at (`None` when an existing
    /// stop's sojourn was extended — the tour is untouched then). After an
    /// insertion the caller refreshes `tour_len`: the exhaustive engine
    /// recomputes it, the lazy engine reads its [`IncrementalTour`]
    /// mirror. Does **not** deactivate exhausted candidates; see
    /// [`PartialState::deactivate_exhausted`].
    fn commit(&mut self, eval: VirtualEval, eta_h: f64) -> (f64, Vec<u32>, Option<usize>) {
        let b = self.scenario.radio.bandwidth.value();
        let covered = self.candidates.covered(eval.cand);
        let mut entries = Vec::new();
        let mut drained = Vec::new();
        let mut collected_now = 0.0;
        for &v in covered {
            let amount = self.residual[v as usize].min(b * eval.tau);
            if amount > 0.0 {
                self.residual[v as usize] -= amount;
                entries.push((DeviceId(v), MegaBytes(amount)));
                collected_now += amount;
                drained.push(v);
            }
        }
        debug_assert!(collected_now > 0.0);
        let existing = self.stop_of_candidate[eval.cand];
        let mut inserted_at = None;
        if existing != usize::MAX {
            // Extend the sojourn of the existing stop (Lemma 2).
            let stop = &mut self.stops[existing];
            stop.sojourn += Seconds(eval.tau);
            stop.collected.extend(entries);
        } else {
            let pos = self.candidates.get(eval.cand).pos;
            self.stops.push(HoverStop {
                pos,
                sojourn: Seconds(eval.tau),
                collected: entries,
            });
            let idx = self.stops.len() - 1;
            self.stop_of_candidate[eval.cand] = idx;
            self.tour_pts.insert(eval.insert_pos, pos);
            self.stop_of.insert(eval.insert_pos, idx);
            inserted_at = Some(eval.insert_pos);
        }
        self.hover_energy_total += eval.tau * eta_h;
        (collected_now, drained, inserted_at)
    }

    /// Deactivates candidates whose covered devices are all exhausted
    /// (full sweep; the exhaustive engine runs this after every commit).
    fn deactivate_exhausted(&mut self) {
        for i in 0..self.candidates.len() {
            if self.active[i] {
                let cov = self.candidates.covered(i);
                if cov.iter().all(|&v| self.residual[v as usize] <= 1e-9) {
                    self.active[i] = false;
                }
            }
        }
    }

    fn into_plan(self) -> CollectionPlan {
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

/// The exhaustive engine's ratio comparator (deterministic tie-break on
/// candidate index).
fn better(a: &VirtualEval, b: &VirtualEval) -> bool {
    a.ratio > b.ratio + greedy::RATIO_BAND
        || (a.ratio >= b.ratio - greedy::RATIO_BAND && a.cand < b.cand)
}

/// Finds the best virtual location over all candidates: a serial fold in
/// ascending candidate order, so ties go to the lowest index.
fn best_virtual(state: &PartialState<'_>, k_parts: usize) -> Option<VirtualEval> {
    let capacity = state.scenario.uav.capacity.value();
    let eta_h = state.scenario.uav.hover_power.value();
    let per_m = state.scenario.uav.travel_energy_per_meter().value();
    (0..state.candidates.len())
        .filter_map(|c| state.evaluate(c, k_parts, capacity, eta_h, per_m))
        .reduce(|best, e| if better(&e, &best) { e } else { best })
}

/// Scenario power constants threaded through the cached evaluators.
#[derive(Clone, Copy)]
struct Power {
    capacity: f64,
    eta_h: f64,
    per_m: f64,
}

/// Best virtual location of candidate `c` from the *cached* per-k
/// marginals, mirroring [`PartialState::evaluate`] bit for bit. With
/// `feasible_only` the battery filter applies (selection); without it the
/// result is the heap's upper-bound key — valid because the feasible k
/// subset only shrinks between cache refreshes (the tour never shortens
/// in Algorithm 3). Returns `(ratio, tau)`.
#[allow(clippy::too_many_arguments)]
fn cached_best_k(
    st: &PartialState<'_>,
    ins: &InsertionCache,
    t_full: &[f64],
    tau: &[f64],
    vol: &[f64],
    kp: usize,
    c: usize,
    power: Power,
    feasible_only: bool,
) -> Option<(f64, f64)> {
    if t_full[c] <= 0.0 {
        return None;
    }
    let on_tour = st.stop_of_candidate[c] != usize::MAX;
    let delta_len = if on_tour { 0.0 } else { ins.get(c)? };
    let travel_extra = delta_len * power.per_m;
    let mut best: Option<(f64, f64)> = None;
    for k in 0..kp {
        let tk = tau[c * kp + k];
        let vk = vol[c * kp + k];
        if vk <= 1e-9 {
            continue;
        }
        let hover_extra = tk * power.eta_h;
        if feasible_only {
            let total =
                st.hover_energy_total + hover_extra + (st.tour_len + delta_len) * power.per_m;
            if total > power.capacity {
                continue;
            }
        }
        let ratio = vk / (hover_extra + travel_extra).max(1e-12);
        if best.is_none_or(|(r, _)| ratio > r) {
            best = Some((ratio, tk));
        }
    }
    best
}

/// Runs the exhaustive greedy loop (full rescan per iteration).
fn run_exhaustive(
    state: &mut PartialState<'_>,
    config: &Alg3Config,
    eta_h: f64,
    max_iters: usize,
    counters: &mut EvalCounters,
) {
    for _ in 0..max_iters {
        counters.iterations += 1;
        counters.marginal_evals += state.candidates.len() as u64;
        counters.evaluations += state.candidates.len() as u64;
        match best_virtual(state, config.k) {
            Some(eval) => {
                let (got, _, inserted_at) = state.commit(eval, eta_h);
                if inserted_at.is_some() {
                    state.tour_len = closed_tour_length(&state.tour_pts);
                }
                state.deactivate_exhausted();
                if got <= 1e-9 {
                    break;
                }
            }
            None => break,
        }
    }
}

/// Runs the lazy greedy loop over virtual locations. Caches `t_full` and
/// the per-k `(τ, volume)` arrays per candidate (refreshed when a shared
/// device drains), the cheapest-insertion delta (repaired in O(1) per
/// tour insertion from Algorithm 2's [`DistanceBank`], rescanned from its
/// banked rows; sojourn extensions leave the tour untouched), and
/// selects through the CELF heap whose keys are the unconditional max-k
/// ratios — exact upper bounds that [`Probe::Feasible`] decays as the
/// battery filters out deeper sojourns. Produces the same plans as
/// [`run_exhaustive`] (property-tested; DESIGN.md §8). Returns how many
/// destroyed argmins the split rule settled without a rescan (the
/// `alg3.split_resolved` counter).
fn run_lazy(
    state: &mut PartialState<'_>,
    config: &Alg3Config,
    eta_h: f64,
    max_iters: usize,
    counters: &mut EvalCounters,
    rec: &dyn Recorder,
) -> u64 {
    let scenario = state.scenario;
    let power = Power {
        capacity: scenario.uav.capacity.value(),
        eta_h,
        per_m: scenario.uav.travel_energy_per_meter().value(),
    };
    let b = scenario.radio.bandwidth.value();
    let m = state.candidates.len();
    let kp = config.k;

    // Banked candidate → tour-point distances and the tour mirror whose
    // stable point ids index them (the tour only grows: no compaction).
    let mut bank = DistanceBank::new(state.candidates, scenario.depot);
    let mut inc = IncrementalTour::new((scenario.depot.x, scenario.depot.y));
    let mut t_full = vec![0.0f64; m];
    let mut tau = vec![0.0f64; m * kp];
    let mut vol = vec![0.0f64; m * kp];
    let mut ins = InsertionCache::new(m);
    let mut heap = LazyHeap::new(m);

    // Mirrors the t_full / per-k (τ, vol) loops of
    // `PartialState::evaluate` exactly, in two passes over C(s): the
    // first takes `t_full` and whether every covered device is exhausted
    // (the deactivation sweep's test), the second adds each device to all
    // K volume sums. Each sum adds the same terms in the same device
    // order as `evaluate`'s `Iterator::sum`. It starts from +0.0 where
    // that sum may start from −0.0, which changes no bits: C(s) is
    // non-empty here (`t_full > 0`), and adding a first term `x ≥ +0.0`
    // to either zero gives `x`. Writes the per-k values into candidate
    // `c`'s slices of `tau` and `vol` and returns `(t_full, exhausted)`.
    let eval_marginal =
        |st: &PartialState<'_>, c: usize, taus: &mut [f64], vols: &mut [f64]| -> (f64, bool) {
            let covered = st.candidates.covered(c);
            let mut tf = 0.0f64;
            let mut exhausted = true;
            for &v in covered {
                let r = st.residual[v as usize];
                tf = tf.max(r / b);
                exhausted &= r <= 1e-9;
            }
            vols.fill(0.0);
            if tf > 0.0 {
                for (k, t) in taus.iter_mut().enumerate() {
                    *t = tf * ((k + 1) as f64) / (kp as f64);
                }
                for &v in covered {
                    let r = st.residual[v as usize];
                    for (vk, &t) in vols.iter_mut().zip(taus.iter()) {
                        *vk += r.min(b * t);
                    }
                }
            } else {
                taus.fill(0.0);
            }
            (tf, exhausted)
        };

    // Initial full evaluation; every insertion delta comes from the
    // banked depot column (the depot-only tour's delta is `2·d`,
    // bit-identical to `cheapest_insertion_point`).
    counters.marginal_evals += m as u64;
    counters.evaluations += m as u64;
    // Candidates already exhausted at the start: the exhaustive sweep
    // only deactivates them *after* the first commit, so record them now
    // and deactivate at the same point.
    let mut init_exhausted: Vec<u32> = Vec::new();
    for c in 0..m {
        let ks = c * kp..(c + 1) * kp;
        let exhausted;
        (t_full[c], exhausted) = eval_marginal(state, c, &mut tau[ks.clone()], &mut vol[ks]);
        // The depot-only tour's one edge starts at the depot (id 0).
        ins.set(c, 2.0 * bank.depot_dist(c), 0);
        if exhausted {
            init_exhausted.push(c as u32);
        }
        if let Some((key, _)) = cached_best_k(state, &ins, &t_full, &tau, &vol, kp, c, power, false)
        {
            heap.push(c, key);
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
    let mut split_resolved = 0u64;
    let mut first_commit_done = false;
    for _ in 0..max_iters {
        counters.iterations += 1;
        let selected = heap.select(
            |c| state.active[c],
            |c| match cached_best_k(state, &ins, &t_full, &tau, &vol, kp, c, power, true) {
                None => Probe::Infeasible,
                Some((ratio, _)) => Probe::Feasible(ratio),
            },
        );
        // Entries the heap took in since the last selection, this one's
        // re-queues and returned losers included (see `heap_pops`).
        let pops = heap.take_entries();
        counters.heap_pops += pops;
        rec.observe("alg3.pops_per_iter", pops);
        let Some((winner, ratio)) = selected else {
            break;
        };
        let Some((_, wtau)) =
            cached_best_k(state, &ins, &t_full, &tau, &vol, kp, winner, power, true)
        else {
            break; // unreachable: the probe just reported it feasible
        };
        let on_tour = state.stop_of_candidate[winner] != usize::MAX;
        let insert_pos = if on_tour {
            usize::MAX
        } else {
            // Canonical position (the cache may name an equal-delta edge).
            bank.cheapest_insertion(winner, &inc).1
        };
        let eval = VirtualEval {
            cand: winner,
            tau: wtau,
            ratio,
            insert_pos,
        };
        let (got, drained, inserted_at) = state.commit(eval, eta_h);
        if let Some(ins_pos) = inserted_at {
            rec.add("alg3.tour_insertions", 1);
            // On the tour, its Δtravel is 0 and its cache is never read.
            ins.retire(winner);
            let id = inc.append_point(bank.pos(winner));
            inc.insert_id_at(id, ins_pos);
            state.tour_len = inc.total_cost();
            #[cfg(feature = "validate")]
            debug_assert_eq!(
                state.tour_len.to_bits(),
                closed_tour_length(&state.tour_pts).to_bits(),
                "the incremental mirror's length must equal the recomputed one"
            );
        } else {
            rec.add("alg3.sojourn_extensions", 1);
        }
        if got <= 1e-9 {
            break;
        }

        // Repair the live (active, off-tour) cached insertion deltas when
        // the tour gained a vertex (sojourn extensions leave every delta
        // exact).
        tepoch = tepoch.wrapping_add(1);
        touched.clear();
        resolved.clear();
        rescan.clear();
        if let Some(ins_pos) = inserted_at {
            bank.insert_point(&inc, ins_pos, &mut ins, |c, fix| {
                counters.fixups += 1;
                match fix {
                    Fixup::Unchanged => {}
                    Fixup::Improved => touch(&mut tstamp, tepoch, &mut touched, c),
                    Fixup::Resolved => resolved.push(c),
                    Fixup::Invalidated => rescan.push(c),
                }
            });
        }

        // Refresh marginals of candidates sharing a drained device.
        epoch = epoch.wrapping_add(1);
        greedy::dirty_candidates(
            state.candidates,
            drained.iter().copied(),
            &mut stamp,
            epoch,
            &mut dirty,
        );
        rec.observe("alg3.dirty_batch", dirty.len() as u64);
        for &c in &dirty {
            let c = c as usize;
            if !state.active[c] {
                continue;
            }
            counters.marginal_evals += 1;
            counters.evaluations += 1;
            let ks = c * kp..(c + 1) * kp;
            let exhausted;
            (t_full[c], exhausted) = eval_marginal(state, c, &mut tau[ks.clone()], &mut vol[ks]);
            if exhausted {
                state.active[c] = false;
                ins.retire(c);
            } else {
                touch(&mut tstamp, tepoch, &mut touched, c as u32);
            }
        }
        if !first_commit_done {
            for &c in &init_exhausted {
                state.active[c as usize] = false;
                ins.retire(c as usize);
            }
            first_commit_done = true;
        }

        // Re-derive destroyed insertion deltas of the still-active
        // candidates: the split rule already settled `resolved`, the rest
        // rescan their banked rows. Both count as re-derivations.
        resolved.retain(|&c| state.active[c as usize]);
        rescan.retain(|&c| state.active[c as usize]);
        let rederived = (resolved.len() + rescan.len()) as u64;
        counters.delta_rescans += rederived;
        counters.evaluations += rederived;
        split_resolved += resolved.len() as u64;
        for &c in &resolved {
            touch(&mut tstamp, tepoch, &mut touched, c);
        }
        bank.rescan(&rescan, &inc, &mut ins, |c, _| {
            touch(&mut tstamp, tepoch, &mut touched, c)
        });

        // Publish fresh heap keys for every candidate whose caches
        // changed (also how a parked candidate re-enters contention).
        for &c in &touched {
            let c = c as usize;
            if !state.active[c] {
                continue;
            }
            if let Some((key, _)) =
                cached_best_k(state, &ins, &t_full, &tau, &vol, kp, c, power, false)
            {
                heap.push(c, key);
            }
        }
    }
    // The iteration cap and the zero-gain exit can leave entries queued;
    // `heap_pops` counts every entry the heap took in.
    counters.heap_pops += heap.take_entries();
    split_resolved
}

impl Alg3Planner {
    /// Recorder-free twin of
    /// [`plan_prepared_obs`](Alg3Planner::plan_prepared_obs).
    pub fn plan_prepared(
        &self,
        scenario: &Scenario,
        prepared: Option<&CandidateSet>,
    ) -> (CollectionPlan, PlanStats) {
        self.plan_prepared_obs(scenario, prepared, &uavdc_obs::NOOP)
    }

    /// Plans and returns the work breakdown alongside the plan, reporting
    /// spans (`alg3/setup`, `alg3/loop`, each opened once per call on
    /// every path), end-of-run counters and per-iteration histograms to
    /// `rec`. With the no-op recorder this is the same computation
    /// producing bit-identical plans (property-tested in
    /// `tests/obs_noop_equivalence.rs`).
    ///
    /// `prepared` optionally reuses a prebuilt candidate set instead of
    /// rebuilding it. It must be exactly what the cold path would build —
    /// `CandidateSet::build(scenario, config.delta)` followed by
    /// `prune_dominated()` when `config.prune_dominated` is set (the
    /// keying contract of an [`ArtifactCache`](crate::ArtifactCache)).
    /// Cold and prepared runs share every instruction after setup, so
    /// plans and stats are bit-identical (property-tested in
    /// `tests/artifact_cache_invisibility.rs`); only the `setup` span
    /// shrinks.
    pub fn plan_prepared_obs(
        &self,
        scenario: &Scenario,
        prepared: Option<&CandidateSet>,
        rec: &dyn Recorder,
    ) -> (CollectionPlan, PlanStats) {
        assert!(self.config.k >= 1, "K must be at least 1");
        let root = Span::root(rec, "alg3");
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
        let mut stats = PlanStats {
            engine: self.config.engine,
            counters: EvalCounters {
                candidates: candidates.len(),
                ..EvalCounters::default()
            },
        };
        let state = (!candidates.is_empty()).then(|| PartialState::new(scenario, candidates));
        // Each commit either exhausts at least one virtual step of one
        // candidate or collects real data; the cap is a safety net for
        // degenerate float behaviour.
        let max_iters = candidates
            .len()
            .saturating_mul(self.config.k)
            .saturating_mul(4)
            + 64;
        let eta_h = scenario.uav.hover_power.value();
        drop(setup_span);
        let loop_span = root.child("loop");
        let Some(mut state) = state else {
            return (CollectionPlan::empty(), stats);
        };
        let split_resolved = match self.config.engine {
            EngineMode::Lazy => run_lazy(
                &mut state,
                &self.config,
                eta_h,
                max_iters,
                &mut stats.counters,
                rec,
            ),
            EngineMode::Exhaustive => {
                run_exhaustive(
                    &mut state,
                    &self.config,
                    eta_h,
                    max_iters,
                    &mut stats.counters,
                );
                0
            }
        };
        drop(loop_span);
        flush_counters(rec, &stats.counters, split_resolved);
        let plan = state.into_plan();
        crate::validate::debug_check_plan(
            "Alg3Planner",
            scenario,
            &plan,
            crate::validate::Profile::P3Partial,
        );
        (plan, stats)
    }
}

/// Publishes the end-of-run engine counters under the `alg3.` namespace,
/// plus the split-rule tally, which stays out of [`EvalCounters`] (and so
/// out of the committed baselines).
fn flush_counters(rec: &dyn Recorder, c: &EvalCounters, split_resolved: u64) {
    rec.add("alg3.candidates", c.candidates as u64);
    rec.add("alg3.iterations", c.iterations);
    rec.add("alg3.evaluations", c.evaluations);
    rec.add("alg3.marginal_evals", c.marginal_evals);
    rec.add("alg3.delta_rescans", c.delta_rescans);
    rec.add("alg3.fixups", c.fixups);
    rec.add("alg3.heap_pops", c.heap_pops);
    rec.add("alg3.split_resolved", split_resolved);
}

impl Planner for Alg3Planner {
    fn name(&self) -> &'static str {
        "Algorithm 3 (partial collection)"
    }

    fn plan(&self, scenario: &Scenario) -> CollectionPlan {
        self.plan_prepared(scenario, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{check_plan, Profile};
    use crate::{Alg2Config, Alg2Planner};
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytesPerSecond, Meters};
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
    fn plan_validates_for_various_k() {
        let s = scenario(5000.0);
        for k in [1, 2, 4, 8] {
            let plan = Alg3Planner::with_k(k).plan(&s);
            check_plan(&s, &plan, Profile::P3Partial).unwrap_or_else(|e| panic!("K={k}: {e}"));
            assert!(plan.total_energy(&s).value() <= 5000.0 + 1e-6);
        }
    }

    #[test]
    fn generous_budget_collects_everything_for_any_k() {
        let s = scenario(60_000.0);
        for k in [1, 3] {
            let plan = Alg3Planner::with_k(k).plan(&s);
            check_plan(&s, &plan, Profile::P3Partial).unwrap();
            assert!(
                (plan.collected_volume().value() - 1800.0).abs() < 1e-6,
                "K={k} collected {}",
                plan.collected_volume()
            );
        }
    }

    #[test]
    fn partial_collection_beats_or_matches_full_on_tight_budget() {
        // The whole point of Algorithm 3 (paper Fig. 4a): with partial
        // sojourns the UAV spends hovering energy more efficiently.
        let s = scenario(3500.0);
        let full = Alg2Planner::new(Alg2Config {
            delta: 10.0,
            ..Alg2Config::default()
        })
        .plan(&s);
        let partial = Alg3Planner::with_k(4).plan(&s);
        check_plan(&s, &partial, Profile::P3Partial).unwrap();
        assert!(
            partial.collected_volume().value() >= full.collected_volume().value() - 1e-6,
            "partial {} < full {}",
            partial.collected_volume(),
            full.collected_volume()
        );
    }

    #[test]
    fn k1_matches_alg2_semantics() {
        // With K = 1 every selected stop collects fully (on residuals), so
        // collected volumes should be comparable to Algorithm 2.
        let s = scenario(4000.0);
        let a2 = Alg2Planner::default().plan(&s);
        let a3 = Alg3Planner::with_k(1).plan(&s);
        check_plan(&s, &a3, Profile::P3Partial).unwrap();
        // Same greedy family; allow them to differ but not wildly.
        let (v2, v3) = (a2.collected_volume().value(), a3.collected_volume().value());
        assert!(v3 >= 0.7 * v2, "K=1 {} vs alg2 {}", v3, v2);
    }

    #[test]
    fn zero_capacity_collects_nothing() {
        let s = scenario(0.0);
        let plan = Alg3Planner::default().plan(&s);
        assert!(plan.stops.is_empty());
    }

    #[test]
    fn residuals_never_go_negative() {
        let s = scenario(5000.0);
        let plan = Alg3Planner::with_k(4).plan(&s);
        let mut per_device = vec![0.0; s.num_devices()];
        for stop in &plan.stops {
            for &(dev, amt) in &stop.collected {
                per_device[dev.index()] += amt.value();
            }
        }
        for (i, &got) in per_device.iter().enumerate() {
            assert!(
                got <= s.devices[i].data.value() + 1e-6,
                "device {i} overdrawn"
            );
        }
    }

    #[test]
    fn extended_stops_merge_rather_than_duplicate_tour_points() {
        let s = scenario(8000.0);
        let plan = Alg3Planner::with_k(4).plan(&s);
        // No two stops at the same position (extension merges them).
        for i in 0..plan.stops.len() {
            for j in (i + 1)..plan.stops.len() {
                assert!(
                    plan.stops[i].pos.distance(plan.stops[j].pos) > 1e-9,
                    "duplicate stop position"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "K must be at least 1")]
    fn k_zero_rejected() {
        let s = scenario(1000.0);
        let _ = Alg3Planner::with_k(0).plan(&s);
    }
}
