//! Shared lazy-greedy evaluation engine for the max-ρ planners.
//!
//! Algorithms 2 and 3 (and, in its pruning mirror image, the benchmark
//! heuristic) are greedy loops that repeatedly pick the candidate with the
//! best reward/cost ratio. The textbook implementation rescans all `M`
//! candidates every iteration — `O(M·(|C(s)| + |tour|))` per commit, which
//! at `δ = 5 m` (≈ 40 000 candidates) dominates planning wall time.
//!
//! This module provides the machinery for an *incremental* greedy loop
//! whose plans are bit-identical to the exhaustive rescan:
//!
//! * [`DeviceIndex`] — inverted device → candidate index. Committing a
//!   stop drains a handful of devices; only the candidates sharing one of
//!   them can see their marginal reward change, so the dirty set per
//!   iteration is `∪_{v drained} index[v]` instead of all `M`.
//! * [`InsertionCache`] — exact cheapest-insertion deltas maintained
//!   under tour mutation. Inserting a point removes one tour edge and adds
//!   two; every cached delta is repaired in O(1) (min against the two new
//!   edges) and only candidates whose cached argmin edge was the removed
//!   one need a full rescan. 2-opt compaction rebuilds wholesale, and only
//!   when it actually changed the tour.
//! * [`LazyHeap`] — a CELF-style max-heap of generation-stamped cached ρ
//!   values. The planner re-pushes an entry whenever a candidate's cache
//!   changes, so every live entry is exact; selection pops the top, asks
//!   the planner for the candidate's *feasible* value (which may decay the
//!   entry, CELF-style, when the battery rules out its best variant),
//!   parks candidates that cannot fit until slack reappears, and resolves
//!   near-ties with the same `1e-15` band + lowest-candidate-index fold
//!   the exhaustive serial scan uses.
//! * [`chunked_argmax`] / [`chunked_for_each`] — the one shared
//!   implementation of the crossbeam chunked-thread scan that
//!   `alg2::best_evaluation` and `alg3::best_virtual` used to duplicate,
//!   now also pointed at dirty *batches* instead of the full range. Thread
//!   count is configurable through `UAVDC_THREADS` for reproducible
//!   benchmark runs.
//! * [`EvalCounters`] — instrumentation: how many full candidate
//!   evaluations the lazy engine actually performed versus the
//!   `M × iterations` an exhaustive loop would have, so the perf baseline
//!   (`crates/bench`, `BENCH_planner.json`) can track the trajectory and
//!   CI can trip on regressions.
//!
//! Identical-output argument (also in DESIGN.md §8): the engine never
//! *approximates* — every cached quantity a selection reads is equal to
//! what a fresh evaluation would produce, because each mutation event
//! (device drain, edge removal, tour compaction) eagerly re-evaluates or
//! repairs exactly the caches it touched. Selection then reproduces the
//! serial fold's comparator, so the winning candidate — and therefore the
//! committed plan — matches the exhaustive scan bit for bit.

use std::collections::BinaryHeap;
use std::sync::OnceLock;

use crate::candidates::CandidateSet;
use uavdc_geom::Point2;

/// Ratio-comparison band shared with the exhaustive scans: `a` beats `b`
/// only when `a.ratio > b.ratio + RATIO_BAND`, and exact ties go to the
/// lower candidate index.
pub const RATIO_BAND: f64 = 1e-15;

/// Which per-iteration evaluation strategy a greedy planner uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Incremental evaluation: dirty-set invalidation + lazy max-heap.
    /// Produces the same plans as [`EngineMode::Exhaustive`] (property
    /// tested) at a fraction of the evaluations.
    #[default]
    Lazy,
    /// Full rescan of every candidate each iteration — the reference
    /// implementation the lazy engine is validated against.
    Exhaustive,
}

// ---------------------------------------------------------------------------
// Thread configuration (shared by all chunked scans)
// ---------------------------------------------------------------------------

/// Number of worker threads used by the chunked candidate scans.
///
/// `UAVDC_THREADS` (a positive integer) overrides the default of
/// `available_parallelism().min(16)` so benchmark runs are reproducible
/// across machines. Read once per process.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "sanctioned thread-count override; worker count never changes plan output"
        )]
        if let Ok(v) = std::env::var("UAVDC_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(16)
    })
}

/// Chunked parallel argmax over `0..n`, deduplicating the scan that
/// `alg2::best_evaluation` and `alg3::best_virtual` used to each carry.
///
/// `eval(c)` returns the candidate's evaluation (or `None` when it is
/// inactive/infeasible) and `better(a, b)` decides whether `a` should
/// replace `b`. Chunks are folded in ascending-index order and merged in
/// chunk order, reproducing the original code's result exactly. With
/// `parallel == false` the scan is a plain serial fold.
pub(crate) fn chunked_argmax<E, F, B>(n: usize, parallel: bool, eval: F, better: B) -> Option<E>
where
    E: Send,
    F: Fn(usize) -> Option<E> + Sync,
    B: Fn(&E, &E) -> bool + Sync,
{
    let threads = if parallel { num_threads() } else { 1 };
    chunked_argmax_with(n, threads, eval, better)
}

/// [`chunked_argmax`] with an explicit worker-thread count, bypassing the
/// process-wide `UAVDC_THREADS` cache. `threads == 1` (or `n < 2`) is the
/// plain serial fold. The result is bit-identical for every thread count:
/// chunks are folded in ascending-index order and merged in chunk order,
/// so ties always resolve to the lowest-index winner under a strict
/// `better` predicate. Exposed (and property-tested) so determinism can
/// be checked across thread counts within one process.
pub fn chunked_argmax_with<E, F, B>(n: usize, threads: usize, eval: F, better: B) -> Option<E>
where
    E: Send,
    F: Fn(usize) -> Option<E> + Sync,
    B: Fn(&E, &E) -> bool + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < 2 {
        let mut best: Option<E> = None;
        for c in 0..n {
            if let Some(e) = eval(c) {
                if best.as_ref().is_none_or(|b| better(&e, b)) {
                    best = Some(e);
                }
            }
        }
        return best;
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Option<E>> = Vec::new();
    results.resize_with(threads, || None);
    #[expect(
        clippy::expect_used,
        reason = "Err only when a worker thread panicked; re-raising is correct"
    )]
    crossbeam::thread::scope(|scope| {
        for (t, slot) in results.iter_mut().enumerate() {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            let eval = &eval;
            let better = &better;
            scope.spawn(move |_| {
                let mut best: Option<E> = None;
                for c in lo..hi {
                    if let Some(e) = eval(c) {
                        if best.as_ref().is_none_or(|b| better(&e, b)) {
                            best = Some(e);
                        }
                    }
                }
                *slot = best;
            });
        }
    })
    .expect("candidate evaluation thread panicked");
    results
        .into_iter()
        .flatten()
        .fold(None, |acc, e| match acc {
            None => Some(e),
            Some(b) => Some(if better(&e, &b) { e } else { b }),
        })
}

/// Chunked parallel for-each over an index batch: applies `f` to every
/// element of `batch`, splitting across scoped threads when the batch is
/// at least `parallel_threshold` long. Each invocation must write only to
/// state owned by its index (the caller passes a closure over interior-
/// mutability-free shared slices via `per_item` results), so this variant
/// returns the computed values in batch order instead of mutating.
pub(crate) fn chunked_map<T, R, F>(batch: &[T], parallel_threshold: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = batch.len();
    let threads = if n < parallel_threshold.max(2) {
        1
    } else {
        num_threads()
    };
    chunked_map_with(batch, threads, f)
}

/// [`chunked_map`] with an explicit worker-thread count, bypassing the
/// process-wide `UAVDC_THREADS` cache. Results come back in batch order
/// regardless of the thread count (chunks are contiguous and concatenated
/// in chunk order), which the determinism property test asserts.
pub fn chunked_map_with<T, R, F>(batch: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = batch.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return batch.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    results.resize_with(threads, Vec::new);
    #[expect(
        clippy::expect_used,
        reason = "Err only when a worker thread panicked; re-raising is correct"
    )]
    crossbeam::thread::scope(|scope| {
        for (t, slot) in results.iter_mut().enumerate() {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            let f = &f;
            scope.spawn(move |_| {
                *slot = batch[lo..hi].iter().map(f).collect();
            });
        }
    })
    .expect("candidate evaluation thread panicked");
    results.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// Inverted device → candidate index
// ---------------------------------------------------------------------------

/// Inverted index from device id to the candidates covering it.
///
/// Built once per planning run from the (pruned) [`CandidateSet`];
/// committing a stop that drains devices `S` dirties exactly
/// `∪_{v ∈ S} candidates_of(v)` — the only candidates whose marginal
/// reward terms can have changed.
#[derive(Clone, Debug)]
pub struct DeviceIndex {
    /// CSR layout: device `v`'s candidates sit at
    /// `data[offsets[v]..offsets[v + 1]]` — one flat allocation instead
    /// of a `Vec` per device.
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl DeviceIndex {
    /// Builds the index. `num_devices` bounds the device-id space.
    pub fn build(candidates: &CandidateSet, num_devices: usize) -> Self {
        let mut offsets = vec![0u32; num_devices + 1];
        for c in &candidates.candidates {
            for &v in &c.covered {
                offsets[v as usize + 1] += 1;
            }
        }
        for v in 0..num_devices {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut data = vec![0u32; offsets[num_devices] as usize];
        // Candidates are visited in ascending order, so each device's
        // slice comes out ascending — same order the per-device Vec
        // layout produced.
        for (i, c) in candidates.candidates.iter().enumerate() {
            for &v in &c.covered {
                let slot = cursor[v as usize];
                data[slot as usize] = i as u32;
                cursor[v as usize] = slot + 1;
            }
        }
        DeviceIndex { offsets, data }
    }

    /// Candidates covering device `v`, in ascending candidate order.
    #[inline]
    pub fn candidates_of(&self, v: u32) -> &[u32] {
        &self.data[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Collects the deduplicated dirty candidate set for a batch of
    /// drained devices, using `stamp`/`epoch` as a reusable visited
    /// marker (no per-call allocation of a fresh bitmap).
    pub fn dirty_candidates(
        &self,
        drained: impl IntoIterator<Item = u32>,
        stamp: &mut [u32],
        epoch: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for v in drained {
            for &c in self.candidates_of(v) {
                if stamp[c as usize] != epoch {
                    stamp[c as usize] = epoch;
                    out.push(c);
                }
            }
        }
        out.sort_unstable();
    }
}

// ---------------------------------------------------------------------------
// Exact incremental cheapest-insertion cache
// ---------------------------------------------------------------------------

/// Outcome of the O(1) per-candidate repair after a tour insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fixup {
    /// Cached delta unchanged (its edge survived and neither new edge is
    /// cheaper).
    Unchanged,
    /// Cached delta improved via one of the two new edges (ρ may grow —
    /// the planner must refresh the candidate's heap entry).
    Improved,
    /// The cached argmin edge was the one the insertion removed; the
    /// candidate needs a full rescan before its next evaluation.
    Invalidated,
}

/// Cached cheapest-insertion evaluations, maintained *exactly* across
/// tour insertions.
///
/// For each candidate we store the cheapest-insertion `(delta, pos)` into
/// the current tour, where `pos` doubles as the identity of the edge that
/// achieved the minimum (insertion position `pos` splits the edge between
/// tour indices `pos-1` and `pos mod n`). Inserting a point at position
/// `q` removes that one edge and adds two; a cached entry stays exact by
/// (a) shifting its edge index, and (b) taking the min against the two new
/// edges — unless its own edge was removed, in which case it must rescan.
/// The cached *value* always equals a fresh full scan's value; the cached
/// *position* may name a different edge of equal delta, which is
/// irrelevant because planners recompute the canonical position for the
/// single winning candidate at commit time.
#[derive(Clone, Debug)]
pub struct InsertionCache {
    delta: Vec<f64>,
    pos: Vec<usize>,
    valid: Vec<bool>,
}

impl InsertionCache {
    /// An all-invalid cache for `m` candidates.
    pub fn new(m: usize) -> Self {
        InsertionCache {
            delta: vec![0.0; m],
            pos: vec![usize::MAX; m],
            valid: vec![false; m],
        }
    }

    /// The cached `(delta, pos)`; `None` when the entry needs a rescan.
    #[inline]
    pub fn get(&self, c: usize) -> Option<(f64, usize)> {
        if self.valid[c] {
            Some((self.delta[c], self.pos[c]))
        } else {
            None
        }
    }

    /// Stores a freshly computed evaluation.
    #[inline]
    pub fn set(&mut self, c: usize, delta: f64, pos: usize) {
        self.delta[c] = delta;
        self.pos[c] = pos;
        self.valid[c] = true;
    }

    /// Marks one entry as needing a rescan.
    #[inline]
    pub fn invalidate(&mut self, c: usize) {
        self.valid[c] = false;
    }

    /// Invalidates everything (used after 2-opt compaction changed the
    /// tour wholesale).
    pub fn invalidate_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
    }

    /// Repairs entry `c` after `p` was inserted at position `ins_pos`;
    /// `tour` is the tour *after* the insertion. O(1).
    pub fn apply_insertion(
        &mut self,
        c: usize,
        cand_pos: Point2,
        tour: &[Point2],
        ins_pos: usize,
    ) -> Fixup {
        if !self.valid[c] {
            return Fixup::Invalidated;
        }
        if self.pos[c] == ins_pos {
            self.valid[c] = false;
            return Fixup::Invalidated;
        }
        if self.pos[c] > ins_pos {
            self.pos[c] += 1;
        }
        let n = tour.len();
        let p = tour[ins_pos];
        let a = tour[ins_pos - 1];
        let b = tour[(ins_pos + 1) % n];
        let mut out = Fixup::Unchanged;
        let delta_a = a.distance(cand_pos) + cand_pos.distance(p) - a.distance(p);
        if delta_a < self.delta[c] {
            self.delta[c] = delta_a;
            self.pos[c] = ins_pos;
            out = Fixup::Improved;
        }
        let delta_b = p.distance(cand_pos) + cand_pos.distance(b) - p.distance(b);
        if delta_b < self.delta[c] {
            self.delta[c] = delta_b;
            self.pos[c] = ins_pos + 1;
            out = Fixup::Improved;
        }
        out
    }

    /// Column-based twin of [`InsertionCache::apply_insertion`]: identical
    /// decision sequence (same comparisons on the same values in the same
    /// order), with the five distances supplied by the caller instead of
    /// recomputed per candidate. Algorithm 2's lazy engine batch-computes
    /// the three candidate→tour-point columns once per commit
    /// (`uavdc_graph::incremental::distances_to_point`) and repairs every
    /// active candidate from them; `tests/lazy_equivalence.rs` and the
    /// in-module repair property keep the two variants locked together.
    pub fn apply_insertion_cols(&mut self, c: usize, d: RepairDists, ins_pos: usize) -> Fixup {
        if !self.valid[c] {
            return Fixup::Invalidated;
        }
        if self.pos[c] == ins_pos {
            self.valid[c] = false;
            return Fixup::Invalidated;
        }
        if self.pos[c] > ins_pos {
            self.pos[c] += 1;
        }
        let mut out = Fixup::Unchanged;
        let delta_a = d.d_a + d.d_p - d.e_ap;
        if delta_a < self.delta[c] {
            self.delta[c] = delta_a;
            self.pos[c] = ins_pos;
            out = Fixup::Improved;
        }
        let delta_b = d.d_p + d.d_b - d.e_pb;
        if delta_b < self.delta[c] {
            self.delta[c] = delta_b;
            self.pos[c] = ins_pos + 1;
            out = Fixup::Improved;
        }
        out
    }
}

/// Distance bundle feeding [`InsertionCache::apply_insertion_cols`]: the
/// candidate's distances to the three tour points around an insertion at
/// `ins_pos` (predecessor `a`, inserted point `p`, successor `b`), plus
/// the two new tour edges. Every field must be bit-identical to the
/// `Point2::distance` value [`InsertionCache::apply_insertion`] would
/// recompute.
#[derive(Clone, Copy, Debug)]
pub struct RepairDists {
    /// `a.distance(candidate)`.
    pub d_a: f64,
    /// `p.distance(candidate)`.
    pub d_p: f64,
    /// `b.distance(candidate)`.
    pub d_b: f64,
    /// `a.distance(p)` — the first new tour edge.
    pub e_ap: f64,
    /// `p.distance(b)` — the second new tour edge.
    pub e_pb: f64,
}

// ---------------------------------------------------------------------------
// CELF-style lazy max-heap
// ---------------------------------------------------------------------------

/// Order-preserving bijection from `f64` under [`f64::total_cmp`] to
/// `u64` under integer `<`: the sign-dependent XOR from `total_cmp`'s own
/// definition, shifted from `i64` into `u64` range. Exact for every bit
/// pattern (including NaNs, infinities and signed zeros), so a `u64`
/// comparison of mapped values is bit-for-bit the `TotalF64` ordering.
#[inline]
fn mono_f64(v: f64) -> u64 {
    let b = v.to_bits() as i64;
    let m = b ^ (((b >> 63) as u64) >> 1) as i64;
    (m as u64) ^ (1u64 << 63)
}

/// Inverse of [`mono_f64`] (the XOR mask is sign-preserved, so the map is
/// an involution on the shifted integers). Bit-exact round trip.
#[inline]
fn unmono_f64(u: u64) -> f64 {
    let m = (u ^ (1u64 << 63)) as i64;
    let b = m ^ (((m >> 63) as u64) >> 1) as i64;
    f64::from_bits(b as u64)
}

/// Heap entry packed into one `u128` key: max by ratio (via
/// [`mono_f64`]), then min by candidate index (`!cand`: ties at bit-equal
/// ratio resolve to the lower index, like the serial fold), `gen` last so
/// the ordering is total. Packing keeps the entry at 16 bytes while
/// turning the three-field lexicographic comparison into a single integer
/// compare — the heap's sift loops dominate lazy-selection wall time.
#[inline]
fn pack_entry(ratio: f64, cand: u32, gen: u32) -> u128 {
    ((mono_f64(ratio) as u128) << 64) | (((!cand) as u128) << 32) | gen as u128
}

#[inline]
fn entry_ratio(key: u128) -> f64 {
    unmono_f64((key >> 64) as u64)
}

#[inline]
fn entry_cand(key: u128) -> u32 {
    !((key >> 32) as u32)
}

#[inline]
fn entry_gen(key: u128) -> u32 {
    key as u32
}

/// What [`LazyHeap::select`] learned about a popped candidate.
pub enum Probe {
    /// The candidate's best feasible ratio right now. Must be
    /// `<= `the entry's cached ratio (evaluations only decay under
    /// tightening feasibility; anything that can *raise* a ratio must
    /// instead go through [`LazyHeap::push`]).
    Feasible(f64),
    /// Nothing about this candidate fits the remaining battery. It is
    /// parked until [`LazyHeap::unpark_all`] (slack reappeared) or a
    /// [`LazyHeap::push`] (its own cost shrank) revives it.
    Infeasible,
}

/// Generation-stamped lazy max-heap over cached candidate ratios.
///
/// Every push stamps the candidate's current generation; entries whose
/// stamp is stale (the candidate was re-pushed since) are discarded on
/// pop. The planner guarantees that at selection time the newest entry of
/// every unparked, active candidate carries a ratio `>=` its true current
/// value (exact for Algorithm 2; an upper bound that [`Probe::Feasible`]
/// decays for Algorithm 3's battery-filtered virtual stops).
pub struct LazyHeap {
    heap: BinaryHeap<u128>,
    gen: Vec<u32>,
    parked: Vec<u128>,
    purge_at: usize,
}

impl LazyHeap {
    /// An empty heap over `m` candidates.
    pub fn new(m: usize) -> Self {
        LazyHeap {
            heap: BinaryHeap::with_capacity(m),
            gen: vec![0; m],
            parked: Vec::new(),
            purge_at: usize::MAX,
        }
    }

    /// Enables bulk sweeps of superseded entries at the start of
    /// [`select`](LazyHeap::select) whenever the heap holds more than
    /// `4·m` entries. A sweep only reschedules *when* a superseded entry
    /// leaves the heap, never *whether*: every pushed entry is discarded
    /// exactly once either way — at the heap top or during a sweep — and
    /// both count toward the pop counter, so the counter total is
    /// invariant. That bookkeeping identity needs the planner loop to
    /// end by running selection to heap exhaustion (as Algorithm 2's
    /// does — its only exit is an empty selection, which pops every
    /// remaining entry). Loops with early exits (`alg3`'s iteration cap
    /// and zero-gain break) must leave purging off, or entries the
    /// baseline left uncounted in the resident heap would get counted.
    pub fn enable_purge(&mut self) {
        self.purge_at = (4 * self.gen.len()).max(64);
    }

    /// Sweeps superseded entries out in bulk, counting each into `pops`
    /// (see [`enable_purge`](LazyHeap::enable_purge)). Live entries are
    /// untouched, so selection observes the same candidates in the same
    /// order; the point is that a discard during the sweep is O(1) while
    /// the same discard at the heap top is O(log n) on a heap bloated by
    /// the very entries being discarded.
    fn purge(&mut self, pops: &mut u64) {
        if self.heap.len() < self.purge_at {
            return;
        }
        let old = std::mem::take(&mut self.heap).into_vec();
        let mut live = Vec::with_capacity(self.gen.len());
        for e in old {
            if entry_gen(e) == self.gen[entry_cand(e) as usize] {
                live.push(e);
            } else {
                *pops += 1;
            }
        }
        self.heap = BinaryHeap::from(live);
    }

    /// Publishes candidate `c`'s current cached ratio, superseding any
    /// previous entry for `c`.
    pub fn push(&mut self, c: usize, ratio: f64) {
        self.gen[c] = self.gen[c].wrapping_add(1);
        self.heap.push(pack_entry(ratio, c as u32, self.gen[c]));
    }

    /// Returns parked candidates to contention (call when battery slack
    /// grew, e.g. after a tour compaction shortened the tour). Stale
    /// parked entries are filtered out by the generation check on pop.
    pub fn unpark_all(&mut self) {
        for e in self.parked.drain(..) {
            self.heap.push(e);
        }
    }

    /// Number of candidates currently parked as infeasible.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Selects the candidate the exhaustive serial fold would pick:
    /// among feasible candidates, the lowest-index one that no candidate
    /// beats by more than [`RATIO_BAND`] under the fold's replacement
    /// rule. `probe(c)` reports the candidate's current feasible value
    /// (see [`Probe`]); `active(c)` filters candidates that have been
    /// deactivated since their entry was pushed.
    ///
    /// Returns `(candidate, ratio)` or `None` when nothing is feasible.
    pub fn select(
        &mut self,
        mut active: impl FnMut(usize) -> bool,
        mut probe: impl FnMut(usize) -> Probe,
        pops: &mut u64,
    ) -> Option<(usize, f64)> {
        self.purge(pops);
        // Cohort of feasible candidates within the tie band of each
        // other; kept sorted implicitly by collecting then folding.
        let mut cohort: Vec<(f64, u32, u32)> = Vec::new();
        let mut cohort_min = f64::INFINITY;
        while let Some(&top) = self.heap.peek() {
            if !cohort.is_empty() && entry_ratio(top) < cohort_min - RATIO_BAND {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "peek above proves the heap is non-empty"
            )]
            let entry = self.heap.pop().expect("heap entry vanished after peek");
            *pops += 1;
            let c = entry_cand(entry) as usize;
            if entry_gen(entry) != self.gen[c] || !active(c) {
                continue; // superseded or deactivated entry
            }
            match probe(c) {
                Probe::Infeasible => self.parked.push(entry),
                Probe::Feasible(v) => {
                    if v >= entry_ratio(entry) {
                        // Exact entry: joins the cohort directly.
                        cohort_min = cohort_min.min(v);
                        cohort.push((v, entry_cand(entry), entry_gen(entry)));
                    } else {
                        // CELF decay: the feasible value is below the
                        // cached bound; re-queue at its true value so it
                        // competes in the right order.
                        self.heap
                            .push(pack_entry(v, entry_cand(entry), entry_gen(entry)));
                    }
                }
            }
        }
        // Serial-fold tie-break over the cohort in ascending candidate
        // order: replace only on a strict RATIO_BAND improvement.
        cohort.sort_unstable_by_key(|e| e.1);
        let mut best: Option<(f64, u32, u32)> = None;
        for &(r, c, g) in &cohort {
            match best {
                None => best = Some((r, c, g)),
                Some((br, _, _)) => {
                    if r > br + RATIO_BAND {
                        best = Some((r, c, g));
                    }
                }
            }
        }
        let winner = best?;
        // Losers stay current: return them to the heap unchanged.
        for &(r, c, g) in &cohort {
            if c != winner.1 {
                self.heap.push(pack_entry(r, c, g));
            }
        }
        Some((winner.1 as usize, winner.0))
    }
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

/// Work counters for one planning run, comparing the lazy engine's
/// actual evaluation count against the exhaustive bound.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalCounters {
    /// Candidates at loop start (after pruning) — the `M` of the bound.
    pub candidates: usize,
    /// Greedy iterations performed (selection attempts, including the
    /// final one that found nothing feasible).
    pub iterations: u64,
    /// Full candidate evaluations performed (marginal-reward recomputes
    /// and/or insertion-delta rescans; one event per candidate per batch).
    pub evaluations: u64,
    /// Marginal-reward recomputes triggered by drained devices.
    pub marginal_evals: u64,
    /// Cheapest-insertion full rescans (edge removed under the cached
    /// argmin, or tour compaction changed the tour).
    pub delta_rescans: u64,
    /// O(1) insertion-cache repairs performed.
    pub fixups: u64,
    /// Heap entries retired during selection: top-of-heap pops plus
    /// stale entries removed by the purge sweep. Every pushed entry is
    /// retired exactly once, so the count is purge-invariant.
    pub heap_pops: u64,
    /// Incremental tour patches applied (insertion splices plus local
    /// compactions that changed the tour). Deterministic: equal across
    /// engines because both drive the same state evolution.
    pub tour_patches: u64,
    /// Full Christofides tour rebuilds (PaperChristofides evaluations and
    /// uncached commits; always 0 under FastInsertion).
    pub full_retours: u64,
}

impl EvalCounters {
    /// Evaluations an exhaustive rescan would have performed:
    /// `iterations × candidates`.
    pub fn exhaustive_bound(&self) -> u64 {
        self.iterations.saturating_mul(self.candidates as u64)
    }

    /// Evaluations avoided relative to the exhaustive bound.
    pub fn saved(&self) -> u64 {
        self.exhaustive_bound().saturating_sub(self.evaluations)
    }
}

/// Timing + work breakdown for one planning run, returned by the
/// planners' `plan_with_stats` entry points and consumed by the
/// `planner_baseline` perf harness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// Engine that produced the plan.
    pub engine: EngineMode,
    /// Work counters (candidate counts are planner-specific: grid
    /// candidates for Algorithms 2/3, initial tour stops for the
    /// benchmark heuristic).
    pub counters: EvalCounters,
    /// Wall time building + pruning the candidate set, nanoseconds.
    pub setup_ns: u64,
    /// Wall time in the greedy loop itself, nanoseconds.
    pub loop_ns: u64,
}

impl PlanStats {
    /// Total planning wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.setup_ns + self.loop_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tourutil::cheapest_insertion_point;
    use uavdc_net::units::Meters;

    #[test]
    fn device_index_inverts_coverage() {
        use crate::candidates::Candidate;
        let cs = CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates: vec![
                Candidate {
                    pos: Point2::new(0.0, 0.0),
                    covered: vec![0, 2],
                },
                Candidate {
                    pos: Point2::new(1.0, 0.0),
                    covered: vec![1],
                },
                Candidate {
                    pos: Point2::new(2.0, 0.0),
                    covered: vec![0, 1],
                },
            ],
        };
        let idx = DeviceIndex::build(&cs, 3);
        assert_eq!(idx.candidates_of(0), &[0, 2]);
        assert_eq!(idx.candidates_of(1), &[1, 2]);
        assert_eq!(idx.candidates_of(2), &[0]);
        let mut stamp = vec![0u32; 3];
        let mut out = Vec::new();
        idx.dirty_candidates([0, 1], &mut stamp, 1, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        idx.dirty_candidates([2], &mut stamp, 2, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn packed_heap_key_matches_three_field_ordering() {
        // The packed u128 key must reproduce the lexicographic
        // (total_cmp ratio, Reverse(cand), gen) ordering bit for bit —
        // the heap's pop sequence, and with it the frozen `heap_pops`
        // baseline counter, depends on it. Exercise the f64 edge cases
        // total_cmp distinguishes plus a pseudo-random sweep.
        let specials = [
            f64::NEG_INFINITY,
            -1.5e300,
            -1.0,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1.5e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut vals: Vec<f64> = specials.to_vec();
        let mut s = 0x2545f4914f6cdd1du64;
        for _ in 0..512 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            vals.push(f64::from_bits(s));
        }
        for &a in &vals {
            assert_eq!(
                unmono_f64(mono_f64(a)).to_bits(),
                a.to_bits(),
                "mono/unmono round trip broke {a:?}"
            );
            for &b in &vals {
                assert_eq!(
                    mono_f64(a).cmp(&mono_f64(b)),
                    a.total_cmp(&b),
                    "mono order diverged from total_cmp on {a:?} vs {b:?}"
                );
            }
        }
        // Tie-breaks: equal ratio prefers the lower candidate; equal
        // (ratio, cand) prefers the higher generation.
        assert!(pack_entry(1.0, 3, 7) > pack_entry(1.0, 4, 7));
        assert!(pack_entry(1.0, 3, 8) > pack_entry(1.0, 3, 7));
        assert!(pack_entry(2.0, 9, 1) > pack_entry(1.0, 0, 9));
        assert_eq!(entry_cand(pack_entry(1.0, 3, 7)), 3);
        assert_eq!(entry_gen(pack_entry(1.0, 3, 7)), 7);
    }

    #[test]
    fn insertion_cache_repair_matches_full_rescan() {
        // Deterministic pseudo-random points; after every insertion the
        // repaired cache must match a fresh cheapest_insertion_point.
        let cands: Vec<Point2> = (0..40)
            .map(|i| Point2::new(((i * 37) % 101) as f64, ((i * 53) % 97) as f64))
            .collect();
        let inserts: Vec<Point2> = (0..12)
            .map(|i| Point2::new(((i * 61 + 13) % 89) as f64, ((i * 29 + 7) % 83) as f64))
            .collect();
        let mut tour = vec![Point2::new(50.0, 50.0)];
        let mut cache = InsertionCache::new(cands.len());
        for (c, &p) in cands.iter().enumerate() {
            let (d, pos) = cheapest_insertion_point(&tour, p);
            cache.set(c, d, pos);
        }
        let mut cols = InsertionCache::new(cands.len());
        for (c, &p) in cands.iter().enumerate() {
            let (d, pos) = cheapest_insertion_point(&tour, p);
            cols.set(c, d, pos);
        }
        for &p in &inserts {
            let (_, ins_pos) = cheapest_insertion_point(&tour, p);
            tour.insert(ins_pos, p);
            let a = tour[ins_pos - 1];
            let b = tour[(ins_pos + 1) % tour.len()];
            for (c, &cp) in cands.iter().enumerate() {
                let d = RepairDists {
                    d_a: a.distance(cp),
                    d_p: p.distance(cp),
                    d_b: b.distance(cp),
                    e_ap: a.distance(p),
                    e_pb: p.distance(b),
                };
                let row_fix = cache.apply_insertion(c, cp, &tour, ins_pos);
                // The column twin must take the exact same decisions.
                assert_eq!(cols.apply_insertion_cols(c, d, ins_pos), row_fix);
                if row_fix == Fixup::Invalidated {
                    let (d, pos) = cheapest_insertion_point(&tour, cp);
                    cache.set(c, d, pos);
                    cols.set(c, d, pos);
                }
                assert_eq!(cache.get(c), cols.get(c), "column repair diverged at {c}");
                let (want, _) = cheapest_insertion_point(&tour, cp);
                let (got, got_pos) = cache.get(c).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "candidate {c} delta diverged"
                );
                // The cached position must name a real edge achieving
                // the cached delta (not necessarily the canonical one).
                assert!(got_pos >= 1 && got_pos <= tour.len());
            }
        }
    }

    #[test]
    fn lazy_heap_orders_by_ratio_then_index() {
        let mut h = LazyHeap::new(4);
        h.push(2, 5.0);
        h.push(0, 7.0);
        h.push(1, 7.0);
        h.push(3, 1.0);
        let mut pops = 0;
        let got = h.select(
            |_| true,
            |c| Probe::Feasible([7.0, 7.0, 5.0, 1.0][c]),
            &mut pops,
        );
        // Bit-equal ratios: lowest index wins.
        assert_eq!(got, Some((0, 7.0)));
    }

    #[test]
    fn lazy_heap_discards_superseded_entries() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(0, 3.0); // supersedes the 9.0 entry
        h.push(1, 5.0);
        let mut pops = 0;
        let got = h.select(|_| true, |c| Probe::Feasible([3.0, 5.0][c]), &mut pops);
        assert_eq!(got, Some((1, 5.0)));
    }

    #[test]
    fn lazy_heap_parks_infeasible_until_unparked() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 5.0);
        let mut pops = 0;
        let got = h.select(
            |_| true,
            |c| {
                if c == 0 {
                    Probe::Infeasible
                } else {
                    Probe::Feasible(5.0)
                }
            },
            &mut pops,
        );
        assert_eq!(got, Some((1, 5.0)));
        assert_eq!(h.parked_len(), 1);
        // Candidate 0 is out of contention until slack returns.
        let got = h.select(|_| true, |_| Probe::Feasible(9.0), &mut pops);
        assert_eq!(got, None);
        h.unpark_all();
        let got = h.select(|_| true, |_| Probe::Feasible(9.0), &mut pops);
        assert_eq!(got, Some((0, 9.0)));
    }

    #[test]
    fn lazy_heap_decays_upper_bounds() {
        // Candidate 0's bound is 9 but its feasible value is 2; candidate
        // 1's exact 5 must win.
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 5.0);
        let mut pops = 0;
        let got = h.select(
            |_| true,
            |c| Probe::Feasible(if c == 0 { 2.0 } else { 5.0 }),
            &mut pops,
        );
        assert_eq!(got, Some((1, 5.0)));
        // The decayed entry remains selectable at its true value.
        let got = h.select(|_| true, |_| Probe::Feasible(2.0), &mut pops);
        assert_eq!(got, Some((0, 2.0)));
    }

    #[test]
    fn chunked_argmax_parallel_matches_serial() {
        let score = |c: usize| -> Option<(f64, usize)> {
            if c % 7 == 3 {
                None
            } else {
                Some((((c * 2654435761) % 1000) as f64, c))
            }
        };
        let better = |a: &(f64, usize), b: &(f64, usize)| {
            a.0 > b.0 + RATIO_BAND || (a.0 >= b.0 - RATIO_BAND && a.1 < b.1)
        };
        let serial = chunked_argmax(5000, false, score, better);
        let parallel = chunked_argmax(5000, true, score, better);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chunked_map_preserves_order() {
        let batch: Vec<u32> = (0..1000).collect();
        let serial = chunked_map(&batch, usize::MAX, |&x| x * 3);
        let parallel = chunked_map(&batch, 1, |&x| x * 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn counters_bound_arithmetic() {
        let c = EvalCounters {
            candidates: 100,
            iterations: 10,
            evaluations: 150,
            ..EvalCounters::default()
        };
        assert_eq!(c.exhaustive_bound(), 1000);
        assert_eq!(c.saved(), 850);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(num_threads() >= 1);
    }
}
