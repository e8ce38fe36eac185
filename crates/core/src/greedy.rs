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
//! * [`dirty_candidates`] — committing a stop drains a handful of
//!   devices; only the candidates sharing one of them can see their
//!   marginal reward change, so the dirty set per iteration is
//!   `∪_{v drained} candidates_of(v)`, read from the [`CandidateSet`]'s
//!   device → candidate transpose, instead of all `M`.
//! * [`InsertionCache`] — exact cheapest-insertion deltas maintained
//!   under tour mutation. Inserting a point removes one tour edge and adds
//!   two; every cached delta is repaired in O(1) (min against the two new
//!   edges) and only candidates whose cached argmin edge was the removed
//!   one need a full rescan. 2-opt compaction rebuilds wholesale, and only
//!   when it actually changed the tour.
//! * `DistanceBank` — the candidate → tour-point distances those repairs
//!   and rescans read, computed once per tour point as one vectorised
//!   column and shared by the lazy loops of Algorithms 2 and 3, so a
//!   repair costs no square root and a rescan reads one banked row.
//! * [`LazyHeap`] — a CELF-style max-heap of generation-stamped cached ρ
//!   values. The planner re-pushes an entry whenever a candidate's cache
//!   changes, so every live entry is exact; selection pops the top, asks
//!   the planner for the candidate's *feasible* value (which may decay the
//!   entry, CELF-style, when the battery rules out its best variant),
//!   parks candidates that cannot fit until slack reappears, and resolves
//!   near-ties with the same `1e-15` band + lowest-candidate-index fold
//!   the exhaustive serial scan uses.
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

use crate::candidates::CandidateSet;
use uavdc_geom::Point2;
use uavdc_graph::incremental::{
    cheapest_insertion_cached, cheapest_insertion_cached4, distances_to_point, IncrementalTour,
};

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
// Dirty candidates
// ---------------------------------------------------------------------------

/// Collects the deduplicated dirty candidate set for a batch of drained
/// devices, ascending: `∪_{v ∈ drained} candidates_of(v)`, read from the
/// set's device → candidate transpose. These are the only candidates
/// whose marginal reward terms can have changed. `stamp`/`epoch` is a
/// reusable visited marker (no per-call allocation of a fresh bitmap).
pub fn dirty_candidates(
    candidates: &CandidateSet,
    drained: impl IntoIterator<Item = u32>,
    stamp: &mut [u32],
    epoch: u32,
    out: &mut Vec<u32>,
) {
    out.clear();
    for v in drained {
        for &c in candidates.candidates_of(v) {
            if stamp[c as usize] != epoch {
                stamp[c as usize] = epoch;
                out.push(c);
            }
        }
    }
    out.sort_unstable();
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

    /// Repairs entry `c` after a point was inserted at position
    /// `ins_pos`, from the five distances around the splice. O(1): an
    /// entry whose argmin edge survived shifts its position and takes the
    /// min against the two new edges (`d_a + d_p − e_ap`, then
    /// `d_p + d_b − e_pb`, each replacing only on a strict `<`); an entry
    /// whose edge was the one split is invalidated for a rescan. The
    /// lazy loops read the distances from a [`DistanceBank`]; the
    /// in-module repair property checks every repaired value against a
    /// fresh `cheapest_insertion_point` scan bit for bit.
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
/// `Point2::distance` value of the same pair.
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
// Banked candidate → tour-point distances
// ---------------------------------------------------------------------------

/// The lazy loops' square-root cache: every candidate's distance to every
/// tour point, computed once per point — one vectorised
/// [`distances_to_point`] column when the point enters the tour — and
/// read by every later cache repair and rescan. Algorithms 2 and 3 both
/// keep their tours mirrored in an [`IncrementalTour`] whose stable point
/// ids index the bank (id 0 is the depot), so a repair reads three banked
/// columns plus two cached tour edges, and a rescan reads one banked row.
///
/// Every banked value is bit-identical to the `Point2::distance` of the
/// same pair (see [`distances_to_point`]), so repairs and rescans return
/// exactly what [`InsertionCache::apply_insertion_cols`] on fresh
/// distances and `cheapest_insertion_point` would.
pub(crate) struct DistanceBank {
    /// Candidate coordinates, structure-of-arrays for the column kernel.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `cols[id][c]` = candidate `c`'s distance to tour point `id`. Columns
    /// serve the repairs (whole candidate range × three tour points).
    cols: Vec<Vec<f64>>,
    /// Row-major `m × cap` copy of the bank (rows padded to `cap`): rows
    /// serve the rescans (one candidate × whole tour, contiguous).
    dmat: Vec<f64>,
    /// Row capacity in tour-point ids; doubles when the tour outgrows it.
    cap: usize,
    /// `filled[c]` = number of leading point columns row `c` holds. Rows
    /// are backfilled from `cols` only when a rescan is about to read
    /// them: writing every new column into every row on each commit would
    /// cost a cache line per candidate per iteration, while a rescan tops
    /// up just the few columns its row is missing (values identical
    /// either way — both copy the same `distances_to_point` batch).
    filled: Vec<u32>,
}

impl DistanceBank {
    /// A bank over `candidates` holding the depot column (tour point 0).
    pub(crate) fn new(candidates: &CandidateSet, depot: Point2) -> Self {
        let m = candidates.len();
        let xs: Vec<f64> = candidates.iter().map(|c| c.pos.x).collect();
        let ys: Vec<f64> = candidates.iter().map(|c| c.pos.y).collect();
        let mut depot_col = Vec::new();
        distances_to_point(&xs, &ys, depot.x, depot.y, &mut depot_col);
        let cap = 64usize;
        let mut dmat = vec![0.0f64; m * cap];
        for (c, &d) in depot_col.iter().enumerate() {
            dmat[c * cap] = d;
        }
        DistanceBank {
            xs,
            ys,
            cols: vec![depot_col],
            dmat,
            cap,
            filled: vec![1; m],
        }
    }

    /// Candidate `c`'s coordinates.
    #[inline]
    pub(crate) fn pos(&self, c: usize) -> (f64, f64) {
        (self.xs[c], self.ys[c])
    }

    /// Candidate `c`'s distance to the depot; `2·depot_dist(c)` is its
    /// cheapest-insertion delta into the depot-only tour.
    #[inline]
    pub(crate) fn depot_dist(&self, c: usize) -> f64 {
        self.cols[0][c]
    }

    /// Banks the column of the point `inc` just spliced in at tour
    /// position `pos` (its newest id) and repairs the cached insertion
    /// delta of every candidate `c` with `keep(c)`, in ascending order,
    /// reporting each outcome to `on_fix`. The three candidate distances
    /// come from the bank and the two new edges from `inc`'s edge cache.
    // Inlined, like `rescan`, so the closures fuse into the caller's
    // loop; out of line, Alg 2's loop ran ~5% slower on a 2-vCPU VM.
    #[inline]
    pub(crate) fn insert_point(
        &mut self,
        inc: &IncrementalTour,
        pos: usize,
        ins: &mut InsertionCache,
        keep: impl Fn(usize) -> bool,
        mut on_fix: impl FnMut(usize, Fixup),
    ) {
        let order = inc.order();
        let ln = order.len();
        let id = order[pos];
        debug_assert_eq!(id, self.cols.len(), "bank columns must follow tour ids");
        self.grow_rows(id);
        let (px, py) = inc.point(id);
        let mut col = Vec::new();
        distances_to_point(&self.xs, &self.ys, px, py, &mut col);
        let bank_a = &self.cols[order[pos - 1]];
        let bank_b = &self.cols[order[(pos + 1) % ln]];
        let e_ap = inc.edge_costs()[pos - 1];
        let e_pb = inc.edge_costs()[pos];
        for c in 0..self.xs.len() {
            if !keep(c) {
                continue;
            }
            let d = RepairDists {
                d_a: bank_a[c],
                d_p: col[c],
                d_b: bank_b[c],
                e_ap,
                e_pb,
            };
            on_fix(c, ins.apply_insertion_cols(c, d, pos));
        }
        self.cols.push(col);
    }

    /// Rescans the cheapest insertion of every candidate in `batch`
    /// against `inc`'s current tour from the banked rows, four lanes at a
    /// time ([`cheapest_insertion_cached4`]), storing each result in
    /// `ins` and reporting `(candidate, delta)` to `on_set` in batch
    /// order. Pure table arithmetic: no square roots.
    #[inline]
    pub(crate) fn rescan(
        &mut self,
        batch: &[u32],
        inc: &IncrementalTour,
        ins: &mut InsertionCache,
        mut on_set: impl FnMut(u32, f64),
    ) {
        for &cu in batch {
            self.fill_row(cu as usize);
        }
        let order = inc.order();
        let elen = inc.edge_costs();
        let cap = self.cap;
        let row = |cu: u32| &self.dmat[cu as usize * cap..(cu as usize + 1) * cap];
        for ch in batch.chunks(4) {
            if let &[c0, c1, c2, c3] = ch {
                let out =
                    cheapest_insertion_cached4([row(c0), row(c1), row(c2), row(c3)], order, elen);
                for (&cu, &(delta, p)) in ch.iter().zip(&out) {
                    ins.set(cu as usize, delta, p as usize);
                    on_set(cu, delta);
                }
            } else {
                for &cu in ch {
                    let (delta, p) = cheapest_insertion_cached(row(cu), order, elen);
                    ins.set(cu as usize, delta, p as usize);
                    on_set(cu, delta);
                }
            }
        }
    }

    /// Candidate `c`'s cheapest insertion into `inc`'s current tour as
    /// `(delta, pos)`, from its banked row: bit-identical to a fresh
    /// `cheapest_insertion_point` scan, position included.
    pub(crate) fn cheapest_insertion(&mut self, c: usize, inc: &IncrementalTour) -> (f64, usize) {
        self.fill_row(c);
        let row = &self.dmat[c * self.cap..(c + 1) * self.cap];
        let (delta, pos) = cheapest_insertion_cached(row, inc.order(), inc.edge_costs());
        (delta, pos as usize)
    }

    /// Tops candidate `c`'s row up to every point column the bank holds.
    fn fill_row(&mut self, c: usize) {
        let lo = self.filled[c] as usize;
        let hi = self.cols.len();
        if lo < hi {
            let row = &mut self.dmat[c * self.cap..c * self.cap + hi];
            for (idx, slot) in row.iter_mut().enumerate().skip(lo) {
                *slot = self.cols[idx][c];
            }
            self.filled[c] = hi as u32;
        }
    }

    /// Doubles the row capacity until tour-point `id` fits, preserving
    /// row contents.
    fn grow_rows(&mut self, id: usize) {
        let m = self.xs.len();
        while id >= self.cap {
            let ncap = self.cap * 2;
            let mut nmat = vec![0.0f64; m * ncap];
            for c in 0..m {
                nmat[c * ncap..c * ncap + self.cap]
                    .copy_from_slice(&self.dmat[c * self.cap..(c + 1) * self.cap]);
            }
            self.dmat = nmat;
            self.cap = ncap;
        }
    }
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// Work breakdown for one planning run, returned by the planners'
/// `plan_prepared` entry points. Every field is a pure function of the
/// planner's inputs; wall time lives in the recorder's `setup` and
/// `loop` spans instead, timed by the recorder's injected clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Engine that produced the plan.
    pub engine: EngineMode,
    /// Work counters (candidate counts are planner-specific: grid
    /// candidates for Algorithms 2/3, initial tour stops for the
    /// benchmark heuristic).
    pub counters: EvalCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tourutil::cheapest_insertion_point;
    use uavdc_net::units::Meters;

    #[test]
    fn dirty_candidates_unions_the_transpose() {
        let cs = CandidateSet::from_coverage(
            1.0,
            Meters(1.0),
            [
                (Point2::new(0.0, 0.0), vec![0, 2]),
                (Point2::new(1.0, 0.0), vec![1]),
                (Point2::new(2.0, 0.0), vec![0, 1]),
            ],
        );
        let mut stamp = vec![0u32; 3];
        let mut out = Vec::new();
        dirty_candidates(&cs, [0, 1], &mut stamp, 1, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        dirty_candidates(&cs, [2], &mut stamp, 2, &mut out);
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
        // cache repaired by `apply_insertion_cols` (fresh distances) must
        // match a fresh cheapest_insertion_point scan bit for bit, and a
        // `DistanceBank` driven in lockstep (banked distances, banked-row
        // rescans) must make the same decisions to the same values.
        let cands: Vec<Point2> = (0..40)
            .map(|i| Point2::new(((i * 37) % 101) as f64, ((i * 53) % 97) as f64))
            .collect();
        let inserts: Vec<Point2> = (0..12)
            .map(|i| Point2::new(((i * 61 + 13) % 89) as f64, ((i * 29 + 7) % 83) as f64))
            .collect();
        let depot = Point2::new(50.0, 50.0);
        let mut tour = vec![depot];
        let mut cache = InsertionCache::new(cands.len());
        for (c, &p) in cands.iter().enumerate() {
            let (d, pos) = cheapest_insertion_point(&tour, p);
            cache.set(c, d, pos);
        }
        let set =
            CandidateSet::from_coverage(1.0, Meters(1.0), cands.iter().map(|&p| (p, [0u32; 0])));
        let mut bank = DistanceBank::new(&set, depot);
        let mut banked = InsertionCache::new(cands.len());
        for c in 0..cands.len() {
            banked.set(c, 2.0 * bank.depot_dist(c), 1);
        }
        assert_eq!(bank.pos(3), (cands[3].x, cands[3].y));
        let mut inc = IncrementalTour::new(
            (depot.x, depot.y),
            uavdc_graph::incremental::RetourPolicy::PatchOnly,
        );
        for &p in &inserts {
            let (_, ins_pos) = cheapest_insertion_point(&tour, p);
            tour.insert(ins_pos, p);
            let id = inc.append_point((p.x, p.y));
            inc.insert_id_at(id, ins_pos);
            let a = tour[ins_pos - 1];
            let b = tour[(ins_pos + 1) % tour.len()];
            let mut fixes = Vec::new();
            for (c, &cp) in cands.iter().enumerate() {
                let d = RepairDists {
                    d_a: a.distance(cp),
                    d_p: p.distance(cp),
                    d_b: b.distance(cp),
                    e_ap: a.distance(p),
                    e_pb: p.distance(b),
                };
                let fix = cache.apply_insertion_cols(c, d, ins_pos);
                fixes.push(fix);
                if fix == Fixup::Invalidated {
                    let (d, pos) = cheapest_insertion_point(&tour, cp);
                    cache.set(c, d, pos);
                }
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
            let mut rescan = Vec::new();
            let mut bank_fixes = Vec::new();
            bank.insert_point(
                &inc,
                ins_pos,
                &mut banked,
                |_| true,
                |c, fix| {
                    bank_fixes.push(fix);
                    if fix == Fixup::Invalidated {
                        rescan.push(c as u32);
                    }
                },
            );
            assert_eq!(bank_fixes, fixes, "banked repair took other decisions");
            bank.rescan(&rescan, &inc, &mut banked, |_, _| {});
            for c in 0..cands.len() {
                assert_eq!(banked.get(c), cache.get(c), "banked repair diverged at {c}");
            }
            // A banked-row rescan of everything equals fresh scans,
            // positions included.
            let all: Vec<u32> = (0..cands.len() as u32).collect();
            let mut fresh = InsertionCache::new(cands.len());
            bank.rescan(&all, &inc, &mut fresh, |_, _| {});
            for (c, &cp) in cands.iter().enumerate() {
                let (want, want_pos) = cheapest_insertion_point(&tour, cp);
                let (got, got_pos) = fresh.get(c).unwrap();
                assert_eq!((got.to_bits(), got_pos), (want.to_bits(), want_pos));
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
}
