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
//!   under tour mutation, each with its argmin edge named by a stable tour
//!   point id. Inserting a point splits one tour edge in two; every live
//!   entry is repaired in O(1) (min against the two new edges), and an
//!   entry whose argmin edge was the split one is re-derived in O(1) by
//!   the split rule when a new edge is strictly cheaper, by a full rescan
//!   otherwise. 2-opt compaction rescans wholesale, and only when it
//!   actually changed the tour.
//! * `DistanceBank` — the candidate → tour-point distances those repairs
//!   and rescans read, computed once per tour point as one vectorised
//!   column and shared by the lazy loops of Algorithms 2 and 3, so a
//!   repair costs no square root and a rescan reads one banked row.
//! * [`LazyHeap`] — a CELF-style indexed max-heap of cached ρ values, one
//!   entry per candidate. The planner re-pushes whenever a candidate's
//!   cache changes, which re-keys its entry in place, so every entry is
//!   exact; selection pops the top, asks the planner for the candidate's
//!   *feasible* value (which may decay the entry, CELF-style, when the
//!   battery rules out its best variant), parks candidates that cannot
//!   fit until slack reappears, and resolves near-ties with the same
//!   `1e-15` band + lowest-candidate-index fold the exhaustive serial
//!   scan uses.
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

#![expect(
    clippy::indexing_slicing,
    reason = "indexes heap slots and candidate ids it built itself; `lazy_heap_props` and `lazy_equivalence` check it"
)]

use crate::candidates::CandidateSet;
use uavdc_geom::{from_total_key, total_key, Point2};
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

/// Epoch-stamped membership push: `touched` accumulates each candidate at
/// most once per `epoch`, so no sort+dedup pass is needed. Heap pushes then
/// happen in discovery order rather than ascending candidate order —
/// harmless, because the [`LazyHeap`] holds one entry per candidate under
/// distinct keys, so its pop sequence depends only on the *set* of
/// entries, never on push order.
pub(crate) fn touch(stamp: &mut [u32], epoch: u32, touched: &mut Vec<u32>, c: u32) {
    if stamp[c as usize] != epoch {
        stamp[c as usize] = epoch;
        touched.push(c);
    }
}

// ---------------------------------------------------------------------------
// Exact incremental cheapest-insertion cache
// ---------------------------------------------------------------------------

/// Outcome of the O(1) per-entry repair after a tour insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fixup {
    /// Cached delta unchanged (its edge survived and neither new edge is
    /// cheaper).
    Unchanged,
    /// Cached delta improved via one of the two new edges (ρ may grow —
    /// the planner must refresh the candidate's heap entry).
    Improved,
    /// The cached argmin edge was the one the insertion split, and one of
    /// the two new edges is strictly cheaper than the old minimum: the
    /// entry now holds exactly what a fresh scan returns, edge included
    /// (the split rule, see [`InsertionCache::repair`]). Like
    /// [`Fixup::Invalidated`], a re-derivation of a destroyed argmin.
    Resolved,
    /// The cached argmin edge was split and neither new edge beats the
    /// old minimum; the candidate needs a full rescan before its next
    /// evaluation.
    Invalidated,
}

/// `edge` value of an entry that awaits a rescan.
const NO_EDGE: u32 = u32::MAX;
/// `live_at` value of a retired entry.
const NOT_LIVE: u32 = u32::MAX;

/// Cached cheapest-insertion evaluations, maintained *exactly* across
/// tour insertions.
///
/// For each candidate we store the cheapest-insertion delta into the
/// current tour and the edge that achieved it, named by the stable
/// [`IncrementalTour`] id of its start point (the edge runs from that
/// point to its tour successor). Inserting point `p` after point `a`
/// splits the one edge named `a` into `(a, p)` and `(p, b)`, and no other
/// edge changes its name or its length, so nothing needs shifting. An
/// entry whose edge survived takes the min against the two new edges; an
/// entry whose edge was split is re-derived by the split rule or, failing
/// that, by a rescan. The cached *value* always equals a fresh full
/// scan's value; the cached *edge* may be a different edge of equal
/// delta, which is irrelevant because planners recompute the canonical
/// position for the single winning candidate at commit time.
///
/// Only *live* entries are repaired: the planner [`retire`]s a candidate
/// once its cache can no longer be read (deactivated, or on the tour in
/// Algorithm 3). The live entries sit in a dense list in no particular
/// order, so a repair pass visits them and nothing else.
///
/// [`retire`]: InsertionCache::retire
#[derive(Clone, Debug)]
pub struct InsertionCache {
    delta: Vec<f64>,
    /// Start point id of the argmin edge, or [`NO_EDGE`].
    edge: Vec<u32>,
    /// Live candidates, unordered.
    live: Vec<u32>,
    /// Per candidate: its index in `live`, or [`NOT_LIVE`].
    live_at: Vec<u32>,
}

impl InsertionCache {
    /// A cache for `m` candidates, all live and all awaiting a first
    /// evaluation.
    pub fn new(m: usize) -> Self {
        assert!(m < NOT_LIVE as usize, "too many candidates for the cache");
        InsertionCache {
            delta: vec![0.0; m],
            edge: vec![NO_EDGE; m],
            live: (0..m as u32).collect(),
            live_at: (0..m as u32).collect(),
        }
    }

    /// The cached delta; `None` when the entry awaits a rescan.
    #[inline]
    pub fn get(&self, c: usize) -> Option<f64> {
        (self.edge[c] != NO_EDGE).then(|| self.delta[c])
    }

    /// The cached `(delta, edge)`, the edge named by its start point id;
    /// `None` when the entry awaits a rescan.
    #[cfg(test)]
    fn entry(&self, c: usize) -> Option<(f64, u32)> {
        (self.edge[c] != NO_EDGE).then(|| (self.delta[c], self.edge[c]))
    }

    /// Stores a freshly computed evaluation: `delta` through the edge
    /// starting at tour point `edge`.
    #[inline]
    pub fn set(&mut self, c: usize, delta: f64, edge: u32) {
        self.delta[c] = delta;
        self.edge[c] = edge;
    }

    /// The live candidates, in no particular order.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// Stops repairing candidate `c` (idempotent): the planner calls this
    /// when the candidate is deactivated or joins the tour, after which
    /// its entry is never read again.
    pub fn retire(&mut self, c: usize) {
        let i = self.live_at[c];
        if i == NOT_LIVE {
            return;
        }
        self.live_at[c] = NOT_LIVE;
        if let Some(last) = self.live.pop() {
            if last as usize != c {
                self.live[i as usize] = last;
                self.live_at[last as usize] = i;
            }
        }
    }

    /// Repairs entry `c` after point `p` was inserted after point `a`,
    /// from the five distances around the splice. O(1).
    ///
    /// With `Δ_ap = (d_a + d_p) − e_ap` and `Δ_pb = (d_p + d_b) − e_pb`
    /// (the scan's operands in the scan's association):
    ///
    /// * an entry whose edge survived takes the min against `Δ_ap`, then
    ///   `Δ_pb`, each replacing only on a strict `<`;
    /// * an entry whose edge was the split one (`edge == a`) applies the
    ///   *split rule*. Its old delta `δ` was the minimum over the old
    ///   edges, and every surviving edge keeps its delta bit for bit. So
    ///   if `m = min(Δ_ap, Δ_pb) < δ` strictly, `m` is below every
    ///   surviving edge and is the new minimum, first reached at `(a, p)`
    ///   when `Δ_ap ≤ Δ_pb` and at `(p, b)` otherwise — exactly the
    ///   first-strict scan's answer ([`Fixup::Resolved`]). Otherwise a
    ///   surviving edge may hold the minimum and the entry is
    ///   invalidated for a rescan.
    ///
    /// The in-module repair property checks every outcome against the
    /// position-keyed repair and a fresh scan bit for bit.
    #[inline]
    pub fn repair(&mut self, c: usize, d: RepairDists, a: u32, p: u32) -> Fixup {
        let delta_a = d.d_a + d.d_p - d.e_ap;
        let delta_b = d.d_p + d.d_b - d.e_pb;
        let edge = self.edge[c];
        if edge == a {
            let (m, e) = if delta_a <= delta_b {
                (delta_a, a)
            } else {
                (delta_b, p)
            };
            if m < self.delta[c] {
                self.set(c, m, e);
                return Fixup::Resolved;
            }
            self.edge[c] = NO_EDGE;
            return Fixup::Invalidated;
        }
        if edge == NO_EDGE {
            return Fixup::Invalidated;
        }
        let mut out = Fixup::Unchanged;
        if delta_a < self.delta[c] {
            self.set(c, delta_a, a);
            out = Fixup::Improved;
        }
        if delta_b < self.delta[c] {
            self.set(c, delta_b, p);
            out = Fixup::Improved;
        }
        out
    }
}

/// Distance bundle feeding [`InsertionCache::repair`]: the candidate's
/// distances to the three tour points around an insertion (predecessor
/// `a`, inserted point `p`, successor `b`), plus the two new tour edges.
/// Every field must be bit-identical to the `Point2::distance` value of
/// the same pair.
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
/// exactly what [`InsertionCache::repair`] on fresh distances and
/// `cheapest_insertion_point` would.
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
    /// delta of every live entry of `ins` ([`InsertionCache::repair`]),
    /// reporting each outcome to `on_fix`. The three candidate distances
    /// come from the bank and the two new edges from `inc`'s edge cache.
    // Inlined, like `rescan`, so the closure fuses into the caller's
    // loop; out of line, Alg 2's loop ran ~5% slower on a 2-vCPU VM.
    #[inline]
    pub(crate) fn insert_point(
        &mut self,
        inc: &IncrementalTour,
        pos: usize,
        ins: &mut InsertionCache,
        mut on_fix: impl FnMut(u32, Fixup),
    ) {
        let order = inc.order();
        let ln = order.len();
        let id = order[pos];
        debug_assert_eq!(id, self.cols.len(), "bank columns must follow tour ids");
        self.grow_rows(id);
        let (px, py) = inc.point(id);
        let mut col = Vec::new();
        distances_to_point(&self.xs, &self.ys, px, py, &mut col);
        let a = order[pos - 1];
        let bank_a = &self.cols[a];
        let bank_b = &self.cols[order[(pos + 1) % ln]];
        let e_ap = inc.edge_costs()[pos - 1];
        let e_pb = inc.edge_costs()[pos];
        for k in 0..ins.live.len() {
            let cu = ins.live[k];
            let c = cu as usize;
            let d = RepairDists {
                d_a: bank_a[c],
                d_p: col[c],
                d_b: bank_b[c],
                e_ap,
                e_pb,
            };
            on_fix(cu, ins.repair(c, d, a as u32, id as u32));
        }
        self.cols.push(col);
    }

    /// Rescans the cheapest insertion of every candidate in `batch`
    /// against `inc`'s current tour from the banked rows, four lanes at a
    /// time ([`cheapest_insertion_cached4`]), storing each result in
    /// `ins` (its edge named by its start point) and reporting
    /// `(candidate, delta)` to `on_set` in batch order. Pure table
    /// arithmetic: no square roots.
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
        let mut store = |cu: u32, (delta, p): (f64, u32)| {
            ins.set(cu as usize, delta, order[p as usize - 1] as u32);
            on_set(cu, delta);
        };
        for ch in batch.chunks(4) {
            if let &[c0, c1, c2, c3] = ch {
                let out =
                    cheapest_insertion_cached4([row(c0), row(c1), row(c2), row(c3)], order, elen);
                for (&cu, &hit) in ch.iter().zip(&out) {
                    store(cu, hit);
                }
            } else {
                for &cu in ch {
                    store(cu, cheapest_insertion_cached(row(cu), order, elen));
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

/// Heap entry packed into one `u128` key: max by ratio (via
/// [`total_key`]), then min by candidate index (`!cand`: ties at bit-equal
/// ratio resolve to the lower index, like the serial fold). Packing turns
/// the lexicographic comparison into a single integer compare, and each
/// candidate has at most one entry, so the keys in the heap are distinct.
#[inline]
fn pack_entry(ratio: f64, cand: u32) -> u128 {
    ((total_key(ratio) as u128) << 64) | (!cand) as u128
}

#[inline]
fn entry_ratio(key: u128) -> f64 {
    from_total_key((key >> 64) as u64)
}

#[inline]
fn entry_cand(key: u128) -> u32 {
    !(key as u32)
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

/// `slot` value of a candidate with no entry in the heap or the parked
/// list (never pushed, dropped as inactive, or out in a cohort).
const ABSENT: u32 = u32::MAX;
/// `slot` tag of a parked entry: `PARKED | i` names `parked[i]`.
const PARKED: u32 = 1 << 31;

/// Indexed lazy max-heap over cached candidate ratios: at most one entry
/// per candidate, so it never holds more than `m` entries.
///
/// A [`push`](LazyHeap::push) re-keys the candidate's entry in place (or
/// takes a parked one back into contention), so every entry in the heap
/// is live. The planner guarantees that at selection time the entry of
/// every unparked, active candidate carries a ratio `>=` its true current
/// value (exact for Algorithm 2; an upper bound that [`Probe::Feasible`]
/// decays for Algorithm 3's battery-filtered virtual stops).
///
/// The heap counts every entry it takes in: pushes, CELF re-queues,
/// cohort losers returned, and every parked entry at
/// [`unpark_all`](LazyHeap::unpark_all), including one a push superseded
/// while it was parked. That is the number of entries a heap that keeps
/// superseded copies pops when selection runs to exhaustion, so the
/// frozen [`EvalCounters::heap_pops`] totals do not change
/// (`tests/lazy_heap_props.rs` keeps that heap as the oracle).
pub struct LazyHeap {
    /// Binary max-heap of packed `(ratio, !cand)` keys.
    heap: Vec<u128>,
    /// Per candidate: its entry's index in `heap`, `PARKED | i` when its
    /// entry is `parked[i]`, or [`ABSENT`].
    slot: Vec<u32>,
    /// Entries parked as infeasible, in parking order. A push while
    /// parked moves the candidate back into `heap`; its parked entry
    /// stays here, superseded, until [`unpark_all`](LazyHeap::unpark_all)
    /// counts and drops it.
    parked: Vec<u128>,
    /// Entries taken in since the last [`take_entries`](LazyHeap::take_entries).
    entries: u64,
}

impl LazyHeap {
    /// An empty heap over `m` candidates.
    pub fn new(m: usize) -> Self {
        assert!(
            m < PARKED as usize,
            "too many candidates for the heap index"
        );
        LazyHeap {
            heap: Vec::with_capacity(m),
            slot: vec![ABSENT; m],
            parked: Vec::new(),
            entries: 0,
        }
    }

    /// Publishes candidate `c`'s current cached ratio, superseding any
    /// previous entry for `c`.
    pub fn push(&mut self, c: usize, ratio: f64) {
        self.entries += 1;
        let key = pack_entry(ratio, c as u32);
        let s = self.slot[c];
        if s & PARKED == 0 {
            let i = s as usize;
            let old = std::mem::replace(&mut self.heap[i], key);
            if key > old {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        } else {
            self.insert(key);
        }
    }

    /// Returns parked candidates to contention (call when battery slack
    /// grew, e.g. after a tour compaction shortened the tour). A parked
    /// entry that a push superseded is counted and dropped.
    pub fn unpark_all(&mut self) {
        let mut parked = std::mem::take(&mut self.parked);
        self.entries += parked.len() as u64;
        for (i, &e) in parked.iter().enumerate() {
            if self.slot[entry_cand(e) as usize] == PARKED | i as u32 {
                self.insert(e);
            }
        }
        parked.clear();
        self.parked = parked;
    }

    /// Number of entries parked as infeasible, superseded ones included.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Returns and resets the count of entries taken in since the last
    /// call: the increment of [`EvalCounters::heap_pops`].
    pub fn take_entries(&mut self) -> u64 {
        std::mem::take(&mut self.entries)
    }

    /// Selects the candidate the exhaustive serial fold would pick:
    /// among feasible candidates, the lowest-index one that no candidate
    /// beats by more than [`RATIO_BAND`] under the fold's replacement
    /// rule. `probe(c)` reports the candidate's current feasible value
    /// (see [`Probe`]); `active(c)` filters candidates that have been
    /// deactivated since their entry was pushed, whose entries are
    /// dropped.
    ///
    /// Returns `(candidate, ratio)` or `None` when nothing is feasible;
    /// the winner leaves the heap.
    pub fn select(
        &mut self,
        mut active: impl FnMut(usize) -> bool,
        mut probe: impl FnMut(usize) -> Probe,
    ) -> Option<(usize, f64)> {
        // Cohort of feasible candidates within the tie band of each
        // other; folded in candidate order below.
        let mut cohort: Vec<(f64, u32)> = Vec::new();
        let mut cohort_min = f64::INFINITY;
        while let Some(&top) = self.heap.first() {
            if !cohort.is_empty() && entry_ratio(top) < cohort_min - RATIO_BAND {
                break;
            }
            self.pop_top();
            let c = entry_cand(top);
            if !active(c as usize) {
                continue; // deactivated: the entry is dropped
            }
            match probe(c as usize) {
                Probe::Infeasible => {
                    self.slot[c as usize] = PARKED | self.parked.len() as u32;
                    self.parked.push(top);
                }
                Probe::Feasible(v) => {
                    if v >= entry_ratio(top) {
                        // Exact entry: joins the cohort directly.
                        cohort_min = cohort_min.min(v);
                        cohort.push((v, c));
                    } else {
                        // CELF decay: the feasible value is below the
                        // cached bound; re-queue at its true value so it
                        // competes in the right order.
                        self.entries += 1;
                        self.insert(pack_entry(v, c));
                    }
                }
            }
        }
        // Serial-fold tie-break over the cohort in ascending candidate
        // order: replace only on a strict RATIO_BAND improvement.
        cohort.sort_unstable_by_key(|e| e.1);
        let mut best: Option<(f64, u32)> = None;
        for &(r, c) in &cohort {
            match best {
                None => best = Some((r, c)),
                Some((br, _)) => {
                    if r > br + RATIO_BAND {
                        best = Some((r, c));
                    }
                }
            }
        }
        let (ratio, winner) = best?;
        // Losers stay current: return them to the heap unchanged.
        for &(r, c) in &cohort {
            if c != winner {
                self.entries += 1;
                self.insert(pack_entry(r, c));
            }
        }
        Some((winner as usize, ratio))
    }

    /// Adds `key` for a candidate that has no entry in the heap.
    fn insert(&mut self, key: u128) {
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes the top entry, marking its candidate [`ABSENT`].
    fn pop_top(&mut self) {
        let Some(last) = self.heap.pop() else {
            return;
        };
        if let Some(top) = self.heap.first_mut() {
            let gone = std::mem::replace(top, last);
            self.slot[entry_cand(gone) as usize] = ABSENT;
            self.sift_down(0);
        } else {
            self.slot[entry_cand(last) as usize] = ABSENT;
        }
    }

    /// Moves the entry at `i` up until its parent is larger.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 2;
            let pk = self.heap[p];
            if pk > key {
                break;
            }
            self.heap[i] = pk;
            self.slot[entry_cand(pk) as usize] = i as u32;
            i = p;
        }
        self.heap[i] = key;
        self.slot[entry_cand(key) as usize] = i as u32;
    }

    /// Moves the entry at `i` down until both children are smaller.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let key = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r] > self.heap[l] {
                r
            } else {
                l
            };
            let ck = self.heap[child];
            if key > ck {
                break;
            }
            self.heap[i] = ck;
            self.slot[entry_cand(ck) as usize] = i as u32;
            i = child;
        }
        self.heap[i] = key;
        self.slot[entry_cand(key) as usize] = i as u32;
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
    /// Cheapest-insertion re-derivations: entries whose cached argmin
    /// edge a tour insertion split (still active once the iteration's
    /// marginal refresh is done), plus every active entry after a tour
    /// compaction that changed the tour. A split entry is settled by the
    /// O(1) split rule ([`Fixup::Resolved`]) or by a full banked-row scan
    /// ([`Fixup::Invalidated`]); both count here, so the value is the
    /// number of full rescans the engine made before the split rule
    /// existed.
    pub delta_rescans: u64,
    /// O(1) insertion-cache repairs performed: one per live entry
    /// ([`InsertionCache::live`]) per tour insertion, split entries
    /// included.
    pub fixups: u64,
    /// Entries the [`LazyHeap`] took in: pushes, CELF re-queues, cohort
    /// losers returned, and parked entries at each unpark (superseded
    /// ones included). A heap that keeps superseded copies pops exactly
    /// these entries when selection runs to exhaustion, which is Alg 2's
    /// only exit and how every committed run ends. Alg 3's iteration cap
    /// and zero-gain exit leave entries in the heap; they are counted
    /// too.
    pub heap_pops: u64,
    /// Incremental tour patches applied (insertion splices plus local
    /// compactions that changed the tour). Deterministic: equal across
    /// engines because both drive the same state evolution.
    pub tour_patches: u64,
    /// Full Christofides tour rebuilds: one per PaperChristofides
    /// candidate evaluation (commits reuse the winner's), always 0 under
    /// FastInsertion.
    pub full_retours: u64,
}

impl EvalCounters {
    /// Evaluations an exhaustive rescan would have performed:
    /// `iterations × candidates`.
    pub fn exhaustive_bound(&self) -> u64 {
        self.iterations.saturating_mul(self.candidates as u64)
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
    fn packed_heap_key_orders_by_ratio_then_lower_index() {
        // `uavdc_geom::total_key` is tested as an order isomorphism of
        // `total_cmp`; the packing must keep ratio first and break
        // bit-equal ratios toward the lower candidate.
        assert!(pack_entry(1.0, 3) > pack_entry(1.0, 4));
        assert!(pack_entry(2.0, 9) > pack_entry(1.0, 0));
        assert!(pack_entry(0.0, 9) > pack_entry(-0.0, 0));
        assert_eq!(entry_cand(pack_entry(1.0, 3)), 3);
        assert_eq!(entry_cand(pack_entry(1.0, u32::MAX >> 1)), u32::MAX >> 1);
        assert_eq!(
            entry_ratio(pack_entry(-2.5, 3)).to_bits(),
            (-2.5f64).to_bits()
        );
    }

    /// The position-keyed insertion cache the edge-id cache replaced,
    /// kept as the repair property's oracle: an entry names its argmin
    /// edge by tour position, every insertion shifts the positions above
    /// it, and an entry whose edge was split is invalidated for a rescan.
    struct PositionCache {
        delta: Vec<f64>,
        pos: Vec<usize>,
        valid: Vec<bool>,
    }

    impl PositionCache {
        fn set(&mut self, c: usize, delta: f64, pos: usize) {
            self.delta[c] = delta;
            self.pos[c] = pos;
            self.valid[c] = true;
        }

        fn apply_insertion_cols(&mut self, c: usize, d: RepairDists, ins_pos: usize) -> Fixup {
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

    fn repair_cases() -> u32 {
        if cfg!(feature = "validate") {
            1100
        } else {
            64
        }
    }

    /// SplitMix64 stream for the repair property's layouts.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// One point of layout `kind`: 0 uniform, 1 integer lattice (tied
    /// deltas), 2 a few coincident sites, 3 collinear on a diagonal.
    fn layout_point(kind: u32, rng: &mut Mix) -> Point2 {
        match kind {
            0 => Point2::new(100.0 * rng.unit(), 100.0 * rng.unit()),
            1 => Point2::new(rng.below(7) as f64 * 10.0, rng.below(7) as f64 * 10.0),
            2 => {
                let sites = [(10.0, 10.0), (10.0, 60.0), (55.0, 30.0), (80.0, 80.0)];
                let (x, y) = sites[rng.below(sites.len())];
                Point2::new(x, y)
            }
            _ => {
                let t = rng.below(21) as f64 * 5.0;
                Point2::new(t, 0.5 * t + 3.0)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(repair_cases()))]
        #[test]
        fn insertion_cache_repair_matches_position_keyed_oracle(
            kind in 0u32..4,
            seed in 0u64..u64::MAX,
        ) {
            // After every insertion (at the cheapest position or a random
            // one), the edge-id cache repaired through `DistanceBank`
            // must take the oracle's decision per live entry (`Resolved`
            // standing for the oracle's `Invalidated`), re-derive the
            // same set, hold bit-equal deltas, and hold for every
            // re-derived entry exactly a fresh first-strict scan's
            // `(delta, edge)`. Random retirements exercise the live list.
            let mut rng = Mix(seed);
            let m = 1 + rng.below(48);
            let cands: Vec<Point2> = (0..m).map(|_| layout_point(kind, &mut rng)).collect();
            let inserts: Vec<Point2> = (0..1 + rng.below(24))
                .map(|_| layout_point(kind, &mut rng))
                .collect();
            let depot = layout_point(kind, &mut rng);
            let rows = cands.iter().map(|&p| (p, [0u32; 0]));
            let set = CandidateSet::from_coverage(1.0, Meters(1.0), rows);
            let mut bank = DistanceBank::new(&set, depot);
            assert_eq!(bank.pos(m - 1), (cands[m - 1].x, cands[m - 1].y));
            let mut ins = InsertionCache::new(m);
            let mut oracle = PositionCache {
                delta: vec![0.0; m],
                pos: vec![0; m],
                valid: vec![false; m],
            };
            for (c, &cp) in cands.iter().enumerate() {
                let delta = 2.0 * bank.depot_dist(c);
                let (want, _) = cheapest_insertion_point(&[depot], cp);
                assert_eq!(delta.to_bits(), want.to_bits());
                ins.set(c, delta, 0);
                oracle.set(c, delta, 1);
            }
            let mut live = vec![true; m];
            let mut tour = vec![depot];
            let mut inc = IncrementalTour::new((depot.x, depot.y));
            for &p in &inserts {
                if rng.below(4) == 0 {
                    let c = rng.below(m);
                    live[c] = false;
                    ins.retire(c);
                    ins.retire(c); // idempotent
                }
                let ins_pos = if rng.below(2) == 0 {
                    cheapest_insertion_point(&tour, p).1
                } else {
                    1 + rng.below(tour.len())
                };
                tour.insert(ins_pos, p);
                let id = inc.append_point((p.x, p.y));
                inc.insert_id_at(id, ins_pos);

                let mut got = vec![None; m];
                let mut fixups = 0;
                let mut rescan = Vec::new();
                bank.insert_point(&inc, ins_pos, &mut ins, |c, fix| {
                    fixups += 1;
                    got[c as usize] = Some(fix);
                    if fix == Fixup::Invalidated {
                        rescan.push(c);
                    }
                });
                let live_now = live.iter().filter(|&&l| l).count();
                assert_eq!(fixups, live_now, "one repair per live entry");
                bank.rescan(&rescan, &inc, &mut ins, |_, _| {});

                let a = tour[ins_pos - 1];
                let b = tour[(ins_pos + 1) % tour.len()];
                for (c, &cp) in cands.iter().enumerate() {
                    if !live[c] {
                        assert_eq!(got[c], None, "retired entry {c} was repaired");
                        continue;
                    }
                    let d = RepairDists {
                        d_a: a.distance(cp),
                        d_p: p.distance(cp),
                        d_b: b.distance(cp),
                        e_ap: a.distance(p),
                        e_pb: p.distance(b),
                    };
                    let want = oracle.apply_insertion_cols(c, d, ins_pos);
                    let fix = got[c].expect("live entry repaired");
                    let class = if fix == Fixup::Resolved { Fixup::Invalidated } else { fix };
                    assert_eq!(class, want, "candidate {c}: other repair decision");
                    let (fresh, fresh_pos) = cheapest_insertion_point(&tour, cp);
                    if want == Fixup::Invalidated {
                        oracle.set(c, fresh, fresh_pos);
                        // Re-derived, by the split rule or a rescan: the
                        // fresh scan's value and canonical edge.
                        let edge = inc.order()[fresh_pos - 1] as u32;
                        assert_eq!(
                            ins.entry(c).map(|(v, e)| (v.to_bits(), e)),
                            Some((fresh.to_bits(), edge)),
                            "candidate {c}: re-derived entry is not the fresh scan's"
                        );
                    }
                    let (delta, edge) = ins.entry(c).expect("live entry valid");
                    assert_eq!(delta.to_bits(), oracle.delta[c].to_bits(), "candidate {c} delta");
                    assert_eq!(delta.to_bits(), fresh.to_bits(), "candidate {c} delta vs scan");
                    // The cached edge is a real tour edge achieving the
                    // cached delta (not necessarily the canonical one).
                    let k = inc.order().iter().position(|&o| o as u32 == edge);
                    let k = k.expect("cached edge starts at a tour point");
                    let (ta, tb) = (tour[k], tour[(k + 1) % tour.len()]);
                    let via = ta.distance(cp) + cp.distance(tb) - ta.distance(tb);
                    assert_eq!(via.to_bits(), delta.to_bits(), "candidate {c} edge");
                }
            }
            // A banked-row rescan of everything equals fresh scans,
            // edges included, and every candidate has its winner position.
            let all: Vec<u32> = (0..m as u32).collect();
            let mut fresh = InsertionCache::new(m);
            bank.rescan(&all, &inc, &mut fresh, |_, _| {});
            for (c, &cp) in cands.iter().enumerate() {
                let (want, want_pos) = cheapest_insertion_point(&tour, cp);
                let edge = inc.order()[want_pos - 1] as u32;
                let got = fresh.entry(c).map(|(v, e)| (v.to_bits(), e));
                assert_eq!(got, Some((want.to_bits(), edge)));
                let (got, got_pos) = bank.cheapest_insertion(c, &inc);
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
        let got = h.select(|_| true, |c| Probe::Feasible([7.0, 7.0, 5.0, 1.0][c]));
        // Bit-equal ratios: lowest index wins.
        assert_eq!(got, Some((0, 7.0)));
    }

    #[test]
    fn lazy_heap_discards_superseded_entries() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(0, 3.0); // supersedes the 9.0 entry, in place
        h.push(1, 5.0);
        assert_eq!(h.heap.len(), 2, "one entry per candidate");
        let got = h.select(|_| true, |c| Probe::Feasible([3.0, 5.0][c]));
        assert_eq!(got, Some((1, 5.0)));
        // Three pushes; 0 stays queued below the cohort.
        assert_eq!(h.take_entries(), 3);
        assert_eq!(h.take_entries(), 0);
    }

    #[test]
    fn lazy_heap_parks_infeasible_until_unparked() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 5.0);
        let got = h.select(
            |_| true,
            |c| {
                if c == 0 {
                    Probe::Infeasible
                } else {
                    Probe::Feasible(5.0)
                }
            },
        );
        assert_eq!(got, Some((1, 5.0)));
        assert_eq!(h.parked_len(), 1);
        // Candidate 0 is out of contention until slack returns.
        let got = h.select(|_| true, |_| Probe::Feasible(9.0));
        assert_eq!(got, None);
        h.unpark_all();
        let got = h.select(|_| true, |_| Probe::Feasible(9.0));
        assert_eq!(got, Some((0, 9.0)));
    }

    #[test]
    fn lazy_heap_unpark_skips_entries_a_push_superseded() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        assert_eq!(h.select(|_| true, |_| Probe::Infeasible), None);
        // Re-pushed while parked: the parked 9.0 entry is superseded.
        h.push(0, 4.0);
        h.push(1, 5.0);
        h.unpark_all();
        assert_eq!(h.parked_len(), 0);
        assert_eq!(h.heap.len(), 2);
        let got = h.select(|_| true, |c| Probe::Feasible([4.0, 5.0][c]));
        assert_eq!(got, Some((1, 5.0)));
        // Three pushes and the superseded parked entry; 0 stays queued.
        assert_eq!(h.take_entries(), 4);
    }

    #[test]
    fn lazy_heap_decays_upper_bounds() {
        // Candidate 0's bound is 9 but its feasible value is 2; candidate
        // 1's exact 5 must win.
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 5.0);
        let got = h.select(
            |_| true,
            |c| Probe::Feasible(if c == 0 { 2.0 } else { 5.0 }),
        );
        assert_eq!(got, Some((1, 5.0)));
        // The decayed entry remains selectable at its true value.
        let got = h.select(|_| true, |_| Probe::Feasible(2.0));
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
    }
}
