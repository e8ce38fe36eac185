//! Dependency-free instrumentation for the uavdc workspace: hierarchical
//! spans, named counters, and log2-bucketed histograms behind a
//! [`Recorder`] trait.
//!
//! The default recorder is [`NoopRecorder`]: every hook is an empty
//! default method on the trait, so an uninstrumented run and a run
//! through the no-op path execute the same arithmetic in the same order —
//! plans and evaluation counts are bit-identical (property-tested in
//! `uavdc-core`). The [`CollectingRecorder`] aggregates everything behind
//! one mutex and is `Sync`, so threads planning separate requests can
//! share it by reference.
//!
//! Time never enters the recorder implicitly: span durations come from a
//! [`Clock`] injected at construction. Production uses [`MonotonicClock`]
//! (a `std::time::Instant` anchor); replays and tests use [`ManualClock`]
//! so recorded timings are deterministic. Timings therefore *never* feed
//! back into planning decisions — the recorder is write-only from the
//! planner's point of view.
//!
//! A finished run renders to a [`RunReport`]: spans aggregated by path
//! (children sorted by name), counters and histograms sorted by name,
//! serialised by [`RunReport::to_json`] with a stable field order so the
//! bench artifacts diff cleanly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Monotonic time source injected into a [`CollectingRecorder`].
///
/// Implementations must be monotonic per instance; absolute epoch is
/// irrelevant because only span differences are reported.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since an arbitrary per-instance origin.
    fn now_ns(&self) -> u64;
}

/// Wall clock: nanoseconds since construction, via `std::time::Instant`.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the library's one clock read; planners see time only through span durations"
    )]
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of run time.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic clock for replays and tests: time moves only when the
/// caller advances it.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute reading.
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Handle to an open span instance. `SpanId::NONE` is the identity of the
/// no-op path: it names no span and closing it does nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The null span: parent of root spans, result of no-op starts.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// Instrumentation sink. All methods have empty defaults, so the no-op
/// implementation is `impl Recorder for NoopRecorder {}` and calls
/// through `&dyn Recorder` reduce to an indirect call that immediately
/// returns — nothing is computed, formatted, or locked.
pub trait Recorder: Sync {
    /// Opens a span named `name` under `parent` (use [`SpanId::NONE`]
    /// for a root span). Returns the handle to close it with.
    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let _ = (name, parent);
        SpanId::NONE
    }

    /// Closes a span previously returned by
    /// [`span_start`](Recorder::span_start). Unknown or `NONE` ids are
    /// ignored.
    fn span_end(&self, id: SpanId) {
        let _ = id;
    }

    /// Adds `delta` to the named counter.
    fn add(&self, counter: &'static str, delta: u64) {
        let _ = (counter, delta);
    }

    /// Records one observation into the named log2-bucketed histogram.
    fn observe(&self, histogram: &'static str, value: u64) {
        let _ = (histogram, value);
    }
}

/// The zero-cost default recorder: records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A `&'static` no-op recorder, handy as a default argument.
pub static NOOP: NoopRecorder = NoopRecorder;

/// RAII guard that closes its span on drop. Hierarchy is explicit:
/// children are opened through [`Span::child`], never inferred from
/// thread-local state, so worker threads attribute spans correctly.
pub struct Span<'r> {
    rec: &'r dyn Recorder,
    id: SpanId,
}

impl<'r> Span<'r> {
    /// Opens a root span on `rec`.
    pub fn root(rec: &'r dyn Recorder, name: &'static str) -> Span<'r> {
        Span {
            rec,
            id: rec.span_start(name, SpanId::NONE),
        }
    }

    /// Opens a child span under this one.
    pub fn child(&self, name: &'static str) -> Span<'r> {
        Span {
            rec: self.rec,
            id: self.rec.span_start(name, self.id),
        }
    }

    /// The recorder this span reports to.
    pub fn recorder(&self) -> &'r dyn Recorder {
        self.rec
    }

    /// The underlying instance id (for handing to lower layers).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec.span_end(self.id);
    }
}

/// Number of histogram buckets: one zero bucket plus one per power of
/// two up to `2^63`.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of a value: bucket 0 holds exactly 0; bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range of a bucket. Indices ≥ 64 saturate to the
/// top bucket `[2^63, u64::MAX]`.
pub fn bucket_range(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        i if i >= 64 => (1u64 << 63, u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A log2-bucketed histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket observation counts.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }
}

/// One span node aggregated by path in a [`RunReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Slash-joined name path from the root, e.g. `"alg2/loop"`.
    pub path: String,
    /// How many span instances closed at this path.
    pub calls: u64,
    /// Total nanoseconds across those instances (per the injected clock).
    pub total_ns: u64,
}

/// One named counter in a [`RunReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram in a [`RunReport`]; only non-empty buckets are listed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramStat {
    /// Histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// `(bucket index, observation count)` for non-empty buckets, in
    /// index order.
    pub buckets: Vec<(usize, u64)>,
}

/// Aggregated result of one instrumented run, in stable order: spans in
/// depth-first path order with children sorted by name, counters and
/// histograms sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Aggregated spans.
    pub spans: Vec<SpanStat>,
    /// Counters.
    pub counters: Vec<CounterStat>,
    /// Histograms.
    pub histograms: Vec<HistogramStat>,
}

impl RunReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Value of a counter, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Renders the report as a single-line JSON object with a stable
    /// field order (sorted names, integer-only values), suitable for
    /// embedding into bench artifacts and diffing across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":{},\"calls\":{},\"total_ns\":{}}}",
                json_string(&s.path),
                s.calls,
                s.total_ns
            ));
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"value\":{}}}",
                json_string(&c.name),
                c.value
            ));
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"sum\":{},\"buckets\":[",
                json_string(&h.name),
                h.count,
                h.sum
            ));
            for (j, &(idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let (lo, hi) = bucket_range(idx);
                out.push_str(&format!(
                    "{{\"bucket\":{idx},\"lo\":{lo},\"hi\":{hi},\"count\":{n}}}"
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string as a JSON string literal. Names here are ASCII
/// identifiers, but escape defensively anyway.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A span-tree node: identity is (parent, name), so repeated instances
/// at the same path aggregate into one node.
#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    children: BTreeMap<&'static str, usize>,
    calls: u64,
    total_ns: u64,
}

/// An open span instance.
#[derive(Clone, Copy, Debug)]
struct ActiveSpan {
    node: usize,
    start_ns: u64,
}

#[derive(Debug)]
struct Inner {
    /// `nodes[0]` is the synthetic root (never reported).
    nodes: Vec<SpanNode>,
    /// Slab of open instances; freed slots are recycled via `free`.
    active: Vec<Option<ActiveSpan>>,
    free: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Thread-safe collecting recorder: one mutex guards the whole state, so
/// it can be shared by reference across threads planning separate
/// requests. Span durations come from the injected [`Clock`].
pub struct CollectingRecorder {
    clock: Box<dyn Clock>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for CollectingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectingRecorder").finish_non_exhaustive()
    }
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        CollectingRecorder::new()
    }
}

impl CollectingRecorder {
    /// A recorder timed by a fresh [`MonotonicClock`].
    pub fn new() -> Self {
        CollectingRecorder::with_clock(Box::new(MonotonicClock::new()))
    }

    /// A recorder timed by the given clock (inject a [`ManualClock`] for
    /// deterministic replays).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        CollectingRecorder {
            clock,
            inner: Mutex::new(Inner {
                nodes: vec![SpanNode {
                    name: "",
                    children: BTreeMap::new(),
                    calls: 0,
                    total_ns: 0,
                }],
                active: Vec::new(),
                free: Vec::new(),
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
        }
    }

    /// Locks the state, recovering from poisoning: a panicked worker
    /// leaves counters in a consistent (if partial) state, and the
    /// recorder must never turn an observation into a second panic.
    ///
    /// Reentrancy invariant (audited, enforced by uavdc-lint's
    /// `lock-across-spawn` rule): no caller may invoke another
    /// `locked()`-taking method while holding this guard — the Mutex is
    /// not reentrant, so a nested acquisition on the same thread
    /// deadlocks. Every caller (`report`, `span_start`, `span_end`,
    /// `add`, `observe`) only touches plain `Inner` data under the
    /// guard; clock reads happen *before* locking for the same reason.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Snapshot of everything recorded so far, in stable order.
    pub fn report(&self) -> RunReport {
        let inner = self.locked();
        let mut spans = Vec::new();
        // Depth-first over the tree; BTreeMap children iterate sorted by
        // name, so the output order is independent of insertion order
        // (and therefore of worker-thread interleaving).
        let mut stack: Vec<(usize, String)> = inner.nodes[0]
            .children
            .values()
            .rev()
            .map(|&c| (c, String::new()))
            .collect();
        while let Some((idx, prefix)) = stack.pop() {
            let node = &inner.nodes[idx];
            let path = if prefix.is_empty() {
                node.name.to_string()
            } else {
                format!("{prefix}/{}", node.name)
            };
            for &c in node.children.values().rev() {
                stack.push((c, path.clone()));
            }
            spans.push(SpanStat {
                path,
                calls: node.calls,
                total_ns: node.total_ns,
            });
        }
        // Restore depth-first pre-order: the stack emits parents before
        // children already; nothing further to do.
        let counters = inner
            .counters
            .iter()
            .map(|(&name, &value)| CounterStat {
                name: name.to_string(),
                value,
            })
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .map(|(&name, h)| HistogramStat {
                name: name.to_string(),
                count: h.count,
                sum: h.sum,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(i, &n)| (i, n))
                    .collect(),
            })
            .collect();
        RunReport {
            spans,
            counters,
            histograms,
        }
    }
}

impl Recorder for CollectingRecorder {
    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.clock.now_ns();
        let mut inner = self.locked();
        let parent_node = if parent.is_none() {
            0
        } else {
            match inner.active.get(parent.0 as usize).copied().flatten() {
                Some(a) => a.node,
                // Unknown parent (already closed): attach to the root
                // rather than dropping the observation.
                None => 0,
            }
        };
        let node = match inner.nodes[parent_node].children.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = inner.nodes.len();
                inner.nodes.push(SpanNode {
                    name,
                    children: BTreeMap::new(),
                    calls: 0,
                    total_ns: 0,
                });
                inner.nodes[parent_node].children.insert(name, idx);
                idx
            }
        };
        let slot = match inner.free.pop() {
            Some(s) => {
                inner.active[s] = Some(ActiveSpan { node, start_ns });
                s
            }
            None => {
                inner.active.push(Some(ActiveSpan { node, start_ns }));
                inner.active.len() - 1
            }
        };
        // Slab indices stay tiny (bounded by concurrently-open spans),
        // far below the u32::MAX sentinel.
        SpanId(slot as u32)
    }

    fn span_end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let end_ns = self.clock.now_ns();
        let mut inner = self.locked();
        let slot = id.0 as usize;
        if let Some(open) = inner.active.get_mut(slot).and_then(Option::take) {
            inner.free.push(slot);
            let node = &mut inner.nodes[open.node];
            node.calls += 1;
            node.total_ns += end_ns.saturating_sub(open.start_ns);
        }
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut inner = self.locked();
        *inner.counters.entry(counter).or_insert(0) += delta;
    }

    fn observe(&self, histogram: &'static str, value: u64) {
        let mut inner = self.locked();
        inner.histograms.entry(histogram).or_default().record(value);
    }
}

/// Whether the `UAVDC_OBS` environment toggle asks for collection
/// (`1`/`true`/`on`, case-insensitive). Read once per process; binaries
/// use it to decide between [`NoopRecorder`] and [`CollectingRecorder`].
/// Library code never consults it — recorders are always passed in
/// explicitly, so the toggle cannot change planning behaviour.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned UAVDC_OBS read; it picks a recorder and never reaches planning"
)]
pub fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("UAVDC_OBS") {
        Ok(v) => matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "on" | "yes"
        ),
        Err(_) => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_records_nothing_and_returns_none() {
        let r = NoopRecorder;
        let id = r.span_start("x", SpanId::NONE);
        assert!(id.is_none());
        r.span_end(id);
        r.add("c", 5);
        r.observe("h", 5);
    }

    #[test]
    fn counters_accumulate() {
        let r = CollectingRecorder::new();
        r.add("a", 2);
        r.add("a", 3);
        r.add("b", 1);
        let rep = r.report();
        assert_eq!(rep.counter("a"), 5);
        assert_eq!(rep.counter("b"), 1);
        assert_eq!(rep.counter("missing"), 0);
        assert_eq!(rep.counters.len(), 2);
    }

    #[test]
    fn spans_aggregate_by_path_with_manual_clock() {
        let clock = Box::new(ManualClock::new());
        // Keep a raw pointer-free handle by re-creating: drive through a
        // shared recorder holding the clock.
        let r = CollectingRecorder::with_clock(clock);
        // The recorder owns the clock; use zero-duration spans plus call
        // counts for determinism.
        {
            let root = Span::root(&r, "plan");
            {
                let _setup = root.child("setup");
            }
            {
                let _l = root.child("loop");
            }
            {
                let _l = root.child("loop");
            }
        }
        let rep = r.report();
        let paths: Vec<(&str, u64)> = rep
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.calls))
            .collect();
        assert_eq!(
            paths,
            vec![("plan", 1), ("plan/loop", 2), ("plan/setup", 1)]
        );
        // Manual clock never advanced: all durations are zero.
        assert!(rep.spans.iter().all(|s| s.total_ns == 0));
    }

    #[test]
    fn span_durations_follow_injected_clock() {
        struct SteppingClock(AtomicU64);
        impl Clock for SteppingClock {
            fn now_ns(&self) -> u64 {
                // Each reading advances time by 10 ns: start=10, end=20.
                self.0.fetch_add(10, Ordering::SeqCst) + 10
            }
        }
        let r = CollectingRecorder::with_clock(Box::new(SteppingClock(AtomicU64::new(0))));
        {
            let _s = Span::root(&r, "tick");
        }
        let rep = r.report();
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].total_ns, 10);
        assert_eq!(rep.spans[0].calls, 1);
    }

    #[test]
    fn recorder_methods_never_nest_the_state_lock() {
        // Regression guard for the double-lock hazard class: every
        // `locked()`-taking method is exercised back-to-back and while
        // spans are still open. If any of them ever grows a nested call
        // into another `locked()`-taking method, the non-reentrant
        // Mutex deadlocks right here and the test hangs instead of
        // passing.
        let r = CollectingRecorder::new();
        let root = r.span_start("plan", SpanId::NONE);
        r.add("visited", 1);
        r.observe("tour_len", 42);
        let child = r.span_start("greedy", root);
        // Reporting with spans still active takes the same lock the
        // open spans' bookkeeping lives under.
        let mid = r.report();
        assert_eq!(mid.counter("visited"), 1);
        r.span_end(child);
        r.span_end(root);
        let rep = r.report();
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.counter("visited"), 1);
        assert_eq!(rep.histograms.len(), 1);
    }

    #[test]
    fn ending_unknown_or_none_span_is_ignored() {
        let r = CollectingRecorder::new();
        r.span_end(SpanId::NONE);
        r.span_end(SpanId(123));
        assert!(r.report().spans.is_empty());
    }

    #[test]
    fn report_is_stable_across_insertion_order() {
        let a = CollectingRecorder::with_clock(Box::new(ManualClock::new()));
        a.add("x", 1);
        a.add("y", 2);
        let b = CollectingRecorder::with_clock(Box::new(ManualClock::new()));
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a.report(), b.report());
        assert_eq!(a.report().to_json(), b.report().to_json());
    }

    #[test]
    fn json_shape_is_stable() {
        let r = CollectingRecorder::with_clock(Box::new(ManualClock::new()));
        r.add("evals", 3);
        r.observe("pops", 0);
        r.observe("pops", 5);
        {
            let _s = Span::root(&r, "plan");
        }
        let json = r.report().to_json();
        let expected = concat!(
            "{\"spans\":[{\"path\":\"plan\",\"calls\":1,\"total_ns\":0}],",
            "\"counters\":[{\"name\":\"evals\",\"value\":3}],",
            "\"histograms\":[{\"name\":\"pops\",\"count\":2,\"sum\":5,\"buckets\":[",
            "{\"bucket\":0,\"lo\":0,\"hi\":0,\"count\":1},",
            "{\"bucket\":3,\"lo\":4,\"hi\":7,\"count\":1}]}]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn json_escapes_are_valid() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = CollectingRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        r.add("hits", 1);
                        r.observe("v", 7);
                    }
                });
            }
        });
        let rep = r.report();
        assert_eq!(rep.counter("hits"), 400);
        assert_eq!(rep.histograms[0].count, 400);
    }

    #[test]
    fn env_toggle_defaults_off() {
        // The variable is unset in the test environment; the cached
        // answer must be `false` (and never panic).
        let _ = env_enabled();
    }
}
