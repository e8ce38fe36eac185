//! Dependency-free instrumentation for the uavdc workspace: hierarchical
//! spans and named counters behind a [`Recorder`] trait.
//!
//! The default recorder is [`NoopRecorder`]: every hook is an empty
//! default method on the trait, so an uninstrumented run and a run
//! through the no-op path execute the same arithmetic in the same order —
//! plans and evaluation counts are bit-identical (property-tested in
//! `uavdc-core`). The [`CollectingRecorder`] aggregates everything in one
//! `RefCell` and is deliberately not `Sync`: a recorder belongs to the
//! thread driving one request, so there is no lock to guard.
//!
//! Time never enters the recorder implicitly: span durations come from a
//! [`Clock`] injected at construction. Production uses [`MonotonicClock`]
//! (a `std::time::Instant` anchor); tests use [`ManualClock`], frozen at
//! zero, so recorded reports are deterministic. Timings therefore
//! *never* feed back into planning decisions — the recorder is
//! write-only from the planner's point of view.
//!
//! A finished run renders to a [`RunReport`]: spans aggregated by path
//! (children sorted by name) and counters sorted by name, so two reports
//! compare with `==`.

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

use std::cell::RefCell;
use std::collections::BTreeMap;
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

/// Deterministic clock for tests: frozen at zero, so every span lasts
/// 0 ns.
#[derive(Debug, Default)]
pub struct ManualClock;

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        ManualClock
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        0
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
pub trait Recorder {
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
}

/// The zero-cost default recorder: records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A `&'static` no-op recorder, handy as a default argument.
pub static NOOP: NoopRecorder = NoopRecorder;

/// RAII guard that closes its span on drop. Hierarchy is explicit:
/// children are opened through [`Span::child`], never inferred from
/// thread-local state.
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
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec.span_end(self.id);
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

/// Aggregated result of one instrumented run, in stable order: spans in
/// depth-first path order with children sorted by name, counters sorted
/// by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Aggregated spans.
    pub spans: Vec<SpanStat>,
    /// Counters.
    pub counters: Vec<CounterStat>,
}

impl RunReport {
    /// Value of a counter, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
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
}

/// Single-threaded collecting recorder: the whole state sits in one
/// `RefCell`, so the type is `!Sync` and the compiler, not a lock,
/// keeps it on the thread that drives its request. Span durations come
/// from the injected [`Clock`].
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<uavdc_obs::CollectingRecorder>();
/// ```
pub struct CollectingRecorder {
    clock: Box<dyn Clock>,
    /// Reentrancy invariant: no method calls another state-borrowing
    /// method while holding its borrow — a nested borrow panics. Every
    /// borrower (`report`, `span_start`, `span_end`, `add`) only
    /// touches plain `Inner` data; clock reads happen *before*
    /// borrowing for the same reason.
    inner: RefCell<Inner>,
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
    /// deterministic reports).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        CollectingRecorder {
            clock,
            inner: RefCell::new(Inner {
                nodes: vec![SpanNode {
                    name: "",
                    children: BTreeMap::new(),
                    calls: 0,
                    total_ns: 0,
                }],
                active: Vec::new(),
                free: Vec::new(),
                counters: BTreeMap::new(),
            }),
        }
    }

    /// Snapshot of everything recorded so far, in stable order.
    pub fn report(&self) -> RunReport {
        let inner = self.inner.borrow();
        let mut spans = Vec::new();
        // Depth-first over the tree; BTreeMap children iterate sorted by
        // name, so the output order is independent of insertion order.
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
        RunReport { spans, counters }
    }
}

impl Recorder for CollectingRecorder {
    fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.clock.now_ns();
        let mut inner = self.inner.borrow_mut();
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
        let mut inner = self.inner.borrow_mut();
        let slot = id.0 as usize;
        if let Some(open) = inner.active.get_mut(slot).and_then(Option::take) {
            inner.free.push(slot);
            let node = &mut inner.nodes[open.node];
            node.calls += 1;
            node.total_ns += end_ns.saturating_sub(open.start_ns);
        }
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        *inner.counters.entry(counter).or_insert(0) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn noop_recorder_records_nothing_and_returns_none() {
        let r = NoopRecorder;
        let id = r.span_start("x", SpanId::NONE);
        assert!(id.is_none());
        r.span_end(id);
        r.add("c", 5);
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
        // The manual clock is frozen at zero: all durations are zero.
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
        // Regression guard for the nested-borrow hazard class: every
        // state-borrowing method is exercised back-to-back and while
        // spans are still open. If any of them ever grows a nested call
        // into another state-borrowing method, the nested borrow
        // panics right here and the test fails.
        let r = CollectingRecorder::new();
        let root = r.span_start("plan", SpanId::NONE);
        r.add("visited", 1);
        let child = r.span_start("greedy", root);
        // Reporting with spans still active borrows the same state the
        // open spans' bookkeeping lives in.
        let mid = r.report();
        assert_eq!(mid.counter("visited"), 1);
        r.span_end(child);
        r.span_end(root);
        let rep = r.report();
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.counter("visited"), 1);
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
    }
}
