//! Thread-safe, plan-invisible cache of per-instance planner artifacts.
//!
//! The expensive part of a planning request is often its *setup* —
//! building and pruning the candidate set, or computing the benchmark's
//! initial Christofides tour — and that setup depends only on the
//! instance layout (and, for candidate sets, the grid edge `δ`), never on
//! the battery capacity a batch of requests sweeps. [`ArtifactCache`]
//! shares those artifacts across requests behind one mutex; the planners
//! take them through their `plan_prepared` entries.
//!
//! Invisibility contract: a cached artifact must be the value the cold
//! path would rebuild, so cached and cold runs produce bit-identical
//! plans and identical deterministic counters (property-tested in
//! `tests/artifact_cache_invisibility.rs`). The cache itself enforces
//! the half it can: [`ArtifactCache::insert`] is first-writer-wins, so
//! once a key is published every reader sees the same `Arc` and a racing
//! duplicate build cannot swap the value mid-batch.
//!
//! Concurrency discipline: the one mutex is held only for a single map
//! lookup or insert — its guard is a statement-scoped temporary, never
//! live across a spawn or a call back into planner code — and lock
//! poisoning is absorbed: a panicked worker leaves a consistent (if
//! partial) map, and a cache read must never turn into a second panic.
//! `concurrent_readers_and_writers_converge` and
//! `artifact_cache_invisibility::thread_count_is_invisible` share one
//! cache across threads.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A keyed store of shared planner artifacts.
///
/// Keys are caller-computed 64-bit fingerprints (see
/// `Scenario::layout_fingerprint` in `uavdc-net`, mixed with `δ` for
/// candidate sets); values are handed out as [`Arc`] clones, so a hit
/// costs one lock plus one reference-count bump.
#[derive(Debug, Default)]
pub struct ArtifactCache<T> {
    /// `BTreeMap`, not `HashMap`: iteration (and therefore any report
    /// derived from it) is key-ordered and deterministic.
    entries: Mutex<BTreeMap<u64, Arc<T>>>,
}

impl<T> ArtifactCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        ArtifactCache {
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Locks the map, recovering from poisoning: the artifacts already
    /// published by a panicked worker are still the values the cold path
    /// would rebuild, so they remain safe to serve.
    ///
    /// Reentrancy invariant: no caller may invoke another
    /// `locked()`-taking method while holding this guard, and no planner
    /// code runs under it — every critical section is a single map
    /// operation.
    fn locked(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<T>>> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The artifact under `key`, if already published.
    pub fn get(&self, key: u64) -> Option<Arc<T>> {
        self.locked().get(&key).cloned()
    }

    /// Publishes `value` under `key` and returns the artifact every
    /// reader of `key` will see from now on — the *existing* one when the
    /// key was already present (first writer wins), so concurrent
    /// duplicate builds converge on a single shared value.
    pub fn insert(&self, key: u64, value: T) -> Arc<T> {
        let mut map = self.locked();
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(value)))
    }

    /// Number of distinct keys published.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.locked().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_round_trips() {
        let cache = ArtifactCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(7).is_none());
        let a = cache.insert(7, vec![1, 2, 3]);
        assert_eq!(*a, vec![1, 2, 3]);
        assert_eq!(cache.len(), 1);
        let b = cache.get(7).expect("published");
        assert!(Arc::ptr_eq(&a, &b), "hits share one allocation");
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let cache = ArtifactCache::new();
        let first = cache.insert(1, "first");
        let second = cache.insert(1, "second");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, "first");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_converge() {
        let cache = ArtifactCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for k in 0..32u64 {
                        let v = cache.insert(k, k * 10);
                        assert_eq!(*v, k * 10);
                        let _ = t;
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        for k in 0..32u64 {
            assert_eq!(*cache.get(k).expect("published"), k * 10);
        }
    }
}
