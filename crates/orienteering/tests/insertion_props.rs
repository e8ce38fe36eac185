//! Differential property suite for the insertion cache
//! (`uavdc_orienteering::Insertions`).
//!
//! Each case builds a random instance and a random starting tour (length
//! 0..20), builds the cache on it, then applies a random sequence of
//! insertions at random positions until the tour holds up to 60 vertices.
//! After the build and after every insertion, every tracked vertex's
//! cached `(delta, pos)` must equal a fresh `best_insertion` over the
//! current tour (delta compared by bits, position exactly), and the whole
//! cache must equal one built fresh on that tour, `tracked()` order
//! included: that is what lets the orienteering search resume a kept
//! cache instead of building one. Half the instances sit on a 6×6 integer
//! lattice, where coincident and mirrored points make equal deltas
//! common, so the lowest-position tie rule and the split rule's strict
//! test are exercised on most steps rather than almost never.
//!
//! Run with `--features validate` to widen the property to >= 1024
//! seeded cases (the CI equivalence gate); the default is a quick 64.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc_graph::DistMatrix;
use uavdc_orienteering::{best_insertion, Insertions, OrienteeringInstance};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

fn instance(rng: &mut SmallRng, n: usize, lattice: bool) -> OrienteeringInstance {
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            if lattice {
                (rng.gen_range(0..6u32) as f64, rng.gen_range(0..6u32) as f64)
            } else {
                (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))
            }
        })
        .collect();
    let depot = rng.gen_range(0..n);
    OrienteeringInstance::new(DistMatrix::from_euclidean(&pts), vec![1.0; n], depot, 0.0)
}

/// Asserts that every tracked vertex's cache entry equals a fresh scan,
/// that the tracked set is exactly the vertices outside the tour, and
/// that a cache built fresh on the tour holds the same entries in the
/// same order.
fn assert_fresh(inst: &OrienteeringInstance, tour: &[usize], cache: &Insertions, step: usize) {
    let outside: Vec<usize> = (0..inst.len()).filter(|v| !tour.contains(v)).collect();
    assert_eq!(
        cache.tracked(),
        outside.as_slice(),
        "tracked set at step {step}"
    );
    let fresh = Insertions::new(inst, tour, |v| !tour.contains(&v));
    assert_eq!(
        fresh.tracked(),
        cache.tracked(),
        "fresh order at step {step}"
    );
    for &v in fresh.tracked() {
        let (a, b) = (fresh.get(v), cache.get(v));
        assert_eq!(
            (a.0.to_bits(), a.1),
            (b.0.to_bits(), b.1),
            "fresh entry {v}"
        );
    }
    for &v in cache.tracked() {
        let (want_delta, want_pos) = best_insertion(inst, tour, v);
        let (got_delta, got_pos) = cache.get(v);
        assert_eq!(
            (got_delta.to_bits(), got_pos),
            (want_delta.to_bits(), want_pos),
            "vertex {v} at step {step} on tour {tour:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn cached_insertions_match_a_fresh_scan(
        seed in 0u64..u64::MAX,
        n in 1usize..64,
        lattice in 0u32..2,
        start in 0usize..20,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = instance(&mut rng, n, lattice == 1);
        // Starting tour: empty, or the depot followed by a random subset
        // in random order (the state after a 2-opt or an eviction).
        let mut tour = Vec::new();
        if start > 0 {
            tour.push(inst.depot());
            let mut rest: Vec<usize> = (0..n).filter(|&v| v != inst.depot()).collect();
            while tour.len() < start.min(n) {
                let i = rng.gen_range(0..rest.len());
                tour.push(rest.swap_remove(i));
            }
        }
        let mut cache = Insertions::new(&inst, &tour, |v| !tour.contains(&v));
        assert_fresh(&inst, &tour, &cache, 0);
        let target = n.min(60);
        let mut step = 0;
        while tour.len() < target {
            step += 1;
            let outside = cache.tracked();
            let w = outside[rng.gen_range(0..outside.len())];
            let pos = if tour.is_empty() {
                0
            } else {
                rng.gen_range(1..=tour.len())
            };
            cache.insert(&inst, &mut tour, pos, w);
            prop_assert_eq!(tour[pos], w);
            assert_fresh(&inst, &tour, &cache, step);
        }
    }

    #[test]
    fn untracked_vertices_leave_the_others_exact(
        seed in 0u64..u64::MAX,
        n in 2usize..40,
    ) {
        // The team solver's pattern: a vertex inserted into another tour
        // is untracked here, and the remaining entries stay exact.
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = instance(&mut rng, n, true);
        let mut tour = vec![inst.depot()];
        let mut other = Vec::new();
        let mut cache = Insertions::new(&inst, &tour, |v| v != inst.depot());
        let mut step = 0;
        while !cache.tracked().is_empty() {
            step += 1;
            let outside = cache.tracked();
            let w = outside[rng.gen_range(0..outside.len())];
            if rng.gen_range(0..3u32) == 0 {
                cache.untrack(w);
                other.push(w);
            } else {
                let pos = rng.gen_range(1..=tour.len());
                let (delta, at) = cache.get(w);
                let best = best_insertion(&inst, &tour, w);
                prop_assert_eq!((delta.to_bits(), at), (best.0.to_bits(), best.1));
                cache.insert(&inst, &mut tour, pos, w);
            }
            for &v in cache.tracked() {
                prop_assert!(!other.contains(&v) && !tour.contains(&v));
                let (want_delta, want_pos) = best_insertion(&inst, &tour, v);
                let (got_delta, got_pos) = cache.get(v);
                prop_assert_eq!(
                    (got_delta.to_bits(), got_pos),
                    (want_delta.to_bits(), want_pos),
                    "vertex {} at step {}",
                    v,
                    step
                );
            }
        }
    }
}
