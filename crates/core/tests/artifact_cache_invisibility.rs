//! Property tests of the artifact cache's invisibility contract
//! (`uavdc_core::cache`): a planner handed a shared set-up artifact must
//! produce exactly what its cold path produces.
//!
//! A batch is a list of random requests (instance seed, battery capacity,
//! planner, engine) drawn from small pools, so requests collide on
//! instances and on artifacts. The batch builds each distinct artifact
//! once — a pruned [`CandidateSet`] per (layout, `δ`), a
//! [`BenchmarkSetup`] per layout, keyed by
//! `Scenario::layout_fingerprint` — publishes it in an
//! [`ArtifactCache`], and plans every request through `plan_prepared`
//! with the artifact the cache hands out. Every outcome (plan fingerprint
//! and the deterministic counters) must equal the cold
//! `plan_prepared(s, None)` run, and planning the batch on scoped threads
//! at any thread count, including more threads than requests, must
//! reproduce the serial outcomes bit for bit.
//!
//! Run with `--features validate` to widen each property to >= 1024
//! seeded cases (the CI equivalence gate); the default is a quick pass.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, ArtifactCache, BenchmarkPlanner,
    BenchmarkSetup, CandidateSet, EngineMode,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

fn cases(quick: u32) -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        quick
    }
}

/// Instance scale of every request (25 devices).
const SCALE: f64 = 0.05;

#[derive(Clone, Copy, Debug)]
enum Algorithm {
    Alg2 { delta: f64 },
    Alg3 { delta: f64, k: usize },
    Benchmark,
}

#[derive(Clone, Copy, Debug)]
struct Request {
    seed: u64,
    capacity: Joules,
    algorithm: Algorithm,
    engine: EngineMode,
}

/// A request's deterministic result: plan fingerprint, candidates,
/// iterations, evaluations, tour patches and full re-tours.
type Outcome = (u64, usize, u64, u64, u64, u64);

/// Decodes a request tuple drawn by proptest. The pools are small so
/// that batches collide on instances and artifacts.
fn decode(seed_ix: u8, cap_ix: u8, alg_ix: u8, engine_ix: u8) -> Request {
    let seeds = [3u64, 7, 11];
    let caps = [2.0e5, 3.0e5, 4.5e5, 6.0e5];
    let algorithms = [
        Algorithm::Alg2 { delta: 20.0 },
        Algorithm::Alg2 { delta: 25.0 },
        Algorithm::Alg3 { delta: 20.0, k: 2 },
        Algorithm::Alg3 { delta: 20.0, k: 4 },
        Algorithm::Benchmark,
    ];
    let engines = [EngineMode::Lazy, EngineMode::Exhaustive];
    Request {
        seed: seeds[seed_ix as usize % seeds.len()],
        capacity: Joules(caps[cap_ix as usize % caps.len()]),
        algorithm: algorithms[alg_ix as usize % algorithms.len()],
        engine: engines[engine_ix as usize % engines.len()],
    }
}

fn decode_all(tuples: &[(u8, u8, u8, u8)]) -> Vec<Request> {
    tuples
        .iter()
        .map(|&(s, c, a, e)| decode(s, c, a, e))
        .collect()
}

/// Cache key of a request's artifact: the layout for the benchmark set-up,
/// the layout mixed with `δ` for a candidate set. The two kinds live in
/// separate caches, so their keys never meet.
fn artifact_key(layout: u64, algorithm: Algorithm) -> u64 {
    match algorithm {
        Algorithm::Alg2 { delta } | Algorithm::Alg3 { delta, .. } => {
            layout ^ delta.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
        Algorithm::Benchmark => layout,
    }
}

/// The instances of a batch and the set-up artifacts shared among its
/// requests.
struct Batch {
    scenarios: BTreeMap<u64, Scenario>,
    candidates: ArtifactCache<CandidateSet>,
    setups: ArtifactCache<BenchmarkSetup>,
}

impl Batch {
    /// Generates each distinct instance and builds each distinct artifact
    /// once, exactly as the planners' cold paths would build it.
    fn warm(requests: &[Request]) -> Batch {
        let params = ScenarioParams::default().scaled(SCALE);
        let mut scenarios = BTreeMap::new();
        let candidates = ArtifactCache::new();
        let setups = ArtifactCache::new();
        for r in requests {
            let s = scenarios
                .entry(r.seed)
                .or_insert_with(|| uniform(&params, r.seed));
            let key = artifact_key(s.layout_fingerprint(), r.algorithm);
            match r.algorithm {
                Algorithm::Alg2 { delta } | Algorithm::Alg3 { delta, .. } => {
                    if candidates.get(key).is_none() {
                        let mut c = CandidateSet::build(s, delta);
                        c.prune_dominated();
                        candidates.insert(key, c);
                    }
                }
                Algorithm::Benchmark => {
                    if setups.get(key).is_none() {
                        setups.insert(key, BenchmarkSetup::build(s));
                    }
                }
            }
        }
        Batch {
            scenarios,
            candidates,
            setups,
        }
    }

    /// Artifacts published by [`Batch::warm`].
    fn artifacts(&self) -> usize {
        self.candidates.len() + self.setups.len()
    }

    /// Plans one request with its cached artifact, or cold.
    fn plan(&self, r: &Request, cached: bool) -> Outcome {
        let base = &self.scenarios[&r.seed];
        let mut s = base.clone();
        s.uav.capacity = r.capacity;
        let key = artifact_key(base.layout_fingerprint(), r.algorithm);
        let candidates = || {
            cached.then(|| {
                self.candidates
                    .get(key)
                    .expect("candidate set published by warm-up")
            })
        };
        let (plan, stats) = match r.algorithm {
            Algorithm::Alg2 { delta } => Alg2Planner::new(Alg2Config {
                delta,
                engine: r.engine,
                ..Alg2Config::default()
            })
            .plan_prepared(&s, candidates().as_deref()),
            Algorithm::Alg3 { delta, k } => Alg3Planner::new(Alg3Config {
                delta,
                k,
                engine: r.engine,
                ..Alg3Config::default()
            })
            .plan_prepared(&s, candidates().as_deref()),
            Algorithm::Benchmark => {
                let setup = cached.then(|| {
                    self.setups
                        .get(key)
                        .expect("benchmark set-up published by warm-up")
                });
                BenchmarkPlanner.plan_prepared(&s, r.engine, setup.as_deref())
            }
        };
        let c = stats.counters;
        (
            plan.fingerprint(),
            c.candidates,
            c.iterations,
            c.evaluations,
            c.tour_patches,
            c.full_retours,
        )
    }

    /// Plans every request on `threads` scoped workers, each taking one
    /// contiguous slice (empty when there are more workers than
    /// requests); outcomes in request order.
    fn plan_all(&self, requests: &[Request], threads: usize, cached: bool) -> Vec<Outcome> {
        let n = requests.len();
        let chunk = n.div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = (t * chunk).min(n);
                    let slice = &requests[lo..(lo + chunk).min(n)];
                    scope.spawn(move || {
                        slice
                            .iter()
                            .map(|r| self.plan(r, cached))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("planning worker panicked"))
                .collect()
        })
    }
}

/// Distinct artifacts a batch needs: one per (seed, `δ`) for the grid
/// planners and one per seed for the benchmark.
fn distinct_artifacts(requests: &[Request]) -> usize {
    let keys: BTreeSet<(u64, Option<u64>)> = requests
        .iter()
        .map(|r| match r.algorithm {
            Algorithm::Alg2 { delta } | Algorithm::Alg3 { delta, .. } => {
                (r.seed, Some(delta.to_bits()))
            }
            Algorithm::Benchmark => (r.seed, None),
        })
        .collect();
    keys.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Cached ≡ cold, request by request, and each artifact is built once.
    #[test]
    fn cached_plans_equal_cold_plans(
        tuples in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..24),
    ) {
        let requests = decode_all(&tuples);
        let batch = Batch::warm(&requests);
        prop_assert_eq!(batch.artifacts(), distinct_artifacts(&requests));
        let cached = batch.plan_all(&requests, 1, true);
        let cold = batch.plan_all(&requests, 1, false);
        prop_assert_eq!(cached.len(), requests.len());
        prop_assert_eq!(cached, cold);
    }

    /// The same request repeated in one batch shares one artifact, and
    /// every replica gets the cold answer.
    #[test]
    fn replicated_requests_share_one_artifact(
        s in 0u8..=255, c in 0u8..=255, a in 0u8..=255, e in 0u8..=255,
        copies in 2usize..8,
        threads in 1usize..5,
    ) {
        let requests = vec![decode(s, c, a, e); copies];
        let batch = Batch::warm(&requests);
        prop_assert_eq!(batch.artifacts(), 1);
        let cold = batch.plan(&requests[0], false);
        let cached = batch.plan_all(&requests, threads, true);
        prop_assert!(cached.iter().all(|o| *o == cold));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(10)))]

    /// 1, 2 and 4 workers, and more workers than requests, reproduce the
    /// serial outcomes; a cold batch on the widest pool does too.
    #[test]
    fn thread_count_is_invisible(
        tuples in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..24),
        extra in 1usize..8,
    ) {
        let requests = decode_all(&tuples);
        let batch = Batch::warm(&requests);
        let serial: Vec<Outcome> = requests.iter().map(|r| batch.plan(r, true)).collect();
        let over = requests.len() + extra;
        for threads in [1, 2, 4, over] {
            prop_assert_eq!(&batch.plan_all(&requests, threads, true), &serial, "{} threads", threads);
        }
        prop_assert_eq!(&batch.plan_all(&requests, over, false), &serial, "cold, {} threads", over);
    }
}

/// One request on a 16-wide pool: every worker but one is idle. Alg 2's
/// fast insertion patches its tour for every emitted stop, so the tour
/// counters must come through the cached path intact.
#[test]
fn single_request_on_wide_pool() {
    let request = Request {
        seed: 5,
        capacity: Joules(4.0e5),
        algorithm: Algorithm::Alg2 { delta: 20.0 },
        engine: EngineMode::Lazy,
    };
    let requests = [request];
    let batch = Batch::warm(&requests);
    let wide = batch.plan_all(&requests, 16, true);
    assert_eq!(wide, batch.plan_all(&requests, 1, true));
    assert_eq!(wide, vec![batch.plan(&request, false)]);
    let (_, _, _, _, tour_patches, full_retours) = wide[0];
    assert!(tour_patches > 0, "tour_patches lost in the cached path");
    assert_eq!(full_retours, 0);
}

/// An empty batch builds nothing and plans nothing at any pool width.
#[test]
fn empty_batch_is_fine_at_any_width() {
    let batch = Batch::warm(&[]);
    assert_eq!(batch.artifacts(), 0);
    assert!(batch.plan_all(&[], 12, true).is_empty());
}
