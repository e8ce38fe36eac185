//! Seed-derived workloads: fixed request lists and their set-up.
//!
//! A workload is a list of requests, each naming an instance, a battery
//! capacity and a planner class. The list depends only on the workload,
//! the seed and the run size — never on timing — so two runs with the
//! same arguments plan exactly the same requests.

use crate::trace::Tracer;
use uavdc_core::{ArtifactCache, BenchmarkSetup, CandidateSet};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

/// Grid edge `δ` of every grid planner, metres.
pub const DELTA: f64 = 10.0;

/// The paper's battery sweep `E`, joules.
const PAPER_SWEEP: [f64; 5] = [3.0e5, 4.5e5, 6.0e5, 7.5e5, 9.0e5];

/// Passes over the request list in one run; a request's latency is its
/// fastest pass.
pub const PASSES: usize = 10;

/// Fewest requests in a full-size run, so that at least 10 samples lie
/// beyond p95.
pub const MIN_REQUESTS: usize = 200;

/// Planner class of a request; each class is a latency band of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Alg1,
    Alg2,
    Alg3K2,
    Alg3K4,
    Bench,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Alg1 => "alg1",
            Class::Alg2 => "alg2",
            Class::Alg3K2 => "alg3k2",
            Class::Alg3K4 => "alg3k4",
            Class::Bench => "bench",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fresh paper-scale instance per request, no artifact reuse.
    ColdPaper,
    /// Uniform instances, fine battery sweep, prebuilt artifacts.
    WarmSweep,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold-paper" => Some(Kind::ColdPaper),
            "warm-sweep" => Some(Kind::WarmSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdPaper => "cold-paper",
            Kind::WarmSweep => "warm-sweep",
        }
    }

    pub fn roster(self) -> &'static [Class] {
        match self {
            Kind::ColdPaper => &[
                Class::Alg1,
                Class::Alg2,
                Class::Alg3K2,
                Class::Alg3K4,
                Class::Bench,
            ],
            Kind::WarmSweep => &[Class::Alg2, Class::Alg3K2, Class::Alg3K4, Class::Bench],
        }
    }

    /// Whether requests reuse artifacts built during set-up.
    pub fn warm(self) -> bool {
        self != Kind::ColdPaper
    }

    /// Instances of a warm workload; artifacts are built once per
    /// instance. Enough instances that the mean over them varies little
    /// from seed to seed.
    fn warm_instances(self) -> usize {
        match self {
            Kind::ColdPaper => 0,
            Kind::WarmSweep => 32,
        }
    }

    /// Requests per second the workload sustains on a 2-core x86-64 VM;
    /// turns `--seconds` into a fixed request count (over all passes).
    fn nominal_rate(self) -> f64 {
        match self {
            Kind::ColdPaper => 45.0,
            Kind::WarmSweep => 250.0,
        }
    }

    /// How an untraced run times its set-up: `(set_ups, rounds)`. Each
    /// of the set-ups is repeated once per round, the rounds spread evenly
    /// over the passes, and its time is its fastest round, as a request's
    /// latency is its fastest pass; `setup_s` is the median over the
    /// set-ups. A cold set-up only generates instances (about a
    /// millisecond), so it runs in every pass; a warm set-up builds every
    /// artifact (over a second), so it runs in 3 rounds.
    pub fn set_ups(self) -> (usize, usize) {
        match self {
            Kind::ColdPaper => (5, PASSES),
            Kind::WarmSweep => (3, 3),
        }
    }

    /// Requests are generated in whole blocks so every class and
    /// capacity appears equally often.
    fn block(self, instances: usize) -> usize {
        match self {
            Kind::ColdPaper => self.roster().len() * PAPER_SWEEP.len(),
            Kind::WarmSweep => instances * self.roster().len(),
        }
    }
}

/// One request: plan `instance` with battery `capacity` using `class`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    pub instance: u32,
    pub capacity: f64,
    pub class: Class,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub kind: Kind,
    /// Instance scale in `(0, 1]`; 1 is the paper's 500 devices on 1 km².
    pub scale: f64,
    pub instance_seeds: Vec<u64>,
    pub requests: Vec<Request>,
}

/// Artifacts the timed phase reads: the instances and, on warm
/// workloads, the capacity-independent set-up of every instance.
pub struct Prepared {
    pub scenarios: Vec<Scenario>,
    pub candidates: ArtifactCache<CandidateSet>,
    pub bench: ArtifactCache<BenchmarkSetup>,
}

/// SplitMix64 finaliser: decorrelates derived seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cache key of an instance's pruned candidate set at grid edge `δ`.
pub fn candidate_key(scenario: &Scenario) -> u64 {
    mix(scenario.layout_fingerprint() ^ DELTA.to_bits())
}

/// Cache key of an instance's benchmark set-up.
pub fn bench_key(scenario: &Scenario) -> u64 {
    scenario.layout_fingerprint()
}

impl Workload {
    /// A full-size run whose passes last about `seconds` in total on the
    /// reference machine.
    pub fn for_seconds(kind: Kind, seed: u64, seconds: u64) -> Self {
        let wanted = (seconds as f64 * kind.nominal_rate() / PASSES as f64).ceil() as usize;
        Workload::new(
            kind,
            seed,
            1.0,
            kind.warm_instances(),
            wanted.max(MIN_REQUESTS),
        )
    }

    /// `requests` is rounded up to a whole block; cold workloads use one
    /// instance per request and ignore `instances`.
    pub fn new(kind: Kind, seed: u64, scale: f64, instances: usize, requests: usize) -> Self {
        let block = kind.block(instances);
        // Warm sweeps need two capacity steps at least.
        let n = requests.div_ceil(block).max(1 + usize::from(kind.warm())) * block;
        let roster = kind.roster();
        let instances = if kind.warm() { instances } else { n };
        let base = mix(seed ^ mix(kind as u64));
        let instance_seeds = (0..instances as u64).map(|i| mix(base ^ mix(i))).collect();
        let requests = match kind {
            Kind::ColdPaper => (0..n)
                .map(|i| Request {
                    instance: i as u32,
                    capacity: PAPER_SWEEP[(i / roster.len()) % PAPER_SWEEP.len()],
                    class: roster[i % roster.len()],
                })
                .collect(),
            Kind::WarmSweep => {
                // A fine sweep over the paper's battery range; every step
                // plans every instance with every class.
                let steps = n / (instances * roster.len());
                let (lo, hi) = (PAPER_SWEEP[0], PAPER_SWEEP[PAPER_SWEEP.len() - 1]);
                let mut out = Vec::with_capacity(n);
                for j in 0..steps {
                    let capacity = lo + (hi - lo) * j as f64 / (steps - 1) as f64;
                    for instance in 0..instances as u32 {
                        for &class in roster {
                            out.push(Request {
                                instance,
                                capacity,
                                class,
                            });
                        }
                    }
                }
                out
            }
        };
        Workload {
            kind,
            scale,
            instance_seeds,
            requests,
        }
    }

    /// Generates the instances and, on warm workloads, builds each
    /// instance's artifacts with the calls the batch service makes,
    /// tracing each layer call.
    pub fn set_up(&self, tr: &mut Tracer) -> Prepared {
        let params = ScenarioParams::default().scaled(self.scale);
        let scenarios: Vec<Scenario> = self
            .instance_seeds
            .iter()
            .map(|&s| uniform(&params, s))
            .collect();
        let candidates = ArtifactCache::new();
        let bench = ArtifactCache::new();
        if self.kind.warm() {
            for s in &scenarios {
                candidates.insert(candidate_key(s), build_candidates(tr, None, s));
                bench.insert(bench_key(s), build_bench(tr, None, s));
            }
        }
        Prepared {
            scenarios,
            candidates,
            bench,
        }
    }

    /// The scenario request `r` plans: its instance with its battery.
    pub fn scenario_for(&self, prepared: &Prepared, r: &Request) -> Scenario {
        let mut s = prepared.scenarios[r.instance as usize].clone();
        s.uav.capacity = Joules(r.capacity);
        s
    }
}

/// `CandidateSet::build` then `prune_dominated`, as each grid planner's
/// cold path does, one span per call.
pub fn build_candidates(tr: &mut Tracer, request: Option<u32>, s: &Scenario) -> CandidateSet {
    let mut c = tr.span("candidates.build", request, |_| {
        CandidateSet::build(s, DELTA)
    });
    tr.add("candidates.cells", c.len() as f64);
    tr.span("candidates.prune", request, |_| c.prune_dominated());
    tr.add("candidates.kept", c.len() as f64);
    c
}

pub fn build_bench(tr: &mut Tracer, request: Option<u32>, s: &Scenario) -> BenchmarkSetup {
    tr.span("christofides.setup", request, |_| BenchmarkSetup::build(s))
}
