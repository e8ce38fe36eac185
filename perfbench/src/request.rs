//! One request — scenario in, checked plan out — and the closed loop
//! that runs a request list.

use crate::trace::Tracer;
use crate::workload::{bench_key, build_bench, build_candidates, candidate_key, Class, Prepared};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use uavdc_core::validate::{check_plan, Profile};
use uavdc_core::{
    Alg1Planner, Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner,
    CollectionPlan, EngineMode, PlanStats, Planner,
};
use uavdc_net::Scenario;
use uavdc_sim::{simulate, SimConfig};

/// Why a request does not count as a checked plan.
#[derive(Clone, Debug, PartialEq)]
pub enum Failure {
    /// The planner, checker or simulator panicked.
    Panic(String),
    /// `check_plan` rejected the plan.
    Check(String),
    /// The simulated mission disagrees with the plan's own accounting.
    Sim,
    /// Two passes over the same request produced different plans.
    Unrepeatable,
}

/// A checked plan's fingerprint and delivered volume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Done {
    pub fingerprint: u64,
    pub collected_mb: f64,
}

/// The paper problem each class's plans must satisfy.
pub fn profile(class: Class) -> Profile {
    match class {
        Class::Alg1 => Profile::P1FullDisjoint,
        Class::Alg2 | Class::Bench => Profile::P2FullOverlap,
        Class::Alg3K2 | Class::Alg3K4 => Profile::P3Partial,
    }
}

/// Plans one request through the planners' public entry points. Grid
/// planners and the benchmark look their set-up artifact up in the
/// cache; on a miss (every cold request) they build it locally, without
/// publishing it, exactly as the planner's own cold path would.
pub fn plan(
    tr: &mut Tracer,
    rid: u32,
    class: Class,
    scenario: &Scenario,
    prepared: &Prepared,
) -> CollectionPlan {
    let id = Some(rid);
    let (plan, stats) = match class {
        Class::Alg1 => {
            return tr.span("alg1.plan", id, |_| Alg1Planner::default().plan(scenario));
        }
        Class::Bench => {
            let hit = tr.span("cache.get", id, |_| prepared.bench.get(bench_key(scenario)));
            tr.add("cache.hits", f64::from(u8::from(hit.is_some())));
            let setup = hit.unwrap_or_else(|| Arc::new(build_bench(tr, id, scenario)));
            tr.span("greedy.loop.bench", id, |_| {
                BenchmarkPlanner.plan_prepared(scenario, EngineMode::Lazy, Some(&setup))
            })
        }
        Class::Alg2 | Class::Alg3K2 | Class::Alg3K4 => {
            let hit = tr.span("cache.get", id, |_| {
                prepared.candidates.get(candidate_key(scenario))
            });
            tr.add("cache.hits", f64::from(u8::from(hit.is_some())));
            let cand = hit.unwrap_or_else(|| Arc::new(build_candidates(tr, id, scenario)));
            let delta = crate::workload::DELTA;
            match class {
                Class::Alg2 => tr.span("greedy.loop.alg2", id, |_| {
                    Alg2Planner::new(Alg2Config {
                        delta,
                        ..Alg2Config::default()
                    })
                    .plan_prepared(scenario, Some(&cand))
                }),
                _ => {
                    let (name, k) = if class == Class::Alg3K2 {
                        ("greedy.loop.alg3k2", 2)
                    } else {
                        ("greedy.loop.alg3k4", 4)
                    };
                    tr.span(name, id, |_| {
                        Alg3Planner::new(Alg3Config {
                            delta,
                            k,
                            ..Alg3Config::default()
                        })
                        .plan_prepared(scenario, Some(&cand))
                    })
                }
            }
        }
    };
    count_stats(tr, class, &stats);
    plan
}

fn count_stats(tr: &mut Tracer, class: Class, stats: &PlanStats) {
    let c = &stats.counters;
    tr.add("greedy.requests", 1.0);
    tr.add("greedy.evaluations", c.evaluations as f64);
    tr.add("greedy.iterations", c.iterations as f64);
    tr.add("greedy.exhaustive_bound", c.exhaustive_bound() as f64);
    if class == Class::Alg2 {
        tr.add("tour.requests", 1.0);
        tr.add("tour.patches", c.tour_patches as f64);
        tr.add("tour.full_retours", c.full_retours as f64);
    }
}

/// Runs one request: plans with `plan`, then checks the plan with
/// `check_plan` under `profile` and flies it in the simulator. A panic
/// anywhere is caught and reported as a failure, so one bad request
/// never ends the run.
pub fn execute(
    tr: &mut Tracer,
    rid: u32,
    scenario: &Scenario,
    profile: Profile,
    plan: impl FnOnce(&mut Tracer) -> CollectionPlan,
) -> Result<Done, Failure> {
    let id = Some(rid);
    let run = catch_unwind(AssertUnwindSafe(|| {
        tr.span("request", id, |tr| {
            let plan = plan(tr);
            if let Err(v) = tr.span("check", id, |_| check_plan(scenario, &plan, profile)) {
                tr.add("check.failures", 1.0);
                return Err(Failure::Check(v.to_string()));
            }
            let agrees = tr.span("sim", id, |_| {
                simulate(scenario, &plan, &SimConfig::default()).agrees_with_plan(&plan, scenario)
            });
            if !agrees {
                tr.add("sim.disagreements", 1.0);
                return Err(Failure::Sim);
            }
            Ok(Done {
                fingerprint: plan.fingerprint(),
                collected_mb: plan.collected_volume().value(),
            })
        })
    }));
    run.unwrap_or_else(|payload| {
        tr.close_open();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(Failure::Panic(msg))
    })
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-request latency, milliseconds, in request order: the fastest
    /// of the request's passes.
    pub latency_ms: Vec<f64>,
    /// Per-request outcome, in request order.
    pub outcomes: Vec<Result<Done, Failure>>,
    /// Wall time of each pass, seconds.
    pub pass_s: Vec<f64>,
}

impl Tally {
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_err()).count()
    }

    /// Checked plans per second of request time: requests that passed
    /// every check over the sum of all requests' fastest-pass latencies,
    /// so a request that fails fast lowers the rate instead of raising it.
    pub fn plans_per_s(&self) -> f64 {
        let checked = (self.outcomes.len() - self.failed()) as f64;
        checked / (self.latency_ms.iter().sum::<f64>() / 1e3)
    }

    /// Delivered volume per attempted request, GB; failures deliver 0.
    pub fn collected_gb_mean(&self) -> f64 {
        let mb: f64 = self.outcomes.iter().flatten().map(|d| d.collected_mb).sum();
        mb / 1e3 / self.outcomes.len().max(1) as f64
    }
}

impl Tally {
    pub fn new(n: usize) -> Self {
        Tally {
            latency_ms: vec![f64::INFINITY; n],
            outcomes: Vec::with_capacity(n),
            pass_s: Vec::new(),
        }
    }

    /// One pass of the closed loop with one client: request `i + 1` is
    /// sent only after request `i` has returned. `input(i)` builds the
    /// request's scenario outside the timed region; `run(i, scenario)`
    /// is timed. A request's latency is its fastest pass, which keeps out
    /// the stretches in which a shared host runs the same request up to
    /// 1.5x slower. Every pass must give the same outcome: a request that
    /// fails in any pass, or whose plan changes between passes, counts as
    /// failed.
    pub fn pass(
        &mut self,
        mut input: impl FnMut(usize) -> Scenario,
        mut run: impl FnMut(usize, &Scenario) -> Result<Done, Failure>,
    ) {
        let first = self.pass_s.is_empty();
        let pass_start = Instant::now();
        for i in 0..self.latency_ms.len() {
            let scenario = input(i);
            let t = Instant::now();
            let outcome = std::hint::black_box(run(i, &scenario));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.latency_ms[i] = self.latency_ms[i].min(ms);
            if first {
                self.outcomes.push(outcome);
            } else if self.outcomes[i].is_ok() && outcome != self.outcomes[i] {
                self.outcomes[i] = Err(outcome.err().unwrap_or(Failure::Unrepeatable));
            }
        }
        self.pass_s.push(pass_start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_net::generator::{uniform, ScenarioParams};
    use uavdc_net::units::MegaBytes;

    fn small() -> Scenario {
        uniform(&ScenarioParams::default().scaled(0.05), 7)
    }

    fn good_plan(s: &Scenario) -> CollectionPlan {
        Alg2Planner::default().plan(s)
    }

    #[test]
    fn violating_plans_and_panics_count_as_failures_without_ending_the_run() {
        let s = small();
        let good = good_plan(&s);
        assert!(
            !good.stops.is_empty(),
            "fixture plan must collect something"
        );
        // Collect twice what the first device at the first stop holds.
        let mut greedy = good.clone();
        let (dev, amount) = greedy.stops[0].collected[0];
        greedy.stops[0].collected[0] = (dev, MegaBytes(amount.value() * 2.0));

        let mut tr = Tracer::new(true);
        let mut tally = Tally::new(4);
        for _ in 0..2 {
            tally.pass(
                |_| s.clone(),
                |i, sc| {
                    execute(&mut tr, i as u32, sc, Profile::P2FullOverlap, |_| match i {
                        1 => greedy.clone(),
                        2 => panic!("planner exploded"),
                        _ => good.clone(),
                    })
                },
            );
        }
        assert_eq!(tally.outcomes.len(), 4);
        assert_eq!(tally.latency_ms.len(), 4);
        assert_eq!(tally.failed(), 2);
        // Only the two checked plans count towards the rate.
        let request_s: f64 = tally.latency_ms.iter().sum::<f64>() / 1e3;
        assert!((tally.plans_per_s() - 2.0 / request_s).abs() <= 1e-9 * tally.plans_per_s());
        assert!(tally.outcomes[0].is_ok() && tally.outcomes[3].is_ok());
        assert!(matches!(&tally.outcomes[1], Err(Failure::Check(_))));
        assert_eq!(
            tally.outcomes[2],
            Err(Failure::Panic("planner exploded".to_string()))
        );
        // The over-collecting plan fails its check once per pass.
        assert_eq!(tr.counter("check.failures"), 2.0);
        // Failed requests deliver nothing: the mean is over all four.
        let per = good.collected_volume().value() / 1e3;
        assert!((tally.collected_gb_mean() - per / 2.0).abs() < 1e-12);
        // The panicked request's spans were closed, not left dangling.
        assert!(tr.spans().iter().all(|sp| sp.end_ns >= sp.start_ns));
    }

    #[test]
    fn a_plan_that_changes_between_passes_is_a_failure() {
        let s = small();
        let good = good_plan(&s);
        let mut fewer = good.clone();
        fewer.stops.pop();
        let mut tr = Tracer::new(false);
        let mut tally = Tally::new(1);
        for pass in 0..3 {
            let plan = if pass == 2 { &fewer } else { &good };
            tally.pass(
                |_| s.clone(),
                |_, sc| execute(&mut tr, 0, sc, Profile::P2FullOverlap, |_| plan.clone()),
            );
        }
        assert_eq!(tally.outcomes, vec![Err(Failure::Unrepeatable)]);
        assert!(tally.latency_ms[0].is_finite());
    }

    #[test]
    fn energy_violation_is_caught_by_the_checker() {
        let s = small();
        let plan = good_plan(&s);
        let mut starved = s.clone();
        starved.uav.capacity = plan.total_energy(&s) * 0.5;
        let mut tr = Tracer::new(false);
        let out = execute(&mut tr, 0, &starved, Profile::P2FullOverlap, |_| {
            plan.clone()
        });
        match out {
            Err(Failure::Check(msg)) => assert!(msg.contains("energy-budget"), "{msg}"),
            other => panic!("expected a check failure, got {other:?}"),
        }
    }
}
