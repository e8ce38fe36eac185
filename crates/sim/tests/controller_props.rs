//! Property harness for the closed-loop [`MissionController`]: the
//! safe-return guarantee, proven over thousands of seeded
//! (scenario × plan × fault-plan) triples.
//!
//! For every triple the controller must
//!
//! 1. end the mission at the depot (`ReturnedToDepot` terminal event,
//!    `completed == true`),
//! 2. never emit `BatteryDepleted`,
//! 3. land with `energy_used ≤ E` (up to the simulator's per-leg 1e-9 J
//!    commitment slack),
//! 4. deliver at least the pessimal direct-return baseline (the mission
//!    that gives up immediately and flies straight home), and
//! 5. replay bit-identically from the same seeds — same trace
//!    fingerprint, same energy bits, same decision counters.
//!
//! Under calm conditions with no controller intervention the closed
//! loop must additionally match the open-loop simulator bit-for-bit.
//!
//! The CI `sim-robustness` job runs this suite with the `validate`
//! feature, which raises the case count to 512 (× 4 fault levels ⇒
//! 2048 triples); the default profile keeps `cargo test -q` quick while
//! still covering 512 triples. On failure the offending triple is
//! appended to `<target>/tmp/controller-failing-seeds.txt`, which CI
//! uploads as an artifact.

use std::io::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use uavdc_core::validate::{check_plan, Profile};
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, CollectionPlan, EngineMode,
    Planner,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Seconds;
use uavdc_net::{FaultConfig, Scenario};
use uavdc_sim::{
    simulate, ControllerConfig, FaultPlan, LinkModel, MissionController, SimConfig, SimEvent,
    WindModel,
};

const CASES: u32 = if cfg!(feature = "validate") { 512 } else { 128 };

const FAILING_SEEDS: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/controller-failing-seeds.txt");

/// Fault-intensity ladder: level 0 is exactly undisturbed, each step up
/// widens the wind band, degrades the link and intensifies the faults.
fn disturbances(level: u64, seed: u64) -> SimConfig {
    let wind_seed = seed ^ 0x5eed_0001;
    let link_seed = seed ^ 0x5eed_0002;
    let fault_seed = seed ^ 0x5eed_0003;
    match level {
        0 => SimConfig::default(),
        1 => SimConfig {
            wind: WindModel::uniform(1.0, 1.2, wind_seed),
            link: LinkModel::uniform(0.8, 1.0, link_seed),
            fault: FaultPlan::new(
                FaultConfig {
                    upload_fail: 0.1,
                    max_retries: 2,
                    retry_backoff: Seconds(0.2),
                    dropout: 0.05,
                    ..FaultConfig::none()
                },
                fault_seed,
            ),
            ..SimConfig::default()
        },
        2 => SimConfig {
            wind: WindModel::uniform(1.0, 1.35, wind_seed),
            link: LinkModel::uniform(0.6, 1.0, link_seed),
            fault: FaultPlan::new(
                FaultConfig {
                    gust_onset: 0.3,
                    gust_legs: (1, 3),
                    gust_severity: (1.1, 1.5),
                    upload_fail: 0.2,
                    max_retries: 1,
                    retry_backoff: Seconds(0.3),
                    dropout: 0.1,
                },
                fault_seed,
            ),
            ..SimConfig::default()
        },
        _ => SimConfig {
            wind: WindModel::uniform(1.0, 1.5, wind_seed),
            link: LinkModel::uniform(0.4, 0.9, link_seed),
            fault: FaultPlan::new(
                FaultConfig {
                    gust_onset: 0.6,
                    gust_legs: (2, 5),
                    gust_severity: (1.3, 2.0),
                    upload_fail: 0.4,
                    max_retries: 3,
                    retry_backoff: Seconds(0.5),
                    dropout: 0.3,
                },
                fault_seed,
            ),
            ..SimConfig::default()
        },
    }
}

fn plan_for(scenario: &Scenario, planner_idx: u64, seed: u64) -> (CollectionPlan, &'static str) {
    let engine = if seed.is_multiple_of(2) {
        EngineMode::Lazy
    } else {
        EngineMode::Exhaustive
    };
    match planner_idx % 3 {
        0 => (
            Alg2Planner::new(Alg2Config {
                engine,
                ..Alg2Config::default()
            })
            .plan_prepared(scenario, None)
            .0,
            "alg2",
        ),
        1 => (
            Alg3Planner::new(Alg3Config {
                engine,
                ..Alg3Config::default()
            })
            .plan_prepared(scenario, None)
            .0,
            "alg3",
        ),
        _ => (
            BenchmarkPlanner.plan_prepared(scenario, engine, None).0,
            "bench",
        ),
    }
}

/// The full safe-return check for one (scenario × plan × fault) triple.
fn check_triple(scenario: &Scenario, plan: &CollectionPlan, cfg: &SimConfig, level: u64) {
    let capacity = scenario.uav.capacity.value();
    let controller = MissionController::new(ControllerConfig::default());

    let res = controller.fly(scenario, plan, cfg);

    // (1) The mission ends at the depot.
    assert!(
        res.outcome.completed,
        "mission did not complete (level {level})"
    );
    assert!(
        matches!(
            res.outcome.trace.events.last(),
            Some(SimEvent::ReturnedToDepot { .. })
        ),
        "mission must end with ReturnedToDepot"
    );
    res.outcome
        .trace
        .check_well_formed()
        .expect("controller trace must be well-formed");

    // (2) BatteryDepleted is unreachable.
    assert!(
        !res.outcome
            .trace
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::BatteryDepleted { .. })),
        "controller emitted BatteryDepleted"
    );

    // (3) The battery is respected (per-leg commitment slack is 1e-9 J).
    assert!(
        res.outcome.energy_used.value() <= capacity * (1.0 + 1e-9) + 1e-6,
        "energy {} J exceeds capacity {} J",
        res.outcome.energy_used.value(),
        capacity
    );
    assert!(res.outcome.energy_used.value() >= 0.0);

    // (4) At least the pessimal direct-return baseline (give up at
    // launch, fly straight home, deliver nothing).
    let baseline = controller.fly(scenario, &CollectionPlan::empty(), cfg);
    assert!(baseline.outcome.completed);
    assert!(
        res.outcome.collected.value() >= baseline.outcome.collected.value(),
        "delivered less than the direct-return baseline"
    );

    // (5) Bit-identical replay from the same seeds.
    let replay = controller.fly(scenario, plan, cfg);
    assert_eq!(
        res.outcome.trace.fingerprint(),
        replay.outcome.trace.fingerprint(),
        "trace replay diverged"
    );
    assert_eq!(
        res.outcome.energy_used.value().to_bits(),
        replay.outcome.energy_used.value().to_bits()
    );
    assert_eq!(
        res.outcome.collected.value().to_bits(),
        replay.outcome.collected.value().to_bits()
    );
    assert_eq!(
        (res.replans, res.trimmed_hovers, res.dropped_stops),
        (replay.replans, replay.trimmed_hovers, replay.dropped_stops)
    );
    assert_eq!(res.executed.fingerprint(), replay.executed.fingerprint());

    // Calm equivalence: with no disturbances and no interventions the
    // closed loop is the open loop, bit for bit.
    if level == 0 && res.replans == 0 && res.trimmed_hovers == 0 && res.dropped_stops == 0 {
        let open = simulate(scenario, plan, cfg);
        assert_eq!(
            res.outcome.trace.fingerprint(),
            open.trace.fingerprint(),
            "calm uninterrupted mission must match the open loop"
        );
        assert_eq!(
            res.outcome.energy_used.value().to_bits(),
            open.energy_used.value().to_bits()
        );
        assert_eq!(
            res.outcome.collected.value().to_bits(),
            open.collected.value().to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The safe-return guarantee across the fault ladder: every case is
    /// one scenario × plan pair driven through all four fault levels.
    #[test]
    fn controller_safe_return(
        seed in 0u64..0xffff_ffff,
        scale in 20u64..60,
        planner_idx in 0u64..3,
    ) {
        let scenario = uniform(
            &ScenarioParams::default().scaled(scale as f64 / 1000.0),
            seed,
        );
        let (plan, planner) = plan_for(&scenario, planner_idx, seed);
        check_plan(&scenario, &plan, Profile::P3Partial).expect("planner emitted invalid plan");
        for level in 0..4u64 {
            let cfg = disturbances(level, seed);
            let result = catch_unwind(AssertUnwindSafe(|| {
                check_triple(&scenario, &plan, &cfg, level);
            }));
            if let Err(panic) = result {
                // Leave the triple where CI can pick it up as an artifact.
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(FAILING_SEEDS)
                {
                    let _ = writeln!(
                        f,
                        "seed={seed} scale={scale} planner={planner} level={level}"
                    );
                }
                resume_unwind(panic);
            }
        }
    }
}

/// A battery sized well below the plan's needs still comes home: the
/// controller repairs down to whatever fits, including the empty tour.
#[test]
fn starved_battery_still_returns() {
    for seed in 0..20u64 {
        let mut scenario = uniform(&ScenarioParams::default().scaled(0.03), seed);
        let plan = Alg2Planner::default().plan(&scenario);
        // Starve the battery *after* planning: the plan is now badly
        // over budget and the controller must shed load to survive.
        scenario.uav.capacity = plan.total_energy(&scenario) * 0.35;
        let cfg = disturbances(3, seed);
        let res = MissionController::default().fly(&scenario, &plan, &cfg);
        assert!(res.outcome.completed, "seed {seed}: mission died");
        assert!(
            res.outcome.energy_used.value() <= scenario.uav.capacity.value() * (1.0 + 1e-9) + 1e-6,
            "seed {seed}: battery overdrawn"
        );
        assert!(
            res.replans + res.dropped_stops + res.trimmed_hovers > 0,
            "seed {seed}: a 0.35x battery must force an intervention"
        );
    }
}
