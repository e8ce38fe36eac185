//! Tour planners for data collection from IoT devices with an
//! energy-constrained UAV.
//!
//! This crate implements the algorithmic contribution of *"Data Collection
//! of IoT Devices Using an Energy-Constrained UAV"* (Li, Liang, Xu, Jia —
//! IPPS 2020): plan a closed tour from a depot through hovering locations,
//! with a sojourn duration at each, maximising the volume of sensory data
//! collected subject to the UAV's battery, which drains both while
//! hovering (`η_h`) and while flying (`η_t`).
//!
//! # Planners
//!
//! | Planner | Paper | Problem |
//! |---|---|---|
//! | [`Alg1Planner`] | Algorithm 1 | full collection, **no** coverage overlap — reduction to orienteering on the Eq. 9 auxiliary graph |
//! | [`Alg2Planner`] | Algorithm 2 | full collection **with** coverage overlap — greedy max-ρ insertion with Christofides re-touring |
//! | [`Alg3Planner`] | Algorithm 3 | **partial** collection (`K` virtual hovering locations per real one) |
//! | [`BenchmarkPlanner`] | §VII.A benchmark | Christofides over all devices, then prune until feasible |
//!
//! All planners return a [`CollectionPlan`] that can be checked
//! independently against the scenario and the paper's problem with
//! [`validate::check_plan`] (and end-to-end with the `uavdc-sim`
//! discrete-event simulator).
//!
//! # Example
//!
//! ```
//! use uavdc_net::generator::{uniform, ScenarioParams};
//! use uavdc_core::validate::{check_plan, Profile};
//! use uavdc_core::{Alg2Planner, Planner};
//!
//! let params = ScenarioParams::default().scaled(0.05); // 25 devices
//! let scenario = uniform(&params, 42);
//! let plan = Alg2Planner::default().plan(&scenario);
//! check_plan(&scenario, &plan, Profile::P2FullOverlap).unwrap();
//! assert!(plan.total_energy(&scenario) <= scenario.uav.capacity);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::indexing_slicing
    )
)]

mod alg1;
mod alg2;
mod alg3;
mod auxgraph;
mod benchmark;
pub mod cache;
mod candidates;
pub mod greedy;
mod multi;
mod plan;
mod polish;
pub mod repair;
mod sweep;
mod tourutil;
pub mod validate;

pub use alg1::{Alg1Config, Alg1Planner, CandidateFilter};
pub use alg2::{Alg2Config, Alg2Planner, TourMode};
pub use alg3::{Alg3Config, Alg3Planner};
pub use auxgraph::AuxGraph;
pub use benchmark::{BenchmarkPlanner, BenchmarkSetup};
pub use cache::ArtifactCache;
pub use candidates::{Candidate, CandidateSet};
pub use greedy::{EngineMode, EvalCounters, PlanStats};
pub use multi::{
    FleetConfig, FleetPartition, FleetPlan, JointFleetPlanner, MultiUavPlanner, TeamAlg1Planner,
};
pub use plan::{CollectionPlan, HoverStop};
pub use polish::polish_plan;
pub use repair::{drop_to_fit, RepairOutcome, RepairStop};
pub use sweep::SweepPlanner;
pub use validate::PlanError;

use uavdc_net::Scenario;

/// A tour planner: consumes a scenario, produces a feasible plan.
pub trait Planner {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Plans a closed data-collection tour. Implementations must return a
    /// plan that passes [`validate::check_plan`] for the same scenario,
    /// under the [`validate::Profile`] of the problem they solve.
    fn plan(&self, scenario: &Scenario) -> CollectionPlan;
}
