//! # uavdc — UAV data collection for IoT sensor networks
//!
//! A Rust implementation of *"Data Collection of IoT Devices Using an
//! Energy-Constrained UAV"* (Li, Liang, Xu, Jia — IPPS 2020): plan closed
//! tours for a battery-limited UAV that hovers over grid locations and
//! collects stored sensory data from every IoT device within its coverage
//! disc simultaneously, maximising the volume brought home.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`geom`] | points, grids, discs, spatial index |
//! | [`graph`] | MST, blossom matching, Euler tours, Christofides, TSP heuristics |
//! | [`orienteering`] | exact/greedy/GRASP orienteering solvers |
//! | [`net`] | units, radio model, UAV spec, scenarios, generators |
//! | [`obs`] | recorders (spans, counters, histograms) the planners report to |
//! | [`core`] | the planners: Algorithms 1–3 and the benchmark |
//! | [`sim`] | discrete-event mission simulator |
//!
//! # Quickstart
//!
//! ```
//! use uavdc::prelude::*;
//!
//! // A scaled-down version of the paper's setting (25 devices).
//! let params = ScenarioParams::default().scaled(0.05);
//! let scenario = uniform(&params, 42);
//!
//! // Plan with the overlap-aware greedy (the paper's Algorithm 2)...
//! let plan = Alg2Planner::default().plan(&scenario);
//! check_plan(&scenario, &plan, Profile::P2FullOverlap).unwrap();
//!
//! // ...and fly it in the discrete-event simulator.
//! let outcome = simulate(&scenario, &plan, &SimConfig::default());
//! assert!(outcome.completed);
//! assert!(outcome.agrees_with_plan(&plan, &scenario));
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
        clippy::float_cmp
    )
)]

pub use uavdc_core as core;
pub use uavdc_geom as geom;
pub use uavdc_graph as graph;
pub use uavdc_net as net;
pub use uavdc_obs as obs;
pub use uavdc_orienteering as orienteering;
pub use uavdc_sim as sim;

pub mod viz;

/// The most common imports, for `use uavdc::prelude::*`.
pub mod prelude {
    pub use uavdc_core::validate::{check_fleet, check_plan, Profile};
    pub use uavdc_core::{
        Alg1Config, Alg1Planner, Alg2Config, Alg2Planner, Alg3Config, Alg3Planner,
        BenchmarkPlanner, CollectionPlan, FleetConfig, FleetPartition, FleetPlan, HoverStop,
        MultiUavPlanner, PlanError, Planner,
    };
    pub use uavdc_geom::Point2;
    pub use uavdc_net::generator::{clustered, paper_default, two_tier, uniform, ScenarioParams};
    pub use uavdc_net::units::{
        megabytes_as_gb, Joules, MegaBytes, MegaBytesPerSecond, Meters, MetersPerSecond, Seconds,
        Watts,
    };
    pub use uavdc_net::{DeviceId, IotDevice, RadioModel, Scenario, UavSpec};
    pub use uavdc_sim::{simulate, CollectionPolicy, SimConfig, SimOutcome, WindModel};
}
