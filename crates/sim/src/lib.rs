//! Discrete-event simulation of UAV data-collection missions.
//!
//! The planners in `uavdc-core` reason about a mission analytically; this
//! crate *executes* a `CollectionPlan` leg by leg and stop by stop:
//!
//! * the UAV flies at constant speed, draining `η_t` joules per second;
//! * at each stop it hovers for the planned sojourn, draining `η_h`,
//!   while every device scheduled there uploads concurrently at bandwidth
//!   `B` (the paper's OFDMA model), truncated by the device's remaining
//!   data;
//! * the battery is tracked continuously — if it empties mid-leg or
//!   mid-hover the mission aborts on the spot and everything collected so
//!   far is what the UAV brings home.
//!
//! The simulator is the *independent* check on the planners: it shares no
//! accounting code with them, so a plan whose simulated outcome matches
//! its claimed volume and energy is validated end to end
//! ([`SimOutcome::agrees_with_plan`]).
//!
//! [`WindModel`] adds seeded per-leg headwind noise for robustness
//! studies: planners budget nominal energy, reality costs more, and the
//! completion-rate-vs-margin trade-off is measured by the bench harness.
//! [`FaultPlan`] layers deterministic fault injection on top (gust
//! bursts, upload retry/backoff, device dropout), and
//! [`MissionController`] closes the loop: it re-estimates remaining cost
//! in flight, repairs the plan online (trimming hovers, dropping
//! low-value stops) and guarantees a safe return to the depot whenever
//! one is physically possible.

//!
//! # Example
//!
//! ```
//! use uavdc_net::generator::{uniform, ScenarioParams};
//! use uavdc_core::{Alg2Planner, Planner};
//! use uavdc_sim::{simulate, MissionReport, SimConfig};
//!
//! let scenario = uniform(&ScenarioParams::default().scaled(0.05), 1);
//! let plan = Alg2Planner::default().plan(&scenario);
//! let outcome = simulate(&scenario, &plan, &SimConfig::default());
//! assert!(outcome.completed);
//! assert!(outcome.agrees_with_plan(&plan, &scenario));
//! let report = MissionReport::new(&outcome, &scenario);
//! assert!(report.energy_headroom >= 0.0);
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

mod controller;
mod event;
mod fault;
mod periodic;
mod report;
mod sim;
mod wind;

pub use controller::{ControlOutcome, ControllerConfig, MissionController};
pub use event::{SimEvent, SimTrace};
pub use fault::{FaultPlan, UploadFault};
pub use periodic::{run_periodic, PeriodicConfig, PeriodicOutcome, RoundStats};
pub use report::{write_trace_csv, MissionReport};
pub use sim::{simulate, CollectionPolicy, SimConfig, SimOutcome};
pub use wind::{LinkModel, WindModel};
