//! Scenario model for UAV data collection from IoT sensor networks.
//!
//! This crate describes *what is on the ground and in the air* — the
//! paper's system model (§III.A–B) — independently of how tours are
//! planned:
//!
//! * [`units`] — thin newtypes for joules, seconds, metres, megabytes and
//!   their rates, so planner and simulator APIs cannot mix dimensions.
//! * [`IotDevice`] — an aggregate sensor node: position plus stored data
//!   volume (its own sensing data and what neighbours forwarded to it).
//! * [`topology`] — election of aggregate nodes from a raw deployment and
//!   forwarding of non-aggregate data to the nearest aggregate in range,
//!   producing the aggregate network the UAV serves.
//! * [`RadioModel`] — sensor transmission range `R`, uplink bandwidth `B`,
//!   and the derived hovering coverage radius `R0 = sqrt(R² − H²)`.
//! * [`UavSpec`] — battery capacity, speed, hover/travel powers
//!   (the paper's `η_h`, `η_t`) and flight altitude `H`.
//! * [`Scenario`] — a complete, validated instance: region, depot,
//!   aggregate devices, radio, UAV.
//! * [`FaultConfig`] — a pure-data disturbance regime (gust bursts,
//!   upload failures, device dropout) consumed by the `uavdc-sim` fault
//!   injector; always constructor-injected, never read from the
//!   environment.
//! * [`generator`] — seeded scenario generators, including
//!   [`generator::paper_default`] reproducing §VII.A exactly
//!   (500 nodes uniform in 1 km², `D_v ~ U[100, 1000]` MB, `R0 = 50` m,
//!   `B = 150` MB/s, `E = 3·10⁵` J, 10 m/s, `η_t = 100` J/s,
//!   `η_h = 150` J/s).

//!
//! # Example
//!
//! ```
//! use uavdc_net::generator::{uniform, ScenarioParams};
//!
//! let scenario = uniform(&ScenarioParams::default().scaled(0.1), 7);
//! assert_eq!(scenario.num_devices(), 50);
//! assert_eq!(scenario.validate(), Ok(()));
//! assert!((scenario.coverage_radius().value() - 50.0).abs() < 1e-9);
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

mod fault;
pub mod generator;
pub mod io;
mod radio;
mod scenario;
pub mod topology;
pub mod units;

pub use fault::FaultConfig;
pub use radio::RadioModel;
pub use scenario::{DeviceId, IotDevice, Scenario, UavSpec};
