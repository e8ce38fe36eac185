//! Dense metric graph algorithms for UAV tour planning.
//!
//! The planners in `uavdc-core` repeatedly need classic combinatorial
//! machinery over complete Euclidean/metric graphs:
//!
//! * **Christofides' TSP heuristic** \[Christofides 1976\] — the tour
//!   subroutine of the paper's Algorithm 2, Algorithm 3, and benchmark
//!   heuristic. Built here from its three ingredients:
//!   [`mst::prim_mst`], a minimum-weight perfect matching
//!   ([`matching::min_weight_perfect_matching`], exact DP for small
//!   instances, an O(n³) blossom algorithm in general, plus a fast greedy
//!   mode), and a Hierholzer Euler circuit ([`euler::euler_circuit`]).
//! * **Tour construction heuristics** — nearest neighbour and cheapest
//!   insertion ([`construction`]), the latter also exposing the O(n)
//!   *insertion delta* used by the fast candidate-ranking mode of
//!   Algorithm 2.
//! * **Tour improvement** — 2-opt and Or-opt local search ([`improve`]).
//! * **Exact TSP** — Held–Karp dynamic programming for small instances
//!   ([`exact::held_karp`]), used as ground truth in tests and for tiny
//!   tours inside the planners.
//!
//! All algorithms operate on a [`DistMatrix`], a dense symmetric matrix of
//! non-negative edge weights; tours are permutations of `0..n` wrapped in
//! [`Tour`].
//!
//! # Example
//!
//! ```
//! use uavdc_graph::{DistMatrix, christofides::christofides};
//!
//! // Four corners of a unit square: optimal tour length 4.
//! let pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
//! let m = DistMatrix::from_euclidean(&pts);
//! let tour = christofides(&m);
//! assert!(tour.length(&m) <= 1.5 * 4.0 + 1e-9);
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

pub mod bound;
pub mod christofides;
pub mod construction;
pub mod euler;
pub mod exact;
pub mod improve;
pub mod incremental;
pub mod matching;
mod matrix;
pub mod mst;
mod tour;

pub use matrix::DistMatrix;
pub use tour::Tour;
