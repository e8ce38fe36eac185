//! Dense metric graph algorithms for UAV tour planning.
//!
//! The planners in `uavdc-core` repeatedly need classic combinatorial
//! machinery over complete Euclidean/metric graphs:
//!
//! * **Christofides' TSP heuristic** \[Christofides 1976\] — the tour
//!   subroutine of the paper's Algorithm 2, Algorithm 3, and benchmark
//!   heuristic. Built here from its three ingredients:
//!   [`mst::prim_mst`], a minimum-weight perfect matching
//!   ([`matching::min_weight_perfect_matching`]: exact DP for small
//!   instances, otherwise a sparse blossom on nearest-neighbour edges
//!   whose answer is certified equal to the dense O(n³) blossom's, which
//!   is the fallback; plus a greedy mode), and a Hierholzer Euler circuit
//!   ([`euler::euler_circuit`]).
//! * **Tour improvement** — the 2-opt local-search kernel ([`improve`]).
//! * **Incremental tour maintenance** — the cached-distance tour mirror
//!   and batch insertion kernels of the lazy greedy loops
//!   ([`incremental`]).
//! * **Exact TSP** — Held–Karp dynamic programming for small instances
//!   ([`exact::held_karp`]), the ground truth of the tests. No planner
//!   calls it.
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
        clippy::float_cmp,
        clippy::indexing_slicing
    )
)]

pub mod bound;
pub mod christofides;
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
