//! # kadabra-mpi
//!
//! A Rust reproduction of *"Scaling Betweenness Approximation to Billions of
//! Edges by MPI-based Adaptive Sampling"* (van der Grinten & Meyerhenke,
//! IPDPS 2020): the KADABRA betweenness-approximation algorithm, its
//! epoch-based shared-memory parallelization, and its MPI-style distributed
//! parallelization, together with every substrate they need (graph storage,
//! generators, a simulated MPI runtime and a calibrated cluster simulator).
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`graph`] — CSR graphs, traversal, diameter, generators ([`kadabra_graph`]).
//! * [`epoch`] — the wait-free epoch-based aggregation framework ([`kadabra_epoch`]).
//! * [`mpisim`] — the simulated MPI runtime ([`kadabra_mpisim`]).
//! * [`telemetry`] — wait-free tracing, phase metrics and benchmark
//!   artifacts ([`kadabra_telemetry`]).
//! * [`cluster`] — the calibrated discrete-event cluster simulator
//!   ([`kadabra_cluster`]).
//! * [`core`] — the KADABRA algorithms themselves ([`kadabra_core`]).
//! * [`baselines`] — Brandes exact betweenness and non-adaptive samplers
//!   ([`kadabra_baselines`]).
//! * [`server`] — the resident multi-tenant centrality service
//!   ([`kadabra_server`]).
//! * [`dynamic`] — incremental betweenness on streaming edge updates
//!   ([`kadabra_dynamic`]).
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! # Example
//!
//! Approximate betweenness with a (ε, δ) guarantee, then verify against the
//! exact algorithm:
//!
//! ```
//! use kadabra_mpi::baselines::brandes;
//! use kadabra_mpi::core::{kadabra_sequential, KadabraConfig};
//! use kadabra_mpi::graph::generators::{barabasi_albert, BaConfig};
//!
//! let g = barabasi_albert(BaConfig { n: 300, m: 3, seed: 7 });
//! let cfg = KadabraConfig::new(0.05, 0.1);
//! let approx = kadabra_sequential(&g, &cfg);
//! let exact = brandes(&g);
//! let worst = approx
//!     .scores
//!     .iter()
//!     .zip(&exact)
//!     .map(|(a, e)| (a - e).abs())
//!     .fold(0.0_f64, f64::max);
//! assert!(worst <= cfg.epsilon);
//! ```
//!
//! Run the same computation on a simulated MPI cluster (Algorithm 2):
//!
//! ```
//! use kadabra_mpi::core::{kadabra_epoch_mpi, ClusterShape, KadabraConfig};
//! use kadabra_mpi::graph::generators::{barabasi_albert, BaConfig};
//!
//! let g = barabasi_albert(BaConfig { n: 200, m: 3, seed: 1 });
//! let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
//! let result = kadabra_epoch_mpi(&g, &KadabraConfig::new(0.1, 0.1), shape);
//! assert_eq!(result.scores.len(), 200);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use kadabra_baselines as baselines;
pub use kadabra_cluster as cluster;
pub use kadabra_core as core;
pub use kadabra_dynamic as dynamic;
pub use kadabra_epoch as epoch;
pub use kadabra_graph as graph;
pub use kadabra_mpisim as mpisim;
pub use kadabra_server as server;
pub use kadabra_telemetry as telemetry;

/// Workspace version, for experiment logs.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
