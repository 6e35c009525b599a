//! **KADABRA adaptive-sampling betweenness approximation** — sequential,
//! shared-memory parallel (epoch-based, Euro-Par'19) and MPI-parallel
//! (IPDPS'20), the primary contribution of the reproduced paper.
//!
//! The algorithm (Section III-A of the paper) estimates the normalized
//! betweenness `b(v)` of every vertex by sampling random vertex pairs and
//! uniform random shortest paths between them; `b̃(v) = c̃(v)/τ` where `c̃(v)`
//! counts sampled paths with `v` in their interior. It improves on fixed-size
//! sampling (RK) by *adaptive stopping*: sampling ends as soon as the
//! per-vertex confidence bounds `f` and `g` simultaneously drop below ε for
//! all vertices (with a statically precomputed hard cap of ω samples).
//!
//! Execution modes, in increasing order of paper fidelity:
//!
//! | Function | Paper analogue |
//! |---|---|
//! | [`kadabra_sequential`] | KADABRA as in Borassi & Natale (Ref. \[7\]) |
//! | [`kadabra_naive_parallel`] | the "simple" parallelization dismissed in Section III-B |
//! | [`kadabra_shared`] | the epoch-based shared-memory state of the art (Ref. \[24\]): Algorithm 2 at P = 1 |
//! | [`kadabra_mpi_flat`] | **Algorithm 1**: pure-MPI adaptive sampling |
//! | [`kadabra_epoch_mpi`] | **Algorithm 2**: Algorithm 1's rank body with epoch workers and a hierarchical reduction |
//!
//! All modes share the same three phases (Section III-A): diameter
//! computation → calibration of the per-vertex failure probabilities
//! δ_L/δ_U → adaptive sampling; see [`phases`].
//!
//! Every mode samples through one hook, [`kadabra_graph::PathSource`], so
//! the same functions run on a `DiGraph` or a `WeightedGraph` (the paper's
//! footnote 1). Every one-shot driver samples the graph it is given, in the
//! caller's vertex ids, and holds no second copy of it. A caller that runs
//! many solves on one graph may relabel it by degree first
//! (`Graph::relabel_by_degree`) and map the scores back through the
//! `Permutation`, as a resident server tenant does (DESIGN.md §11.1).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)]

pub mod bounds;
pub mod calibration;
pub mod chaos;
pub mod config;
pub mod elastic;
pub mod epoch_mpi;
pub mod mpi;
pub mod naive;
pub mod phases;
pub mod pool;
pub mod recovery;
pub mod result;
pub mod revalidate;
pub mod sampler;
pub mod sequential;
pub mod shared;
mod sync;
pub mod topk;

pub use bounds::{achieved_epsilon, f_bound, g_bound, omega};
pub use calibration::Calibration;
pub use chaos::{kadabra_epoch_mpi_observed, kadabra_mpi_flat_observed, ChaosOptions, ChaosReport};
pub use config::{ClusterShape, KadabraConfig, KernelOptions};
pub use elastic::{kadabra_mpi_flat_elastic, planned_admissions, ElasticOptions};
pub use epoch_mpi::{kadabra_epoch_mpi, kadabra_epoch_mpi_traced};
pub use mpi::{kadabra_mpi_flat, kadabra_mpi_flat_traced, RankState, SampleSink, Stream};
pub use naive::kadabra_naive_parallel;
pub use phases::{prepare, prepare_for_pool, Prepared};
pub use pool::{EngineCheckpoint, PoolStatus, RoundReport, SamplerPool};
pub use recovery::{own_crash_or_fatal, shrink_and_rebuild, CheckpointError, SampleLedger};
pub use result::{BetweennessResult, PhaseTimings, SamplingStats};
pub use revalidate::{resample_invalidated, ResampleScratch, ValidityBitmap};
pub use sampler::ThreadSampler;
pub use sequential::{kadabra_sequential, kadabra_sequential_traced};
pub use shared::{kadabra_shared, kadabra_shared_traced, phase_timings_from, sampling_stats_from};
pub use topk::{
    confidence_intervals, confident_top_k, kadabra_topk, AdaptiveTopKResult, ConfidenceInterval,
    TopKResult,
};
