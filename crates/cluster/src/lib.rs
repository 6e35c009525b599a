//! **Calibrated discrete-event simulation (DES) of an MPI cluster** running
//! adaptive-sampling betweenness approximation.
//!
//! Why this exists: the paper's headline results (Figs. 2-4, Table II) are
//! wall-clock measurements on a 16-node Omni-Path cluster; this reproduction
//! runs in a container with **one CPU core**, where real multi-node speedups
//! are physically unobservable. The DES reproduces the *performance shape*
//! of the paper's experiments with a hybrid strategy (DESIGN.md §3):
//!
//! * **Compute costs are real measurements.** Before a simulation, the
//!   [`calibrate::CostModel`] measures, on this machine and the actual input
//!   graph: per-sample durations (empirical distribution of real
//!   bidirectional-BFS samples), the per-vertex stopping-check cost, and the
//!   per-byte frame-aggregation cost.
//! * **Samples are real samples.** The simulated threads draw real shortest
//!   paths from the real graph with the same per-thread RNG streams as the
//!   threaded implementation, so epoch counts, sample totals and stopping
//!   decisions are statistically faithful, not synthetic.
//! * **Parallelism and the interconnect are simulated.** Virtual threads
//!   interleave in virtual time; collectives follow a Hockney α-β model with
//!   binomial trees ([`spec::NetworkModel`]); NUMA placement effects follow
//!   the paper's reported 20-30% sampling penalty for sockets-spanning
//!   processes (Section IV-E).
//!
//! The simulator executes the paper's **Algorithm 2** control flow (epoch
//! framework + hierarchical aggregation + `Ibarrier`-then-blocking-`Reduce`)
//! event by event, and can switch to the `MPI_Ireduce` and fully-blocking
//! variants for the Section IV-F ablation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)]

pub mod calibrate;
pub mod sim;
pub mod sim_naive;
pub mod spec;

pub use calibrate::CostModel;
pub use sim::{
    simulate, simulate_perturbed, simulate_traced, ReduceStrategy, SimConfig, SimReport,
};
pub use sim_naive::simulate_naive;
pub use spec::{ClusterSpec, NetworkModel};
