//! Baseline betweenness-centrality algorithms.
//!
//! These are the comparators and oracles the reproduction needs:
//!
//! * [`brandes()`] — the exact O(|V||E|) algorithm of Brandes (Ref. \[8\] of the
//!   paper), sequential and source-parallel. The paper's Section II calls
//!   exact algorithms "hardly practical" beyond ~100M edges; the experiment
//!   harness uses Brandes both as ground truth for accuracy validation and
//!   to illustrate that cost gap.
//! * [`rk`] — the fixed-sample-size approximation of Riondato &
//!   Kornaropoulos (Ref. \[18\]), the non-adaptive predecessor of KADABRA;
//!   the ablation benches quantify how much adaptivity buys.
//! * [`brute`] — brute-force betweenness by exhaustive shortest-path
//!   enumeration; exponential, but an independent oracle for tiny graphs.
//!
//! All scores are **normalized**: `b(v) = (1/(n(n-1))) Σ_{s≠t} σ_st(v)/σ_st`
//! over ordered pairs, matching the paper's definition in Section I, so
//! results are directly comparable across all algorithms in the workspace.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod brandes;
pub mod brandes_variants;
pub mod brute;
pub mod rk;

pub use brandes::{brandes, brandes_parallel};
pub use brandes_variants::{
    brandes_directed, brandes_weighted, brute_force_directed, brute_force_weighted,
};
pub use brute::brute_force_betweenness;
pub use rk::{rk_betweenness, RkConfig};
