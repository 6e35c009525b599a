//! **Incremental betweenness on streaming graph updates** (DESIGN.md §14).
//!
//! The static pipeline answers "what is the betweenness of this graph";
//! this crate answers "…and of the graph five edits later" without paying
//! for a from-scratch adaptive run. Three pieces compose:
//!
//! * [`log`] — the [`log::DeltaLog`]: validated, deterministically
//!   sequenced batches of edge insertions/deletions, with periodic
//!   compaction back into a fresh CSR through recycled arena buffers.
//! * [`overlay`] — the [`overlay::DynamicGraph`] view (base CSR + delta
//!   overlay) that the existing bidirectional sampler traverses directly
//!   via the `GraphView` trait — no per-batch rebuild, no dispatch cost on
//!   untouched vertices.
//! * [`invalidate`] + [`engine`] — affected-pair detection (bounded BFS
//!   sweeps from the touched endpoints classify each retained sample as
//!   provably-valid or invalidated) and the ε-preserving re-sampling
//!   engine: only invalidated samples are redrawn, from dedicated
//!   per-`(seed, batch, rank, thread)` streams, through a τ-conserving
//!   ledger transaction — so the maintained estimate is bit-reproducibly a
//!   pure function of `(graph, update sequence, config, seed)` and stays
//!   within the (ε, δ) guarantee on the mutated graph.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)]

pub mod engine;
pub mod invalidate;
pub mod log;
pub mod overlay;

pub use engine::{DynamicEngine, UpdateReport};
pub use invalidate::{
    bfs_distances_into, classify_samples, vertex_diameter_bound, PathRec, PathStore, SweepScratch,
};
pub use log::{BatchStamp, DeltaLog, UpdateBatch, UpdateError};
pub use overlay::DynamicGraph;
