//! Centrality-as-a-service: a resident, multi-tenant betweenness server
//! over the KADABRA sampling stack (DESIGN.md §13).
//!
//! Instead of running the driver to completion per request, the server
//! keeps each named graph *resident* as a [`Tenant`]: a sampler pool
//! ([`kadabra_core::pool::SamplerPool`] — Algorithm 1's rank body on parked
//! rank state, with its ledger/recovery protocol) that tightens ε round by
//! round, publishing every consistent frame into a lock-free
//! [`cache::EstimateCache`] that queries read without ever blocking
//! refinement.
//!
//! The moving pieces:
//!
//! - **[`cache`]** — double-buffered seqlock frontier plus write-once frozen
//!   ε stages; the read path takes no locks and performs no allocation.
//! - **[`prepared`]** — the per-graph setup (relabel, diameter) as one
//!   [`PreparedGraph`], shared by every tenant a server builds on that
//!   graph.
//! - **[`tenant`]** — one tenant's calibration, its pool (deterministic fixed-length rounds, crash-fault
//!   tolerance by shrink-and-continue, ledger checkpoint — all
//!   `kadabra_core::pool`'s), query read paths, and refinement entry.
//! - **[`admission`]** — per-tenant bounded in-flight/queue gate with
//!   load-shed.
//! - **`server`** — the [`Server`]/[`Client`] front-end; every request is
//!   a telemetry span.
//! - **[`wire`]** — line-delimited JSON over TCP, a thin shell over
//!   [`Client`].
//! - **[`testkit`]** — seed-addressed deterministic fixtures for the
//!   service-level test harness.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
pub mod cache;
pub mod prepared;
mod server;
mod sync;
pub mod tenant;
pub mod testkit;
pub mod wire;

pub use prepared::PreparedGraph;
pub use server::{Client, QueryError, Server, ServerConfig, SERVICE_RANK};
pub use tenant::{
    EstimateMeta, QueryScratch, RefineOutcome, ResizeOutcome, Tenant, TenantConfig, UpdateOutcome,
    VertexEstimate,
};
