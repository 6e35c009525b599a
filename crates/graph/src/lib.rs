//! Graph substrate for the `kadabra-mpi` workspace.
//!
//! This crate plays the role that NetworKit plays for the original C++
//! implementation of the paper *"Scaling Betweenness Approximation to Billions
//! of Edges by MPI-based Adaptive Sampling"* (van der Grinten & Meyerhenke,
//! IPDPS 2020): it provides the static graph data structure and every graph
//! primitive the betweenness algorithms need.
//!
//! Contents:
//!
//! * [`csr`] — compressed sparse row storage with 32-bit vertex identifiers
//!   (the paper configures NetworKit the same way), plus a builder that
//!   normalizes arbitrary edge lists (dedup, self-loop removal, symmetrization).
//! * [`bfs`] — breadth-first search kernels: distances, eccentricities,
//!   shortest-path counting (the σ values of Brandes' algorithm).
//! * [`bibfs`] — the balanced **bidirectional BFS** used by KADABRA to sample a
//!   uniformly random shortest path between a random vertex pair.
//! * [`diameter`] — two-sweep lower bound and the iFUB exact-diameter
//!   algorithm (the technique behind the sequential diameter phase, Ref. \[6\]
//!   of the paper).
//! * [`components`] — connected components; the experiments (like the paper)
//!   run on the largest connected component.
//! * [`generators`] — synthetic instances: R-MAT with Graph500 parameters,
//!   random hyperbolic graphs with power-law exponent 3, Erdős–Rényi G(n,m)
//!   and road-network-like grids. These replace the KONECT/SNAP downloads of
//!   the paper's Table I (see DESIGN.md §3).
//! * [`io`] — plain-text edge-list parsing/writing and a compact binary
//!   format for caching generated instances.
//! * [`scratch`] — reusable per-thread traversal buffers. Each KADABRA sample
//!   is a BFS, so avoiding per-sample allocation is critical (Section IV of
//!   the paper takes a sample in <10ms on billion-edge graphs).
//! * [`prefetch`] — best-effort software prefetch hints used by the sampling
//!   hot path (see DESIGN.md §11).
//! * [`source`] — the sample-source hook: [`PathSource`] ("draw a uniform
//!   shortest path") and [`KadabraGraph`] (plus a vertex-diameter bound),
//!   the only two things the drivers of `kadabra-core` ask of a graph, so
//!   [`digraph`] and [`weighted`] graphs run Algorithms 1 and 2 unchanged
//!   (the paper's footnote 1).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)]

pub mod bfs;
pub mod bibfs;
pub mod components;
pub mod csr;
pub mod diameter;
pub mod digraph;
pub mod generators;
pub mod io;
pub mod prefetch;
pub mod scratch;
pub mod source;
pub mod stats;
pub mod sumsweep;
pub mod view;
pub mod weighted;

pub use csr::{CsrArena, Graph, GraphBuilder, NodeId, Permutation};
pub use scratch::TraversalScratch;
pub use source::{KadabraGraph, PathSource};
pub use view::GraphView;

/// Convenience result alias used by fallible graph routines (IO, parsing).
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id ≥ the declared vertex count.
    VertexOutOfRange {
        /// The out-of-range vertex id.
        vertex: u64,
        /// The declared vertex count.
        n: u64,
    },
    /// The input graph would exceed the 32-bit vertex id space.
    TooManyVertices(u64),
    /// Text parsing failed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// What went wrong on that line.
        msg: String,
    },
    /// Binary format corruption.
    Corrupt(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex id {vertex} out of range for graph with {n} vertices")
            }
            GraphError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the 32-bit vertex id space")
            }
            GraphError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            GraphError::Corrupt(msg) => write!(f, "corrupt binary graph: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
