//! The sample-source hook: all that Algorithms 1 and 2 know of a graph.
//!
//! Footnote 1 of the paper: the parallelization "also appl\[ies\] to directed
//! and/or weighted graphs if the required modifications to the underlying
//! sampling algorithm are done". `SAMPLE()` is the only line of either
//! algorithm that touches the graph, so the drivers of `kadabra-core` are
//! generic over [`PathSource`] (draw a uniform shortest path) and, for
//! set-up, [`KadabraGraph`] (bound the vertex diameter). DESIGN.md §5 says
//! what each impl guarantees. The traits live beside the graph types because
//! coherence accepts a blanket impl next to concrete ones only where trait
//! and types share a crate.

use crate::bibfs::{sample_shortest_path_into, SearchStats};
use crate::csr::{Graph, NodeId};
use crate::diameter::diameter;
use crate::scratch::TraversalScratch;
use crate::view::GraphView;
use rand::Rng;

/// Anything a sampling thread can draw uniform shortest paths from.
///
/// Deliberately not `Sync`: a driver that shares its source across threads
/// asks for `+ Sync` at its own bound.
pub trait PathSource {
    /// Number of vertices (vertex ids are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Draws a uniformly random shortest path from `s` to `t` (`s ≠ t`),
    /// leaving its interior vertices in `scratch.path`, and returns its
    /// length in hops; `None`, with `scratch.path` empty, when `t` is
    /// unreachable from `s`. `scratch` is sized for this source's vertex
    /// count; search statistics are accumulated into `stats` by the
    /// implementations that keep them.
    fn sample_path_into<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut TraversalScratch,
        rng: &mut R,
        stats: &mut SearchStats,
    ) -> Option<u32>;
}

impl<G: GraphView> PathSource for G {
    #[inline]
    fn num_nodes(&self) -> usize {
        GraphView::num_nodes(self)
    }

    #[inline]
    fn sample_path_into<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut TraversalScratch,
        rng: &mut R,
        stats: &mut SearchStats,
    ) -> Option<u32> {
        sample_shortest_path_into(self, s, t, scratch, rng, stats).map(|info| info.distance)
    }
}

/// A [`PathSource`] a driver can run on from set-up to scores.
pub trait KadabraGraph: PathSource {
    /// Upper bound on the vertex diameter (vertices of the longest shortest
    /// path) — the input to ω. ω is a sample *cap*, so the bound must hold;
    /// it enters as ⌊log₂(VD − 2)⌋, so a loose one costs a few log-steps.
    /// `bfs_budget` caps the searches of implementations that refine
    /// iteratively (0 = run to certainty).
    fn vertex_diameter_upper(&self, bfs_budget: u32) -> u32;
}

impl KadabraGraph for Graph {
    /// iFUB rooted at a maximum-degree vertex (a good start on complex
    /// networks); out of budget it falls back to the valid `2·ecc`.
    fn vertex_diameter_upper(&self, bfs_budget: u32) -> u32 {
        let Some(root) = (0..self.num_nodes() as NodeId).max_by_key(|&v| self.degree(v)) else {
            return 0;
        };
        diameter(self, root, bfs_budget).vertex_diameter_upper()
    }
}
