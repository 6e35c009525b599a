//! The [`GraphView`] abstraction: the minimal read-only adjacency surface
//! the traversal kernels ([`crate::bibfs`]) actually touch.
//!
//! The bidirectional sampler needs exactly four operations — vertex count,
//! degree, a *slice* of sorted neighbors (the slice-ness is load-bearing:
//! the inner scan prefetches `adj[j + 4]` while probing `adj[j]`), and an
//! optional adjacency-row prefetch hint. Abstracting those behind a trait
//! lets the same monomorphized kernel run over the immutable CSR
//! ([`crate::csr::Graph`]) and over overlay views that splice pending edge
//! updates on top of a base CSR (the `kadabra-dynamic` crate), without a
//! rebuild per update batch and without any dynamic dispatch in the hot
//! loop.

use crate::csr::{Graph, NodeId};

/// Read-only adjacency access over an `n`-vertex undirected graph with
/// sorted, duplicate-free neighbor rows.
///
/// Implementations must uphold the CSR canonical form the kernels assume:
/// `neighbors(v)` is strictly increasing, contains no self-loops, and the
/// edge relation is symmetric (`u ∈ neighbors(v) ⇔ v ∈ neighbors(u)`). The
/// one exception is private: a digraph's out-rows and in-rows, which the
/// kernel only ever reads as a pair, each the other's transpose.
pub trait GraphView {
    /// Number of vertices (vertex ids are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Degree of `v`. Must equal `self.neighbors(v).len()`.
    fn degree(&self, v: NodeId) -> usize;

    /// Sorted neighbor row of `v`.
    fn neighbors(&self, v: NodeId) -> &[NodeId];

    /// Whether the undirected edge `{u, v}` is present.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Hint that `neighbors(v)` is about to be scanned. Default: no-op.
    fn prefetch_neighbors(&self, _v: NodeId) {}
}

impl GraphView for Graph {
    #[inline]
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }

    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        Graph::prefetch_neighbors(self, v);
    }
}

impl<T: GraphView + ?Sized> GraphView for &T {
    #[inline]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        (**self).neighbors(v)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        (**self).prefetch_neighbors(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;

    fn view_roundtrip<G: GraphView>(g: &G) -> (usize, usize, bool) {
        (g.num_nodes(), g.degree(0), g.has_edge(0, 1))
    }

    #[test]
    fn csr_satisfies_the_view_surface() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (n, d0, e01) = view_roundtrip(&g);
        assert_eq!(n, 4);
        assert_eq!(d0, 2);
        assert!(e01);
        assert_eq!(GraphView::neighbors(&g, 1), &[0, 2]);
        assert!(!GraphView::has_edge(&g, 0, 2));
        // Reference-to-view also implements the trait (generic plumbing).
        let r: &dyn Fn() -> usize = &|| GraphView::num_nodes(&&g);
        assert_eq!(r(), 4);
    }
}
