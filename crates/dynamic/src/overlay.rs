//! The overlay graph view: a base CSR plus materialized rows for the
//! vertices touched by pending edge updates.
//!
//! [`DynamicGraph`] implements [`GraphView`], so the existing bidirectional
//! sampler traverses it directly — no per-batch CSR rebuild, no dynamic
//! dispatch in the hot loop (the kernels monomorphize over the view). The
//! design trades a tiny indirection on *touched* vertices (one `row_of`
//! lookup steering to a materialized `Vec` row) for zero cost on untouched
//! ones, whose adjacency slices still come straight out of the base CSR.
//!
//! Periodic compaction (`DynamicGraph::compact_into`) folds the overlay
//! back into a fresh CSR built through a recycled [`CsrArena`], preserving
//! the vertex labeling — compaction is invisible to every consumer of the
//! view (same adjacency, same ids), which the proptests in
//! `tests/overlay_equivalence.rs` pin down.

use kadabra_graph::{CsrArena, Graph, GraphBuilder, GraphView, NodeId};

use crate::log::UpdateBatch;

/// `row_of` sentinel: the vertex's adjacency still lives in the base CSR.
const UNTOUCHED: u32 = u32::MAX;

/// A base CSR plus an overlay of materialized adjacency rows for vertices
/// touched by applied [`UpdateBatch`]es.
///
/// Mutation is crate-private on purpose: the only sanctioned write path is
/// the [`crate::log::DeltaLog`], which validates and sequences batches
/// before they reach the overlay (the `delta-confinement` lint pass guards
/// the same boundary at the workspace level).
pub struct DynamicGraph {
    base: Graph,
    /// Per-vertex steering: index into `rows`, or [`UNTOUCHED`].
    row_of: Vec<u32>,
    /// Materialized sorted neighbor rows for touched vertices.
    rows: Vec<Vec<NodeId>>,
    /// Current undirected edge count (base ± applied deltas).
    num_edges: usize,
}

impl DynamicGraph {
    /// Wraps a base CSR with an empty overlay.
    pub fn new(base: Graph) -> Self {
        let n = base.num_nodes();
        let m = base.num_edges();
        DynamicGraph { base, row_of: vec![UNTOUCHED; n], rows: Vec::new(), num_edges: m }
    }

    /// The underlying base CSR (compaction folds the overlay into it).
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Current undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of vertices whose rows are materialized in the overlay.
    pub fn touched_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Visits every current undirected edge as `(u, v)` with `u < v`, in
    /// vertex-then-neighbor order.
    pub fn for_each_edge<F: FnMut(NodeId, NodeId)>(&self, mut f: F) {
        for u in 0..self.base.num_nodes() as NodeId {
            for &v in self.neighbors(u) {
                if u < v {
                    f(u, v);
                }
            }
        }
    }

    /// Materializes (or locates) the overlay row of `v`, reserving room for
    /// `extra` further insertions so [`Self::apply_edits`] never reallocates.
    fn ensure_row(&mut self, v: NodeId, extra: usize) {
        let slot = self.row_of[v as usize];
        if slot != UNTOUCHED {
            self.rows[slot as usize].reserve(extra);
            return;
        }
        let base_row = self.base.neighbors(v);
        let mut row = Vec::with_capacity(base_row.len() + extra);
        row.extend_from_slice(base_row);
        // xtask: allow(determinism) — at most one row per vertex and
        // `NodeId` is u32, so the row index always fits (UNTOUCHED is MAX).
        self.row_of[v as usize] = self.rows.len() as u32;
        self.rows.push(row);
    }

    /// Applies a validated batch: materializes the rows of every touched
    /// endpoint, then runs the in-place edit kernel.
    ///
    /// The batch must already be validated against this view (every delete
    /// present, every insert absent) — [`crate::log::DeltaLog::append`] is
    /// the public entry that guarantees it.
    pub(crate) fn apply_batch(&mut self, batch: &UpdateBatch) {
        for &(u, v) in batch.inserts() {
            self.ensure_row(u, 1);
            self.ensure_row(v, 1);
        }
        for &(u, v) in batch.deletes() {
            self.ensure_row(u, 0);
            self.ensure_row(v, 0);
        }
        self.apply_edits(batch);
    }

    /// In-place edit kernel over pre-materialized, pre-reserved rows: sorted
    /// removes then sorted inserts, both endpoints per edge. Performs no
    /// heap allocation (hot-loop-hygiene scoped — see `kadabra-lint`).
    fn apply_edits(&mut self, batch: &UpdateBatch) {
        for &(u, v) in batch.deletes() {
            self.remove_directed(u, v);
            self.remove_directed(v, u);
            self.num_edges -= 1;
        }
        for &(u, v) in batch.inserts() {
            self.insert_directed(u, v);
            self.insert_directed(v, u);
            self.num_edges += 1;
        }
    }

    fn row_mut(&mut self, v: NodeId) -> &mut Vec<NodeId> {
        let slot = self.row_of[v as usize];
        debug_assert_ne!(slot, UNTOUCHED, "row must be materialized before editing");
        &mut self.rows[slot as usize]
    }

    fn insert_directed(&mut self, u: NodeId, v: NodeId) {
        let row = self.row_mut(u);
        match row.binary_search(&v) {
            Err(pos) => row.insert(pos, v),
            Ok(_) => panic!("insert of existing edge {u}-{v} reached the overlay unvalidated"),
        }
    }

    fn remove_directed(&mut self, u: NodeId, v: NodeId) {
        let row = self.row_mut(u);
        match row.binary_search(&v) {
            Ok(pos) => {
                row.remove(pos);
            }
            Err(_) => panic!("delete of missing edge {u}-{v} reached the overlay unvalidated"),
        }
    }

    /// Folds the overlay into a fresh base CSR built through `arena`'s
    /// recycled buffers, preserving the vertex labeling, and clears the
    /// overlay. The view's adjacency is bit-identical before and after.
    pub(crate) fn compact_into(&mut self, arena: &mut CsrArena) {
        let n = self.base.num_nodes();
        let mut b = GraphBuilder::with_capacity(n, self.num_edges);
        self.for_each_edge(|u, v| {
            #[expect(
                clippy::unwrap_used,
                reason = "edges come from a canonical view, so they are in-range, deduplicated, \
                          and self-loop free"
            )]
            b.add_edge(u, v).unwrap();
        });
        let rebuilt = b.build_in(arena);
        debug_assert_eq!(rebuilt.num_edges(), self.num_edges);
        let old = std::mem::replace(&mut self.base, rebuilt);
        arena.recycle(old);
        self.row_of.fill(UNTOUCHED);
        self.rows.clear();
    }
}

impl GraphView for DynamicGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        let slot = self.row_of[v as usize];
        if slot == UNTOUCHED {
            self.base.degree(v)
        } else {
            self.rows[slot as usize].len()
        }
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let slot = self.row_of[v as usize];
        if slot == UNTOUCHED {
            self.base.neighbors(v)
        } else {
            &self.rows[slot as usize]
        }
    }

    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        if self.row_of[v as usize] == UNTOUCHED {
            self.base.prefetch_neighbors(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::csr::graph_from_edges;

    fn batch(ins: &[(NodeId, NodeId)], del: &[(NodeId, NodeId)]) -> UpdateBatch {
        UpdateBatch::new(ins.to_vec(), del.to_vec()).expect("valid batch")
    }

    #[test]
    fn overlay_splices_edits_over_the_base_csr() {
        // Path 0-1-2-3, then delete {1,2} and insert {0,2}, {1,3}.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut d = DynamicGraph::new(g);
        assert_eq!(d.num_edges(), 3);
        d.apply_batch(&batch(&[(0, 2), (1, 3)], &[(1, 2)]));
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.neighbors(0), &[1, 2]);
        assert_eq!(d.neighbors(1), &[0, 3]);
        assert_eq!(d.neighbors(2), &[0, 3]);
        assert_eq!(d.neighbors(3), &[1, 2]);
        assert_eq!(d.degree(1), 2);
        assert!(d.has_edge(1, 3) && !d.has_edge(1, 2));
        // Vertex 3's row was touched; untouched vertices still read the
        // base CSR (same slice address).
        assert_eq!(d.touched_vertices(), 4);
    }

    #[test]
    fn compaction_preserves_adjacency_and_labeling() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut d = DynamicGraph::new(g);
        d.apply_batch(&batch(&[(0, 2)], &[(3, 4)]));
        let before: Vec<Vec<NodeId>> = (0..5).map(|v| d.neighbors(v as NodeId).to_vec()).collect();
        let mut arena = CsrArena::new();
        d.compact_into(&mut arena);
        assert_eq!(d.touched_vertices(), 0, "compaction clears the overlay");
        for (v, row) in before.iter().enumerate() {
            assert_eq!(d.neighbors(v as NodeId), row.as_slice(), "vertex {v} row moved");
            assert_eq!(d.base().neighbors(v as NodeId), row.as_slice());
        }
        assert_eq!(d.num_edges(), d.base().num_edges());
    }
}
