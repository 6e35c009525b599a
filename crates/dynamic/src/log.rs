//! The delta log: validated, deterministically sequenced edge-update
//! batches over a [`DynamicGraph`], with periodic compaction back into a
//! fresh CSR through recycled [`CsrArena`] buffers.
//!
//! Every mutation of a tenant graph flows through [`DeltaLog::append`] —
//! the single write path, since the overlay's mutators are private to this
//! crate. `append` validates the batch against the *current* view
//! (every delete present, every insert absent, no duplicate within the
//! batch), applies it to the overlay, and assigns it the next batch
//! sequence number. The maintained estimate is a pure function of
//! `(graph, update sequence, config, seed)`, so the sequencing is part of
//! the determinism contract: batch `k` is the state after exactly `k`
//! appends, regardless of when compaction ran.

use kadabra_graph::{CsrArena, Graph, GraphView, NodeId};
use std::sync::Arc;

use crate::overlay::DynamicGraph;

/// Why a proposed update batch was rejected. Rejected batches leave the
/// log and the view untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An endpoint pair with `u == v`.
    SelfLoop {
        /// The offending vertex.
        v: NodeId,
    },
    /// An endpoint outside `0..num_nodes`.
    OutOfRange {
        /// The offending vertex.
        v: NodeId,
        /// The view's vertex count.
        n: usize,
    },
    /// The same undirected edge named twice in one batch (in either list).
    DuplicateInBatch {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
    /// An insertion of an edge the current view already has.
    InsertExisting {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
    /// A deletion of an edge the current view does not have.
    DeleteMissing {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            UpdateError::SelfLoop { v } => write!(f, "self-loop at vertex {v}"),
            UpdateError::OutOfRange { v, n } => {
                write!(f, "vertex {v} out of range for a {n}-vertex graph")
            }
            UpdateError::DuplicateInBatch { u, v } => {
                write!(f, "edge {u}-{v} named more than once in the batch")
            }
            UpdateError::InsertExisting { u, v } => {
                write!(f, "insert of existing edge {u}-{v}")
            }
            UpdateError::DeleteMissing { u, v } => {
                write!(f, "delete of missing edge {u}-{v}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// A normalized batch of edge updates: insertions and deletions as
/// `(u, v)` pairs with `u < v`, each list sorted and duplicate-free, and no
/// edge named in both lists.
///
/// Normalization happens in [`UpdateBatch::new`]; graph-dependent
/// validation (presence/absence, vertex range) happens when the batch
/// reaches a [`DeltaLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateBatch {
    inserts: Vec<(NodeId, NodeId)>,
    deletes: Vec<(NodeId, NodeId)>,
}

fn normalize(mut edges: Vec<(NodeId, NodeId)>) -> Result<Vec<(NodeId, NodeId)>, UpdateError> {
    for e in edges.iter_mut() {
        if e.0 == e.1 {
            return Err(UpdateError::SelfLoop { v: e.0 });
        }
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    for w in edges.windows(2) {
        if w[0] == w[1] {
            return Err(UpdateError::DuplicateInBatch { u: w[0].0, v: w[0].1 });
        }
    }
    Ok(edges)
}

impl UpdateBatch {
    /// Normalizes and structurally validates a batch.
    pub fn new(
        inserts: Vec<(NodeId, NodeId)>,
        deletes: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, UpdateError> {
        let inserts = normalize(inserts)?;
        let deletes = normalize(deletes)?;
        // Both lists are sorted; a merge pass finds cross-list duplicates.
        let (mut i, mut j) = (0, 0);
        while i < inserts.len() && j < deletes.len() {
            match inserts[i].cmp(&deletes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    return Err(UpdateError::DuplicateInBatch { u: inserts[i].0, v: inserts[i].1 })
                }
            }
        }
        Ok(UpdateBatch { inserts, deletes })
    }

    /// Normalized insertions, `u < v`, sorted.
    pub fn inserts(&self) -> &[(NodeId, NodeId)] {
        &self.inserts
    }

    /// Normalized deletions, `u < v`, sorted.
    pub fn deletes(&self) -> &[(NodeId, NodeId)] {
        &self.deletes
    }

    /// Total number of edge updates in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch carries no updates.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Collects the distinct endpoints of `edges` into `out` (sorted).
    fn endpoints_of(edges: &[(NodeId, NodeId)], out: &mut Vec<NodeId>) {
        out.clear();
        for &(u, v) in edges {
            out.push(u);
            out.push(v);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Distinct endpoints of the deletions, sorted into `out`.
    pub fn delete_endpoints(&self, out: &mut Vec<NodeId>) {
        Self::endpoints_of(&self.deletes, out);
    }

    /// Distinct endpoints of the insertions, sorted into `out`.
    pub fn insert_endpoints(&self, out: &mut Vec<NodeId>) {
        Self::endpoints_of(&self.inserts, out);
    }

    /// Validates the batch against a concrete view: endpoints in range,
    /// every delete present, every insert absent.
    pub fn validate_against<G: GraphView>(&self, g: &G) -> Result<(), UpdateError> {
        let n = g.num_nodes();
        for &(u, v) in self.inserts.iter().chain(&self.deletes) {
            if u as usize >= n {
                return Err(UpdateError::OutOfRange { v: u, n });
            }
            if v as usize >= n {
                return Err(UpdateError::OutOfRange { v, n });
            }
        }
        for &(u, v) in &self.inserts {
            if g.has_edge(u, v) {
                return Err(UpdateError::InsertExisting { u, v });
            }
        }
        for &(u, v) in &self.deletes {
            if !g.has_edge(u, v) {
                return Err(UpdateError::DeleteMissing { u, v });
            }
        }
        Ok(())
    }
}

/// Summary of one applied batch, kept for audit and replay accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStamp {
    /// Sequence number assigned at append (1-based).
    pub seq: u64,
    /// Number of insertions in the batch.
    pub inserts: usize,
    /// Number of deletions in the batch.
    pub deletes: usize,
}

/// The log of applied batches over a [`DynamicGraph`], with periodic
/// compaction.
pub struct DeltaLog {
    view: DynamicGraph,
    arena: CsrArena,
    seq: u64,
    edits_since_compaction: usize,
    compact_threshold: usize,
    compactions: u64,
    history: Vec<BatchStamp>,
}

impl DeltaLog {
    /// Wraps a base CSR, owned or shared with other logs: the log only
    /// reads it, and its first compaction gives it a private base (see
    /// [`DeltaLog::compact_now`]). The default compaction threshold folds the
    /// overlay back into a CSR once the accumulated edits reach a quarter
    /// of the base edge count (at least 64 edits, so tiny graphs don't
    /// thrash the builder).
    pub fn new(base: impl Into<Arc<Graph>>) -> Self {
        let base = base.into();
        let threshold = (base.num_edges() / 4).max(64);
        DeltaLog::with_compaction_threshold(base, threshold)
    }

    /// Wraps a base CSR with an explicit compaction threshold (in
    /// accumulated edge edits).
    pub fn with_compaction_threshold(
        base: impl Into<Arc<Graph>>,
        compact_threshold: usize,
    ) -> Self {
        DeltaLog {
            view: DynamicGraph::new(base),
            arena: CsrArena::new(),
            seq: 0,
            edits_since_compaction: 0,
            compact_threshold: compact_threshold.max(1),
            compactions: 0,
            history: Vec::new(),
        }
    }

    /// The current overlay view (base CSR ± applied deltas).
    pub fn view(&self) -> &DynamicGraph {
        &self.view
    }

    /// Sequence number of the last applied batch (0 before any append).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Stamps of every applied batch, in sequence order.
    pub fn history(&self) -> &[BatchStamp] {
        &self.history
    }

    /// Number of compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Validates `batch` against the current view without applying it.
    pub fn validate(&self, batch: &UpdateBatch) -> Result<(), UpdateError> {
        batch.validate_against(&self.view)
    }

    /// Validates and applies `batch`, assigning it the next sequence
    /// number. On error nothing changes.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<u64, UpdateError> {
        self.validate(batch)?;
        self.view.apply_batch(batch);
        self.seq += 1;
        self.edits_since_compaction += batch.len();
        self.history.push(BatchStamp {
            seq: self.seq,
            inserts: batch.inserts().len(),
            deletes: batch.deletes().len(),
        });
        Ok(self.seq)
    }

    /// Compacts if the accumulated edits crossed the threshold. Returns
    /// whether a compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        if self.edits_since_compaction >= self.compact_threshold {
            self.compact_now();
            true
        } else {
            false
        }
    }

    /// Unconditionally folds the overlay into a fresh CSR (built through
    /// the log's recycled arena buffers). View semantics are unchanged. The
    /// new base is the log's own: a base shared with other logs stays
    /// theirs, and only a base this log held the last reference to goes
    /// back into the arena.
    pub fn compact_now(&mut self) {
        self.view.compact_into(&mut self.arena);
        self.edits_since_compaction = 0;
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::csr::graph_from_edges;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)).collect();
        graph_from_edges(n, &edges)
    }

    #[test]
    fn batches_normalize_and_reject_structural_garbage() {
        let b = UpdateBatch::new(vec![(3, 1)], vec![(2, 0)]).expect("valid");
        assert_eq!(b.inserts(), &[(1, 3)]);
        assert_eq!(b.deletes(), &[(0, 2)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(UpdateBatch::new(vec![(2, 2)], vec![]), Err(UpdateError::SelfLoop { v: 2 }));
        assert_eq!(
            UpdateBatch::new(vec![(1, 2), (2, 1)], vec![]),
            Err(UpdateError::DuplicateInBatch { u: 1, v: 2 })
        );
        assert_eq!(
            UpdateBatch::new(vec![(1, 2)], vec![(2, 1)]),
            Err(UpdateError::DuplicateInBatch { u: 1, v: 2 })
        );
    }

    #[test]
    fn append_validates_against_the_live_view() {
        let mut log = DeltaLog::new(ring(5));
        let miss = UpdateBatch::new(vec![], vec![(0, 2)]).expect("valid");
        assert_eq!(log.append(&miss), Err(UpdateError::DeleteMissing { u: 0, v: 2 }));
        let dup = UpdateBatch::new(vec![(0, 1)], vec![]).expect("valid");
        assert_eq!(log.append(&dup), Err(UpdateError::InsertExisting { u: 0, v: 1 }));
        let oob = UpdateBatch::new(vec![(0, 9)], vec![]).expect("valid");
        assert_eq!(log.append(&oob), Err(UpdateError::OutOfRange { v: 9, n: 5 }));
        assert_eq!(log.seq(), 0, "rejected batches must not advance the sequence");

        let ok = UpdateBatch::new(vec![(0, 2)], vec![(0, 1)]).expect("valid");
        assert_eq!(log.append(&ok), Ok(1));
        assert!(log.view().has_edge(0, 2) && !log.view().has_edge(0, 1));
        // The view is live: the same batch is now invalid.
        assert!(log.append(&ok).is_err());
        assert_eq!(log.history(), &[BatchStamp { seq: 1, inserts: 1, deletes: 1 }]);
    }

    #[test]
    fn compaction_fires_on_threshold_and_preserves_the_view() {
        let mut log = DeltaLog::with_compaction_threshold(ring(6), 2);
        let b = UpdateBatch::new(vec![(0, 3)], vec![]).expect("valid");
        log.append(&b).expect("append");
        assert!(!log.maybe_compact(), "1 edit < threshold 2");
        let b2 = UpdateBatch::new(vec![(1, 4)], vec![(2, 3)]).expect("valid");
        log.append(&b2).expect("append");
        assert!(log.maybe_compact());
        assert_eq!(log.compactions(), 1);
        assert_eq!(log.view().touched_vertices(), 0);
        // Post-compaction adjacency equals a from-scratch build.
        let expect = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]);
        for v in 0..6u32 {
            assert_eq!(log.view().neighbors(v), expect.neighbors(v));
        }
        assert_eq!(log.seq(), 2, "compaction does not consume a sequence number");
    }
}
