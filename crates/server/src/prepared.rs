//! The per-graph half of a tenant: what the setup phases decide about a
//! graph alone, computed once per graph and shared by every tenant built
//! on it (DESIGN.md §13.1).
//!
//! A [`PreparedGraph`] holds the degree-relabeled CSR, its
//! [`Permutation`] and the vertex-diameter bound. All three are
//! deterministic functions of the input graph, so tenants that share one
//! sample exactly what they would sample on private copies. What depends on
//! a tenant's configuration — calibration, sampler pool, estimate cache,
//! dynamic overlay — stays per tenant.
//!
//! A server finds the prepared graph of an input through a registry keyed
//! by the input's exact [`GraphId`]: never by a content hash (two graphs
//! could collide) and never by an address (a dropped graph's address can
//! name a different graph later).

use kadabra_core::phases::diameter_phase;
use kadabra_core::KadabraConfig;
use kadabra_graph::{Graph, GraphId, Permutation};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// One input graph, prepared for sampling.
#[derive(Debug)]
pub struct PreparedGraph {
    graph: Arc<Graph>,
    perm: Permutation,
    vertex_diameter: u32,
}

impl PreparedGraph {
    /// Relabels `g` by degree (DESIGN.md §11) and bounds the relabeled
    /// graph's vertex diameter under the default iFUB budget.
    pub fn new(g: &Graph) -> PreparedGraph {
        assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
        let (rg, perm) = g.relabel_by_degree();
        let (vertex_diameter, _) = diameter_phase(&rg, &KadabraConfig::default());
        PreparedGraph { graph: Arc::new(rg), perm, vertex_diameter }
    }

    /// The degree-relabeled CSR every tenant on this graph starts from.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Original ↔ relabeled vertex ids.
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// Vertex-diameter upper bound of the graph.
    pub fn vertex_diameter(&self) -> u32 {
        self.vertex_diameter
    }
}

/// The prepared graphs a server's tenants hold, by input identity. Entries
/// are weak: a prepared graph lives exactly as long as some tenant holds
/// it, and a dead entry is swept on the next lookup.
#[derive(Default)]
pub(crate) struct PreparedRegistry {
    entries: Mutex<Vec<(GraphId, Weak<PreparedGraph>)>>,
}

impl PreparedRegistry {
    /// The prepared form of `g`: a live entry for `g`'s identity if some
    /// tenant still holds one, else a new one. Preparation runs outside the
    /// lock and an entry is published only once complete, so a concurrent
    /// caller never sees a half-built one; two callers that race on the
    /// same new graph may both prepare it, and the later one then adopts
    /// the entry the earlier one published.
    pub(crate) fn prepare(&self, g: &Graph) -> Arc<PreparedGraph> {
        let id = g.id();
        if let Some(live) = self.live(id) {
            return live;
        }
        let fresh = Arc::new(PreparedGraph::new(g));
        let mut entries = self.entries.lock();
        entries.retain(|(_, w)| w.strong_count() > 0);
        if let Some(live) = entries.iter().find(|(k, _)| *k == id).and_then(|(_, w)| w.upgrade()) {
            return live;
        }
        entries.push((id, Arc::downgrade(&fresh)));
        fresh
    }

    fn live(&self, id: GraphId) -> Option<Arc<PreparedGraph>> {
        self.entries.lock().iter().find(|(k, _)| *k == id).and_then(|(_, w)| w.upgrade())
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};

    fn small() -> Graph {
        grid(GridConfig { rows: 4, cols: 4, diagonal_prob: 0.0, seed: 0 })
    }

    #[test]
    fn one_identity_prepares_once() {
        let reg = PreparedRegistry::default();
        let g = small();
        let a = reg.prepare(&g);
        assert!(Arc::ptr_eq(&a, &reg.prepare(&g)));
        assert!(Arc::ptr_eq(&a, &reg.prepare(&g.clone())), "a clone is the same graph");
        let other = reg.prepare(&small());
        assert!(!Arc::ptr_eq(&a, &other), "equal content, different graph");
        assert_eq!(other.graph().as_ref(), a.graph().as_ref());
    }

    #[test]
    fn an_entry_lives_only_while_held() {
        let reg = PreparedRegistry::default();
        let g = small();
        let first = Arc::downgrade(&reg.prepare(&g));
        assert_eq!(first.strong_count(), 0, "the registry holds no prepared graph alive");
        let again = reg.prepare(&g);
        assert_eq!(reg.entries.lock().len(), 1, "the dead entry was swept");
        assert_eq!(again.vertex_diameter(), PreparedGraph::new(&g).vertex_diameter());
    }

    #[test]
    fn racing_preparers_end_on_one_entry() {
        let reg = PreparedRegistry::default();
        let g = small();
        let held: Vec<Arc<PreparedGraph>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2).map(|_| s.spawn(|| reg.prepare(&g))).collect();
            handles.into_iter().map(|h| h.join().expect("preparer")).collect()
        });
        assert!(Arc::ptr_eq(&held[0], &held[1]));
        assert_eq!(reg.entries.lock().len(), 1);
    }
}
