//! Connected components.
//!
//! The paper evaluates on the largest connected component of each instance
//! ("For disconnected graphs, we consider the largest connected component",
//! Section V-A); [`largest_component`] provides exactly that, with an id
//! remapping so the extracted subgraph keeps dense 32-bit vertex ids.

use crate::csr::{Graph, GraphBuilder, NodeId};

/// Component labelling: `label[v]` is the component id of `v`; ids are dense
/// (`0..num_components`) in order of discovery.
pub struct Components {
    /// Per-vertex component id.
    pub label: Vec<u32>,
    /// Per-component vertex count, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Id of a largest component (ties broken by smallest id); `None` for the
    /// empty graph.
    pub fn largest(&self) -> Option<u32> {
        self.sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
    }
}

/// Labels all connected components with iterative BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.num_nodes();
    const UNSET: u32 = u32::MAX;
    let mut label = vec![UNSET; n];
    let mut sizes = Vec::new();
    let mut queue: Vec<NodeId> = Vec::new();
    for start in 0..n as NodeId {
        if label[start as usize] != UNSET {
            continue;
        }
        // xtask: allow(determinism) — one label per component and at most
        // one component per vertex; vertex counts are u32 by CSR layout.
        let comp = sizes.len() as u32;
        let mut size = 0usize;
        label[start as usize] = comp;
        queue.clear();
        queue.push(start);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            size += 1;
            for &v in g.neighbors(u) {
                if label[v as usize] == UNSET {
                    label[v as usize] = comp;
                    queue.push(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { label, sizes }
}

/// Extracts the largest connected component as a new graph with dense vertex
/// ids, together with the mapping `new_id -> old_id`.
///
/// For the empty graph this returns an empty graph and an empty mapping.
pub fn largest_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let comps = connected_components(g);
    let Some(target) = comps.largest() else {
        return (GraphBuilder::new(0).build(), Vec::new());
    };
    let mut old_of_new: Vec<NodeId> = Vec::with_capacity(comps.sizes[target as usize]);
    let mut new_of_old: Vec<u32> = vec![u32::MAX; g.num_nodes()];
    for v in 0..g.num_nodes() as NodeId {
        if comps.label[v as usize] == target {
            // xtask: allow(determinism) — old_of_new holds at most one
            // entry per vertex; vertex counts are u32 by CSR layout.
            new_of_old[v as usize] = old_of_new.len() as u32;
            old_of_new.push(v);
        }
    }
    let mut b = GraphBuilder::with_capacity(old_of_new.len(), g.num_edges());
    for (u, v) in g.edges() {
        if comps.label[u as usize] == target {
            #[expect(
                clippy::expect_used,
                reason = "remapped ids are < component size by construction of new_of_old"
            )]
            b.add_edge(new_of_old[u as usize], new_of_old[v as usize])
                .expect("remapped ids are in range");
        }
    }
    (b.build(), old_of_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;

    #[test]
    fn single_component() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.sizes, vec![4]);
        assert!(c.label.iter().all(|&l| l == 0));
    }

    #[test]
    fn multiple_components_and_isolated() {
        let g = graph_from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 3); // {0,1}, {2,3,4}, {5}
        assert_eq!(c.sizes, vec![2, 3, 1]);
        assert_eq!(c.largest(), Some(1));
    }

    #[test]
    fn empty_graph_components() {
        let g = graph_from_edges(0, &[]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), None);
    }

    #[test]
    fn largest_component_extraction() {
        let g = graph_from_edges(7, &[(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]);
        let (lcc, map) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 3);
        assert_eq!(lcc.num_edges(), 3);
        assert_eq!(map, vec![2, 3, 4]);
        assert!(lcc.check_canonical().is_ok());
    }

    #[test]
    fn largest_component_of_connected_graph_is_identity() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (lcc, map) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 4);
        assert_eq!(lcc.num_edges(), 4);
        assert_eq!(map, vec![0, 1, 2, 3]);
        assert_eq!(lcc, g);
    }

    #[test]
    fn largest_component_of_empty_graph() {
        let g = graph_from_edges(0, &[]);
        let (lcc, map) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn tie_broken_by_smallest_component_id() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let c = connected_components(&g);
        assert_eq!(c.largest(), Some(0));
    }

    #[test]
    fn extraction_preserves_adjacency() {
        // Component {2,3,4,5} forms a path; check remapped adjacency.
        let g = graph_from_edges(6, &[(0, 1), (2, 3), (3, 4), (4, 5)]);
        let (lcc, map) = largest_component(&g);
        assert_eq!(map, vec![2, 3, 4, 5]);
        assert!(lcc.has_edge(0, 1)); // old (2,3)
        assert!(lcc.has_edge(1, 2)); // old (3,4)
        assert!(lcc.has_edge(2, 3)); // old (4,5)
        assert!(!lcc.has_edge(0, 3));
    }
}
