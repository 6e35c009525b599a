//! Exact Brandes betweenness for the directed and weighted graph variants
//! (the paper's footnote 1). These are the oracles the drivers of
//! `kadabra-core` are validated against when they run on a `DiGraph` or a
//! `WeightedGraph`.

use kadabra_graph::digraph::{directed_bfs, DiGraph};
use kadabra_graph::scratch::UNREACHED;
use kadabra_graph::weighted::{dijkstra_sigma, WeightedGraph, UNREACHED_W};
use kadabra_graph::NodeId;

/// Exact normalized betweenness on a digraph (dependency accumulation over
/// the out-BFS DAG; predecessors come from the stored transpose).
pub fn brandes_directed(g: &DiGraph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut bc = vec![0.0f64; n];
    if n < 2 {
        return bc;
    }
    let mut delta = vec![0.0f64; n];
    for s in 0..n as NodeId {
        // Forward BFS with σ counting on out-edges.
        let mut dist = vec![UNREACHED; n];
        let mut sigma = vec![0u64; n];
        let mut order = Vec::new();
        dist[s as usize] = 0;
        sigma[s as usize] = 1;
        order.push(s);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let (du, su) = (dist[u as usize], sigma[u as usize]);
            for &v in g.out_neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    sigma[v as usize] = su;
                    order.push(v);
                } else if dist[v as usize] == du + 1 {
                    sigma[v as usize] = sigma[v as usize].saturating_add(su);
                }
            }
        }
        for &v in &order {
            delta[v as usize] = 0.0;
        }
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize] as f64;
            for &u in g.in_neighbors(w) {
                if dist[u as usize] != UNREACHED && dist[u as usize] + 1 == dw {
                    delta[u as usize] += sigma[u as usize] as f64 * coeff;
                }
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    bc.iter().map(|b| b * norm).collect()
}

/// Exact normalized betweenness on a positively weighted undirected graph
/// (Dijkstra-based Brandes: accumulate in reverse settled order).
pub fn brandes_weighted(g: &WeightedGraph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut bc = vec![0.0f64; n];
    if n < 2 {
        return bc;
    }
    let mut delta = vec![0.0f64; n];
    for s in 0..n as NodeId {
        let (dist, sigma, order) = dijkstra_sigma(g, s, None);
        for &v in &order {
            delta[v as usize] = 0.0;
        }
        for &w in order.iter().rev() {
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize] as f64;
            for (u, wt) in g.neighbors(w) {
                if dist[u as usize] != UNREACHED_W
                    && dist[u as usize] + wt as u64 == dist[w as usize]
                {
                    delta[u as usize] += sigma[u as usize] as f64 * coeff;
                }
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    bc.iter().map(|b| b * norm).collect()
}

/// Brute-force directed betweenness by path enumeration (tiny graphs only).
pub fn brute_force_directed(g: &DiGraph) -> Vec<f64> {
    use kadabra_graph::digraph::enumerate_directed_shortest_paths;
    let n = g.num_nodes();
    let mut bc = vec![0.0f64; n];
    if n < 2 {
        return bc;
    }
    for s in 0..n as NodeId {
        let dist = directed_bfs(g, s);
        for t in 0..n as NodeId {
            if s == t || dist[t as usize] == UNREACHED {
                continue;
            }
            let paths = enumerate_directed_shortest_paths(g, s, t);
            let w = 1.0 / paths.len() as f64;
            for p in &paths {
                for &v in p {
                    bc[v as usize] += w;
                }
            }
        }
    }
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    bc.iter().map(|b| b * norm).collect()
}

/// Brute-force weighted betweenness by path enumeration (tiny graphs only).
pub fn brute_force_weighted(g: &WeightedGraph) -> Vec<f64> {
    use kadabra_graph::weighted::enumerate_weighted_shortest_paths;
    let n = g.num_nodes();
    let mut bc = vec![0.0f64; n];
    if n < 2 {
        return bc;
    }
    for s in 0..n as NodeId {
        for t in 0..n as NodeId {
            if s == t {
                continue;
            }
            let paths = enumerate_weighted_shortest_paths(g, s, t);
            if paths.is_empty() {
                continue;
            }
            let w = 1.0 / paths.len() as f64;
            for p in &paths {
                for &v in p {
                    bc[v as usize] += w;
                }
            }
        }
    }
    let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
    bc.iter().map(|b| b * norm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    #[test]
    fn directed_path_graph() {
        // 0 -> 1 -> 2: vertex 1 is interior of the single (0,2) pair only
        // (no reverse pairs exist): bc(1) = 1/6.
        let g = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let bc = brandes_directed(&g);
        assert!((bc[1] - 1.0 / 6.0).abs() < 1e-12, "{bc:?}");
        assert_eq!(bc[0], 0.0);
    }

    #[test]
    fn directed_matches_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let n = 8usize;
            let mut arcs = Vec::new();
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    if u != v && rng.gen_bool(0.25) {
                        arcs.push((u, v));
                    }
                }
            }
            let g = DiGraph::from_arcs(n, &arcs);
            let fast = brandes_directed(&g);
            let slow = brute_force_directed(&g);
            for v in 0..n {
                assert!((fast[v] - slow[v]).abs() < 1e-9, "vertex {v}: {} vs {}", fast[v], slow[v]);
            }
        }
    }

    #[test]
    fn directed_cycle_is_transitive() {
        let n = 6u32;
        let arcs: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = DiGraph::from_arcs(n as usize, &arcs);
        let bc = brandes_directed(&g);
        for v in 1..n as usize {
            assert!((bc[v] - bc[0]).abs() < 1e-12);
        }
        assert!(bc[0] > 0.0);
    }

    #[test]
    fn weighted_unit_weights_match_unweighted() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 15usize;
        let mut wedges = Vec::new();
        let mut uedges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.gen_bool(0.3) {
                    wedges.push((u, v, 1));
                    uedges.push((u, v));
                }
            }
        }
        let wg = WeightedGraph::from_edges(n, &wedges);
        let ug = kadabra_graph::csr::graph_from_edges(n, &uedges);
        let a = brandes_weighted(&wg);
        let b = crate::brandes::brandes(&ug);
        for v in 0..n {
            assert!((a[v] - b[v]).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn weighted_matches_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let n = 8usize;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(0.4) {
                        edges.push((u, v, rng.gen_range(1..4)));
                    }
                }
            }
            let g = WeightedGraph::from_edges(n, &edges);
            let fast = brandes_weighted(&g);
            let slow = brute_force_weighted(&g);
            for v in 0..n {
                assert!((fast[v] - slow[v]).abs() < 1e-9, "vertex {v}");
            }
        }
    }

    #[test]
    fn weighted_detour_moves_centrality() {
        // Heavy direct edge 0-3; light chain 0-1-2-3: the chain's interior
        // vertices carry the betweenness.
        let g = WeightedGraph::from_edges(4, &[(0, 3, 10), (0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let bc = brandes_weighted(&g);
        assert!(bc[1] > 0.0 && bc[2] > 0.0);
    }

    #[test]
    fn trivial_graphs() {
        assert!(brandes_directed(&DiGraph::from_arcs(1, &[])).iter().all(|&b| b == 0.0));
        assert!(brandes_weighted(&WeightedGraph::from_edges(1, &[])).iter().all(|&b| b == 0.0));
    }
}
