//! Property-based tests for the directed and weighted graph variants.

use kadabra_graph::digraph::{
    directed_bfs, enumerate_directed_shortest_paths, sample_directed_shortest_path, DiGraph,
};
use kadabra_graph::scratch::{TraversalScratch, UNREACHED};
use kadabra_graph::weighted::{
    dijkstra_sigma, enumerate_weighted_shortest_paths, sample_weighted_shortest_path,
    WeightedGraph, UNREACHED_W,
};
use kadabra_graph::{KadabraGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_arcs(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let arc = (0..n as NodeId, 0..n as NodeId);
        proptest::collection::vec(arc, 0..max_m).prop_map(move |arcs| (n, arcs))
    })
}

fn arb_weighted(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n as NodeId, 0..n as NodeId, 1u32..8);
        proptest::collection::vec(edge, 0..max_m).prop_map(move |edges| {
            let edges: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            (n, edges)
        })
    })
}

/// Two directed fans meeting in the middle: `s = 0` → `k` mids → `j` hubs,
/// each entered from a random non-empty subset of the mids and carrying
/// `hub_leaves` out-leaves → `r` rims, each entered from a random non-empty
/// subset of the hubs → `t = 1`, the first rim fed by `rim_leaves`
/// in-leaves. The hubs reach σ above 1 from `s`; depending on the leaves,
/// the level that meets is expanded from the hubs onto the rims or from the
/// rims onto several hubs, the far vertices of σ above 1.
fn directed_fans(
    (k, j, r): (usize, usize, usize),
    (hub_leaves, rim_leaves): (usize, usize),
    seed: u64,
) -> DiGraph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let subset = |rng: &mut StdRng, from: std::ops::Range<NodeId>| {
        let first = rng.gen_range(from.clone());
        let mut picked: Vec<NodeId> = from.filter(|_| rng.gen_bool(0.5)).collect();
        picked.push(first);
        picked
    };
    let mids = 2..2 + k as NodeId;
    let hubs = mids.end..mids.end + j as NodeId;
    let rims = hubs.end..hubs.end + r as NodeId;
    let mut arcs: Vec<(NodeId, NodeId)> = mids.clone().map(|a| (0, a)).collect();
    for h in hubs.clone() {
        arcs.extend(subset(&mut rng, mids.clone()).into_iter().map(|a| (a, h)));
    }
    for c in rims.clone() {
        arcs.push((c, 1));
        arcs.extend(subset(&mut rng, hubs.clone()).into_iter().map(|h| (h, c)));
    }
    let mut next = rims.end;
    for h in hubs {
        arcs.extend((next..next + hub_leaves as NodeId).map(|leaf| (h, leaf)));
        next += hub_leaves as NodeId;
    }
    arcs.extend((next..next + rim_leaves as NodeId).map(|leaf| (leaf, rims.start)));
    DiGraph::from_arcs((next + rim_leaves as NodeId) as usize, &arcs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn directed_sampler_draws_a_shortest_path_across_two_fans(
        sizes in (1usize..5, 2usize..5, 1usize..4),
        leaves in (0usize..12, 0usize..12),
        seed in 0u64..500,
    ) {
        let g = directed_fans(sizes, leaves, seed);
        let all = enumerate_directed_shortest_paths(&g, 0, 1);
        let mut sc = TraversalScratch::new(g.num_nodes());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let p = sample_directed_shortest_path(&g, 0, 1, &mut sc, &mut rng).expect("s reaches t");
            prop_assert_eq!(p.distance, 4);
            prop_assert_eq!(p.num_paths as usize, all.len());
            let mut key = sc.path.clone();
            key.sort_unstable();
            let found = all.iter().any(|cand| {
                let mut c = cand.clone();
                c.sort_unstable();
                c == key
            });
            prop_assert!(found, "{:?} is not a shortest path", sc.path);
        }
    }

    #[test]
    fn digraph_transpose_is_consistent((n, arcs) in arb_arcs(25, 120)) {
        let g = DiGraph::from_arcs(n, &arcs);
        // Every out-arc must appear as an in-arc of its head and vice versa.
        let mut out_count = 0;
        for u in 0..n as NodeId {
            for &v in g.out_neighbors(u) {
                prop_assert!(g.in_neighbors(v).binary_search(&u).is_ok());
                out_count += 1;
            }
        }
        let in_count: usize = (0..n as NodeId).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_count, in_count);
        prop_assert_eq!(out_count, g.num_arcs());
    }

    #[test]
    fn directed_sampler_agrees_with_bfs((n, arcs) in arb_arcs(20, 80), seed in 0u64..500) {
        let g = DiGraph::from_arcs(n, &arcs);
        let mut sc = TraversalScratch::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = 0 as NodeId;
        let t = (n - 1) as NodeId;
        let d = directed_bfs(&g, s)[t as usize];
        match sample_directed_shortest_path(&g, s, t, &mut sc, &mut rng) {
            None => prop_assert_eq!(d, UNREACHED),
            Some(p) => {
                prop_assert_eq!(p.distance, d);
                prop_assert_eq!(sc.path.len() as u32 + 1, p.distance);
                let all = enumerate_directed_shortest_paths(&g, s, t);
                prop_assert_eq!(p.num_paths as usize, all.len());
            }
        }
    }

    #[test]
    fn directed_vertex_diameter_bound_is_an_upper_bound((n, arcs) in arb_arcs(25, 60)) {
        // Sparse draws leave most of these digraphs disconnected.
        let g = DiGraph::from_arcs(n, &arcs);
        let longest = (0..n as NodeId)
            .flat_map(|s| directed_bfs(&g, s))
            .filter(|&d| d != UNREACHED)
            .max()
            .unwrap_or(0);
        prop_assert!(g.vertex_diameter_upper(0) > longest);
    }

    #[test]
    fn weighted_vertex_diameter_bound_is_an_upper_bound((n, edges) in arb_weighted(20, 40)) {
        // The most hops of any minimum-weight path: per source, the longest
        // chain in the shortest-path DAG, filled in settling order.
        let g = WeightedGraph::from_edges(n, &edges);
        let mut longest = 0u32;
        for s in 0..n as NodeId {
            let (dist, _, order) = dijkstra_sigma(&g, s, None);
            let mut hops = vec![0u32; n];
            for &v in &order[1..] {
                let preds = g.neighbors(v).filter(|&(u, w)| {
                    dist[u as usize] != UNREACHED_W && dist[u as usize] + w as u64 == dist[v as usize]
                });
                hops[v as usize] = 1 + preds.map(|(u, _)| hops[u as usize]).max().unwrap_or(0);
                longest = longest.max(hops[v as usize]);
            }
        }
        prop_assert!(g.vertex_diameter_upper(0) > longest);
    }

    #[test]
    fn dijkstra_distances_satisfy_relaxation((n, edges) in arb_weighted(20, 80)) {
        let g = WeightedGraph::from_edges(n, &edges);
        let (dist, sigma, order) = dijkstra_sigma(&g, 0, None);
        // Settled order is non-decreasing in distance.
        for w in order.windows(2) {
            prop_assert!(dist[w[0] as usize] <= dist[w[1] as usize]);
        }
        // No edge can be relaxed further.
        for u in 0..n as NodeId {
            if dist[u as usize] == UNREACHED_W {
                continue;
            }
            for (v, w) in g.neighbors(u) {
                prop_assert!(
                    dist[v as usize] <= dist[u as usize] + w as u64,
                    "edge ({}, {}) relaxable", u, v
                );
            }
        }
        // σ is positive exactly on reachable vertices.
        for v in 0..n {
            prop_assert_eq!(sigma[v] > 0, dist[v] != UNREACHED_W);
        }
    }

    #[test]
    fn weighted_sampler_matches_enumeration((n, edges) in arb_weighted(14, 40), seed in 0u64..500) {
        let g = WeightedGraph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = 0 as NodeId;
        let t = (n - 1) as NodeId;
        let all = enumerate_weighted_shortest_paths(&g, s, t);
        match sample_weighted_shortest_path(&g, s, t, &mut rng) {
            None => prop_assert!(all.is_empty()),
            Some(p) => {
                prop_assert_eq!(p.num_paths as usize, all.len());
                let mut key = p.interior.clone();
                key.sort_unstable();
                let found = all.iter().any(|cand| {
                    let mut c = cand.clone();
                    c.sort_unstable();
                    c == key
                });
                prop_assert!(found);
            }
        }
    }

    #[test]
    fn unit_weight_dijkstra_equals_bfs((n, arcs) in arb_arcs(18, 70)) {
        // Symmetrize the arcs into an undirected unit-weight graph and
        // compare against plain BFS.
        let edges: Vec<(NodeId, NodeId, u32)> = arcs
            .iter()
            .copied()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u, v, 1))
            .collect();
        let wg = WeightedGraph::from_edges(n, &edges);
        let ug = kadabra_graph::csr::graph_from_edges(
            n,
            &arcs.iter().copied().filter(|&(u, v)| u != v).collect::<Vec<_>>(),
        );
        let (wd, _, _) = dijkstra_sigma(&wg, 0, None);
        let bd = kadabra_graph::bfs::bfs(&ug, 0).dist;
        for v in 0..n {
            if bd[v] == UNREACHED {
                prop_assert_eq!(wd[v], UNREACHED_W);
            } else {
                prop_assert_eq!(wd[v], bd[v] as u64);
            }
        }
    }
}
