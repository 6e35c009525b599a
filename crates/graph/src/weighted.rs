//! Weighted undirected graphs.
//!
//! The second half of the paper's footnote 1 ("directed and/or weighted
//! graphs"): a CSR graph with positive integer edge weights, Dijkstra with
//! shortest-path counting, and a σ-proportional uniform shortest-path
//! sampler. KADABRA's estimator is oblivious to *how* a uniform shortest
//! path is drawn, so swapping this sampler in yields weighted betweenness
//! approximation with the identical guarantee: [`WeightedGraph`] is a
//! [`crate::source::PathSource`], which is all the drivers of
//! `kadabra-core` ask of a graph.

use crate::bibfs::SearchStats;
use crate::csr::NodeId;
use crate::scratch::TraversalScratch;
use crate::source::{KadabraGraph, PathSource};
use rand::Rng;
use std::collections::BinaryHeap;

/// Edge weight; strictly positive (Dijkstra's requirement).
pub type Weight = u32;

/// Distance accumulator (sums of weights).
pub type Dist = u64;

/// Sentinel for "unreached".
pub const UNREACHED_W: Dist = Dist::MAX;

/// A static, undirected, positively weighted graph in CSR form.
#[derive(Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
}

impl WeightedGraph {
    /// Builds from an edge list of `(u, v, w)` triples; self-loops are
    /// dropped, parallel edges keep the minimum weight, and every weight
    /// must be positive.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> WeightedGraph {
        assert!(n <= NodeId::MAX as usize, "too many vertices for u32 ids");
        let mut cleaned: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(edges.len());
        for &(u, v, w) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            assert!(w > 0, "weights must be positive");
            if u != v {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                cleaned.push((a, b, w));
            }
        }
        cleaned.sort_unstable();
        // Parallel edges: keep the lightest (only it can lie on a shortest path).
        cleaned.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });

        let mut degrees = vec![0u64; n];
        for &(u, v, _) in &cleaned {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degrees[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; offsets[n] as usize];
        let mut weights = vec![0 as Weight; offsets[n] as usize];
        for &(u, v, w) in &cleaned {
            targets[cursor[u as usize] as usize] = v;
            weights[cursor[u as usize] as usize] = w;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            weights[cursor[v as usize] as usize] = w;
            cursor[v as usize] += 1;
        }
        WeightedGraph { offsets, targets, weights }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Weighted neighbours of `v` as `(target, weight)` pairs.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }
}

impl std::fmt::Debug for WeightedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightedGraph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Dijkstra with shortest-path counting from `source`; stops early once
/// `until` (if given) is settled.
///
/// Returns `(dist, sigma, settled_order)`. σ values are exact for settled
/// vertices: with positive weights a vertex's distance is final when popped,
/// so σ accumulated via relaxations from settled vertices is final too.
pub fn dijkstra_sigma(
    g: &WeightedGraph,
    source: NodeId,
    until: Option<NodeId>,
) -> (Vec<Dist>, Vec<u64>, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut dist = vec![UNREACHED_W; n];
    let mut sigma = vec![0u64; n];
    let mut settled = vec![false; n];
    let mut order = Vec::new();
    // Max-heap of Reverse((dist, vertex)).
    let mut heap: BinaryHeap<std::cmp::Reverse<(Dist, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    sigma[source as usize] = 1;
    heap.push(std::cmp::Reverse((0, source)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        order.push(u);
        if until == Some(u) {
            break;
        }
        debug_assert_eq!(d, dist[u as usize]);
        let su = sigma[u as usize];
        for (v, w) in g.neighbors(u) {
            if settled[v as usize] {
                continue;
            }
            let cand = d + w as Dist;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                sigma[v as usize] = su;
                heap.push(std::cmp::Reverse((cand, v)));
            } else if cand == dist[v as usize] {
                sigma[v as usize] = sigma[v as usize].saturating_add(su);
            }
        }
    }
    (dist, sigma, order)
}

/// A weighted path sample: interior vertices of a uniformly drawn
/// minimum-weight `s`-`t` path, plus its weight and multiplicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedPathSample {
    /// Total weight of the shortest path.
    pub distance: Dist,
    /// Interior vertices (excludes endpoints).
    pub interior: Vec<NodeId>,
    /// Number of distinct minimum-weight s-t paths.
    pub num_paths: u64,
}

/// Samples a uniformly random minimum-weight `s`-`t` path via Dijkstra with
/// early exit plus σ-proportional backtracking. (A bidirectional Dijkstra
/// would halve the search like the paper's bidirectional BFS; it is a pure
/// optimization and does not affect the estimator.)
pub fn sample_weighted_shortest_path<R: Rng + ?Sized>(
    g: &WeightedGraph,
    s: NodeId,
    t: NodeId,
    rng: &mut R,
) -> Option<WeightedPathSample> {
    assert!(s != t, "sampling requires distinct endpoints");
    let (dist, sigma, _) = dijkstra_sigma(g, s, Some(t));
    if dist[t as usize] == UNREACHED_W {
        return None;
    }
    let mut interior = Vec::new();
    let mut cur = t;
    while cur != s {
        // Predecessors: neighbours u with dist[u] + w == dist[cur].
        let mut total = 0u64;
        for (u, w) in g.neighbors(cur) {
            if dist[u as usize] != UNREACHED_W && dist[u as usize] + w as Dist == dist[cur as usize]
            {
                // Wraps once σ has saturated, in every build profile, as
                // the unweighted walk's sum does (`bibfs.rs`).
                total = total.wrapping_add(sigma[u as usize]);
            }
        }
        debug_assert!(total > 0);
        let mut pick = rng.gen_range(0..total);
        let mut nxt = cur;
        for (u, w) in g.neighbors(cur) {
            if dist[u as usize] != UNREACHED_W && dist[u as usize] + w as Dist == dist[cur as usize]
            {
                let su = sigma[u as usize];
                if pick < su {
                    nxt = u;
                    break;
                }
                pick -= su;
            }
        }
        debug_assert_ne!(nxt, cur);
        if nxt != s {
            interior.push(nxt);
        }
        cur = nxt;
    }
    interior.reverse();
    Some(WeightedPathSample { distance: dist[t as usize], interior, num_paths: sigma[t as usize] })
}

/// Exhaustively enumerates all minimum-weight `s`-`t` paths (test oracle).
pub fn enumerate_weighted_shortest_paths(
    g: &WeightedGraph,
    s: NodeId,
    t: NodeId,
) -> Vec<Vec<NodeId>> {
    assert!(s != t);
    let (dist, _, _) = dijkstra_sigma(g, s, None);
    if dist[t as usize] == UNREACHED_W {
        return Vec::new();
    }
    let mut paths = Vec::new();
    let mut stack = vec![t];
    fn rec(
        g: &WeightedGraph,
        dist: &[Dist],
        s: NodeId,
        cur: NodeId,
        stack: &mut Vec<NodeId>,
        paths: &mut Vec<Vec<NodeId>>,
    ) {
        if cur == s {
            let mut interior: Vec<NodeId> = stack[1..stack.len() - 1].to_vec();
            interior.reverse();
            paths.push(interior);
            return;
        }
        for (u, w) in g.neighbors(cur) {
            if dist[u as usize] != UNREACHED_W && dist[u as usize] + w as Dist == dist[cur as usize]
            {
                stack.push(u);
                rec(g, dist, s, u, stack, paths);
                stack.pop();
            }
        }
    }
    rec(g, &dist, s, t, &mut stack, &mut paths);
    paths
}

impl PathSource for WeightedGraph {
    fn num_nodes(&self) -> usize {
        WeightedGraph::num_nodes(self)
    }

    /// The returned distance is the path's hop count, not its weight.
    fn sample_path_into<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut TraversalScratch,
        rng: &mut R,
        _stats: &mut SearchStats,
    ) -> Option<u32> {
        scratch.path.clear();
        let sample = sample_weighted_shortest_path(self, s, t, rng)?;
        scratch.path.extend_from_slice(&sample.interior);
        // A shortest path visits a vertex at most once, so this always fits.
        u32::try_from(sample.interior.len() + 1).ok()
    }
}

impl KadabraGraph for WeightedGraph {
    /// A shortest path lies inside one connected component, so the vertex
    /// count of the largest one is always sound. On a connected graph every
    /// distance is at most `2·ecc(root)` and every hop weighs at least
    /// `w_min`, which bounds the hops of any shortest path by
    /// `2·ecc(root) / w_min`.
    fn vertex_diameter_upper(&self, _bfs_budget: u32) -> u32 {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        let mut largest = 0usize;
        for root in 0..n as NodeId {
            if std::mem::replace(&mut seen[root as usize], true) {
                continue;
            }
            let mut size = 0;
            stack.push(root);
            while let Some(u) = stack.pop() {
                size += 1;
                for (v, _) in self.neighbors(u) {
                    if !std::mem::replace(&mut seen[v as usize], true) {
                        stack.push(v);
                    }
                }
            }
            largest = largest.max(size);
        }
        let Some(&w_min) = self.weights.iter().min() else { return largest as u32 };
        if largest < n {
            return largest as u32;
        }
        let (dist, _, _) = dijkstra_sigma(self, 0, None);
        let ecc = dist.iter().copied().max().unwrap_or(0);
        (2 * ecc / w_min as Dist + 1).min(n as Dist) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wpath(n: u32, w: Weight) -> WeightedGraph {
        let edges: Vec<_> = (0..n - 1).map(|v| (v, v + 1, w)).collect();
        WeightedGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn construction_basics() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 5), (1, 2, 7), (2, 2, 1)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        let n0: Vec<_> = g.neighbors(1).collect();
        assert_eq!(n0, vec![(0, 5), (2, 7)]);
    }

    #[test]
    fn parallel_edges_keep_minimum() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 9), (1, 0, 3), (0, 1, 5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 3)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        WeightedGraph::from_edges(2, &[(0, 1, 0)]);
    }

    #[test]
    fn dijkstra_on_weighted_path() {
        let g = wpath(5, 3);
        let (dist, sigma, order) = dijkstra_sigma(&g, 0, None);
        assert_eq!(dist, vec![0, 3, 6, 9, 12]);
        assert!(sigma.iter().all(|&s| s == 1));
        assert_eq!(order[0], 0);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        // 0-2 direct weight 10; 0-1-2 weights 3+3=6.
        let g = WeightedGraph::from_edges(3, &[(0, 2, 10), (0, 1, 3), (1, 2, 3)]);
        let (dist, sigma, _) = dijkstra_sigma(&g, 0, None);
        assert_eq!(dist[2], 6);
        assert_eq!(sigma[2], 1);
    }

    #[test]
    fn dijkstra_counts_ties() {
        // Two disjoint routes of equal weight 0->3: via 1 (2+2) and via 2 (1+3).
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 3, 2), (0, 2, 1), (2, 3, 3)]);
        let (dist, sigma, _) = dijkstra_sigma(&g, 0, None);
        assert_eq!(dist[3], 4);
        assert_eq!(sigma[3], 2);
    }

    #[test]
    fn early_exit_settles_target() {
        let g = wpath(100, 1);
        let (dist, _, order) = dijkstra_sigma(&g, 0, Some(5));
        assert_eq!(dist[5], 5);
        assert!(order.len() <= 7, "early exit must not settle the whole path");
    }

    #[test]
    fn sampler_matches_enumeration_on_random_weighted_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..25 {
            let n = 12usize;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(0.3) {
                        edges.push((u, v, rng.gen_range(1..4)));
                    }
                }
            }
            let g = WeightedGraph::from_edges(n, &edges);
            for (s, t) in [(0, 11), (2, 9)] {
                let all = enumerate_weighted_shortest_paths(&g, s, t);
                match sample_weighted_shortest_path(&g, s, t, &mut rng) {
                    None => assert!(all.is_empty()),
                    Some(p) => {
                        assert_eq!(p.num_paths as usize, all.len());
                        let mut key = p.interior.clone();
                        key.sort_unstable();
                        assert!(all.iter().any(|cand| {
                            let mut c = cand.clone();
                            c.sort_unstable();
                            c == key
                        }));
                    }
                }
            }
        }
    }

    #[test]
    fn sampler_uniform_on_tied_routes() {
        // Both routes weight 4, one with two hops, one with three.
        let g =
            WeightedGraph::from_edges(5, &[(0, 1, 2), (1, 4, 2), (0, 2, 1), (2, 3, 2), (3, 4, 1)]);
        let all = enumerate_weighted_shortest_paths(&g, 0, 4);
        assert_eq!(all.len(), 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut long_route = 0u64;
        let trials = 20_000;
        for _ in 0..trials {
            let p = sample_weighted_shortest_path(&g, 0, 4, &mut rng).unwrap();
            if p.interior.len() == 2 {
                long_route += 1;
            }
        }
        let frac = long_route as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.02, "biased: {frac}");
    }

    #[test]
    fn corner_to_corner_on_a_large_unit_grid_draws_a_shortest_path() {
        // C(78, 39) ≈ 2^74 shortest paths saturate σ long before the far
        // corner, so the predecessors' sum overflows u64: the walk must
        // draw as a release build does, not panic in a debug build.
        let side: NodeId = 40;
        let id = |r: NodeId, c: NodeId| r * side + c;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    edges.push((id(r, c), id(r, c + 1), 1));
                }
                if r + 1 < side {
                    edges.push((id(r, c), id(r + 1, c), 1));
                }
            }
        }
        let g = WeightedGraph::from_edges((side * side) as usize, &edges);
        let (s, t) = (id(0, 0), id(side - 1, side - 1));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..8 {
            let p = sample_weighted_shortest_path(&g, s, t, &mut rng).unwrap();
            assert_eq!(p.distance, 2 * Dist::from(side - 1));
            assert_eq!(p.interior.len(), 2 * (side as usize - 1) - 1);
            assert_eq!(p.num_paths, u64::MAX, "σ saturates");
            let hops = std::iter::once(s).chain(p.interior.iter().copied()).chain([t]);
            let walk: Vec<NodeId> = hops.collect();
            assert!(walk.windows(2).all(|w| g.neighbors(w[0]).any(|(v, _)| v == w[1])));
        }
    }

    #[test]
    fn disconnected_returns_none() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_weighted_shortest_path(&g, 0, 3, &mut rng).is_none());
    }

    #[test]
    fn vertex_diameter_bound_covers_path() {
        assert_eq!(wpath(20, 5).vertex_diameter_upper(0), 20);
        // Vertex 0 sits in a 2-vertex component beside a unit 10-path.
        let mut edges = vec![(0, 1, 1)];
        edges.extend((2..11).map(|v| (v, v + 1, 1)));
        assert!(WeightedGraph::from_edges(12, &edges).vertex_diameter_upper(0) >= 10);
        // Connected, uniform weights: twice the weighted eccentricity in hops.
        let star = WeightedGraph::from_edges(5, &[(0, 1, 3), (0, 2, 3), (0, 3, 3), (0, 4, 3)]);
        assert_eq!(star.vertex_diameter_upper(0), 3);
    }

    #[test]
    fn unit_weights_agree_with_bfs_distances() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20usize;
        let mut wedges = Vec::new();
        let mut uedges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.gen_bool(0.2) {
                    wedges.push((u, v, 1));
                    uedges.push((u, v));
                }
            }
        }
        let wg = WeightedGraph::from_edges(n, &wedges);
        let ug = crate::csr::graph_from_edges(n, &uedges);
        let (wd, wsig, _) = dijkstra_sigma(&wg, 0, None);
        let ub = crate::bfs::sigma_bfs(&ug, 0);
        for v in 0..n {
            if ub.dist[v] == crate::scratch::UNREACHED {
                assert_eq!(wd[v], UNREACHED_W);
            } else {
                assert_eq!(wd[v], ub.dist[v] as Dist);
                assert_eq!(wsig[v], ub.sigma[v]);
            }
        }
    }
}
