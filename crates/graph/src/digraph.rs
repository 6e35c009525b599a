//! Directed graphs.
//!
//! Footnote 1 of the paper: "The parallelization techniques considered in
//! this paper also apply to directed and/or weighted graphs if the required
//! modifications to the underlying sampling algorithm are done." For the
//! *directed* case the modification is the one Section IV-F names: a CSR
//! digraph storing both the out-adjacency and the in-adjacency ("NetworKit
//! stores both the graph and its reverse/transpose to be able to efficiently
//! compute a bidirectional BFS"). The sampler is then the kernel of
//! [`crate::bibfs`], its search from `s` expanding along out-rows and its
//! search from `t` along in-rows.

use crate::bibfs::{enumerate_back, sample_along, SampleInfo, SearchStats};
use crate::csr::NodeId;
use crate::scratch::{TraversalScratch, UNREACHED};
use crate::source::{KadabraGraph, PathSource};
use crate::view::GraphView;
use rand::Rng;

/// A static directed graph: out-edges in CSR form plus the transpose.
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    out: Rows,
    inn: Rows,
}

/// One direction's sorted rows in CSR form: a [`GraphView`] whose rows are
/// not symmetric, which the kernel reads only beside its transpose.
#[derive(Clone, PartialEq, Eq)]
struct Rows {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl Rows {
    /// Rows over `n` vertices from `pairs`, sorted and duplicate-free.
    fn from_sorted(n: usize, pairs: &[(NodeId, NodeId)]) -> Rows {
        let mut offsets = vec![0u64; n + 1];
        for &(u, _) in pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Rows { offsets, targets: pairs.iter().map(|&(_, v)| v).collect() }
    }
}

impl GraphView for Rows {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        crate::prefetch::prefetch_read(&self.targets, self.offsets[v as usize] as usize);
    }
}

impl DiGraph {
    /// Builds a digraph from an arc list over `n` vertices. Self-loops are
    /// dropped and duplicate arcs merged; `(u, v)` and `(v, u)` are distinct.
    pub fn from_arcs(n: usize, arcs: &[(NodeId, NodeId)]) -> DiGraph {
        assert!(n <= NodeId::MAX as usize, "too many vertices for u32 ids");
        let mut cleaned: Vec<(NodeId, NodeId)> = arcs
            .iter()
            .copied()
            .inspect(|&(u, v)| {
                assert!((u as usize) < n && (v as usize) < n, "arc endpoint out of range");
            })
            .filter(|&(u, v)| u != v)
            .collect();
        cleaned.sort_unstable();
        cleaned.dedup();
        let out = Rows::from_sorted(n, &cleaned);
        let mut reversed: Vec<(NodeId, NodeId)> = cleaned.iter().map(|&(u, v)| (v, u)).collect();
        reversed.sort_unstable();
        DiGraph { out, inn: Rows::from_sorted(n, &reversed) }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        GraphView::num_nodes(&self.out)
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.out.targets.len()
    }

    /// Out-neighbours of `v` (sorted).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.out.neighbors(v)
    }

    /// In-neighbours of `v` (sorted) — the transpose adjacency.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.inn.neighbors(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inn.degree(v)
    }

    /// Whether the arc `u -> v` exists.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out.has_edge(u, v)
    }

    /// The kernel of [`crate::bibfs`] from `s` along out-rows and from `t`
    /// along in-rows, with its search statistics.
    pub(crate) fn sample_into<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut TraversalScratch,
        rng: &mut R,
        stats: &mut SearchStats,
    ) -> Option<SampleInfo> {
        sample_along(&self.out, &self.inn, s, t, scratch, rng, stats).map(|(info, _)| info)
    }
}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiGraph")
            .field("nodes", &self.num_nodes())
            .field("arcs", &self.num_arcs())
            .finish()
    }
}

/// BFS from `source` into `dist` along out-arcs (`fwd`), in-arcs (`bwd`) or
/// both (the underlying undirected graph). Vertices `dist` already holds a
/// distance for are not re-entered, so one array serves a sweep over all
/// components. Returns how many vertices this call reached and the largest
/// distance among them.
fn bfs_over(g: &DiGraph, source: NodeId, fwd: bool, bwd: bool, dist: &mut [u32]) -> (usize, u32) {
    let mut queue = vec![source];
    dist[source as usize] = 0;
    let mut head = 0;
    let mut ecc = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        ecc = dist[u as usize];
        let out = if fwd { g.out_neighbors(u) } else { &[] };
        let inn = if bwd { g.in_neighbors(u) } else { &[] };
        for &v in out.iter().chain(inn) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = ecc + 1;
                queue.push(v);
            }
        }
    }
    (queue.len(), ecc)
}

/// Directed BFS distances from `source` along out-edges.
pub fn directed_bfs(g: &DiGraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.num_nodes()];
    bfs_over(g, source, true, false, &mut dist);
    dist
}

impl PathSource for DiGraph {
    fn num_nodes(&self) -> usize {
        DiGraph::num_nodes(self)
    }

    fn sample_path_into<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        scratch: &mut TraversalScratch,
        rng: &mut R,
        stats: &mut SearchStats,
    ) -> Option<u32> {
        self.sample_into(s, t, scratch, rng, stats).map(|info| info.distance)
    }
}

impl KadabraGraph for DiGraph {
    /// A shortest path lies inside one weakly connected component, so the
    /// vertex count of the largest one is always sound. When one root
    /// reaches every vertex and is reached by every vertex, `d(s, t) ≤
    /// d(s, root) + d(root, t)` gives the tighter `ecc_in + ecc_out + 1`.
    fn vertex_diameter_upper(&self, _bfs_budget: u32) -> u32 {
        let n = self.num_nodes();
        let Some(root) = (0..n as NodeId).max_by_key(|&v| self.out_degree(v)) else { return 0 };
        let mut dist = vec![UNREACHED; n];
        let (reached_out, ecc_out) = bfs_over(self, root, true, false, &mut dist);
        dist.fill(UNREACHED);
        let (reached_in, ecc_in) = bfs_over(self, root, false, true, &mut dist);
        if reached_out == n && reached_in == n {
            return (ecc_in + ecc_out + 1).min(n as u32);
        }
        dist.fill(UNREACHED);
        let mut largest = 0;
        for v in 0..n as NodeId {
            if dist[v as usize] == UNREACHED {
                largest = largest.max(bfs_over(self, v, true, true, &mut dist).0);
            }
        }
        largest as u32
    }
}

/// Samples a uniformly random shortest directed `s -> t` path, leaving its
/// interior in `scratch.path` (empty on `None`): [`DiGraph`]'s
/// [`PathSource`] sample without the search statistics.
pub fn sample_directed_shortest_path<R: Rng + ?Sized>(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
) -> Option<SampleInfo> {
    g.sample_into(s, t, scratch, rng, &mut SearchStats::default())
}

/// Exhaustive enumeration of all shortest directed `s -> t` paths (test
/// oracle; exponential). Returns interior vertex lists.
pub fn enumerate_directed_shortest_paths(g: &DiGraph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    assert!(s != t);
    enumerate_back(&g.inn, &directed_bfs(g, s), s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cycle(n: u32) -> DiGraph {
        let arcs: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        DiGraph::from_arcs(n as usize, &arcs)
    }

    #[test]
    fn construction_and_transpose() {
        let g = DiGraph::from_arcs(4, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 0));
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn self_loops_and_duplicates_removed() {
        let g = DiGraph::from_arcs(3, &[(0, 0), (0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn directed_bfs_respects_orientation() {
        let g = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        assert_eq!(directed_bfs(&g, 0), vec![0, 1, 2]);
        assert_eq!(directed_bfs(&g, 2), vec![UNREACHED, UNREACHED, 0]);
    }

    #[test]
    fn cycle_distances_are_asymmetric() {
        let g = cycle(6);
        let d = directed_bfs(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[5], 5); // must go all the way around
    }

    #[test]
    fn sampler_distance_matches_bfs() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..30 {
            let n = 15usize;
            let mut arcs = Vec::new();
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    if u != v && rng.gen_bool(0.15) {
                        arcs.push((u, v));
                    }
                }
            }
            let g = DiGraph::from_arcs(n, &arcs);
            let mut sc = TraversalScratch::new(n);
            for _ in 0..15 {
                let s = rng.gen_range(0..n as NodeId);
                let t = rng.gen_range(0..n as NodeId);
                if s == t {
                    continue;
                }
                let d = directed_bfs(&g, s)[t as usize];
                match sample_directed_shortest_path(&g, s, t, &mut sc, &mut rng) {
                    None => assert_eq!(d, UNREACHED, "trial {trial}: s={s} t={t}"),
                    Some(p) => assert_eq!(p.distance, d, "trial {trial}: s={s} t={t}"),
                }
            }
        }
    }

    #[test]
    fn sampler_counts_match_enumeration() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let n = 10usize;
            let mut arcs = Vec::new();
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    if u != v && rng.gen_bool(0.2) {
                        arcs.push((u, v));
                    }
                }
            }
            let g = DiGraph::from_arcs(n, &arcs);
            let mut sc = TraversalScratch::new(n);
            for (s, t) in [(0, 9), (3, 7), (8, 1)] {
                let all = enumerate_directed_shortest_paths(&g, s, t);
                match sample_directed_shortest_path(&g, s, t, &mut sc, &mut rng) {
                    None => assert!(all.is_empty()),
                    Some(p) => {
                        assert_eq!(p.num_paths as usize, all.len());
                        let mut key = sc.path.clone();
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
    fn sampler_uniformity_on_directed_diamond() {
        // 0 -> {1,2} -> 3: two shortest paths. Back-arcs 3 -> 0 present to
        // make it strongly connected (and to check they don't interfere).
        let g = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
        let mut sc = TraversalScratch::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u64; 2];
        let trials = 20_000;
        for _ in 0..trials {
            let p = sample_directed_shortest_path(&g, 0, 3, &mut sc, &mut rng).unwrap();
            assert_eq!(p.num_paths, 2);
            hits[(sc.path[0] == 2) as usize] += 1;
        }
        let frac = hits[0] as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.02, "biased: {hits:?}");
    }

    #[test]
    fn one_way_reachability() {
        let g = DiGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let mut sc = TraversalScratch::new(3);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(sample_directed_shortest_path(&g, 0, 2, &mut sc, &mut rng).is_some());
        assert!(sample_directed_shortest_path(&g, 2, 0, &mut sc, &mut rng).is_none());
    }

    #[test]
    fn enumerate_on_directed_cycle() {
        let g = cycle(5);
        let paths = enumerate_directed_shortest_paths(&g, 0, 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0], vec![1, 2]);
    }

    #[test]
    fn vertex_diameter_bound_covers_a_chain_beside_high_degree_stars() {
        // Four out-stars own every high-out-degree vertex; the longest
        // shortest path is the 10-chain none of them reaches.
        let mut arcs: Vec<(NodeId, NodeId)> = (0..9).map(|v| (v, v + 1)).collect();
        for star in 0..4 {
            let hub = 10 + star * 6;
            arcs.extend((1..6).map(|leaf| (hub, hub + leaf)));
        }
        let g = DiGraph::from_arcs(34, &arcs);
        assert!(g.vertex_diameter_upper(0) >= 10);
        // Strongly connected: two BFS from one root, capped at n.
        assert_eq!(cycle(6).vertex_diameter_upper(0), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arc_rejected() {
        DiGraph::from_arcs(2, &[(0, 5)]);
    }
}
