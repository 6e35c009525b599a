//! Breadth-first search kernels.
//!
//! These are the unidirectional building blocks: full-distance BFS (used by
//! the diameter algorithms and by tests as a reference for the bidirectional
//! sampler), eccentricity computation, and σ-augmented BFS (shortest-path
//! counting, the forward pass of Brandes' algorithm).
//!
//! The full-distance BFS is direction-optimizing (Beamer, Asanović &
//! Patterson, "Direction-Optimizing Breadth-First Search", SC 2012): a
//! level expands top-down — frontier rows scanned for unvisited neighbours —
//! while the frontier is small, and bottom-up — every unvisited vertex scans
//! its row for a frontier neighbour and stops at the first — while the
//! frontier's arcs outnumber a share of the unexplored ones. On a
//! small-world graph the two or three widest levels hold most vertices, and
//! bottom-up settles each of them after a few row entries instead of
//! reading every arc into the level.

use crate::csr::{Graph, NodeId};
use crate::scratch::UNREACHED;

/// A growing frontier goes bottom-up once its arcs exceed the unexplored
/// arcs / `ALPHA` (Beamer et al.'s α).
const ALPHA: u64 = 14;

/// A bottom-up search returns to top-down once the frontier holds fewer
/// than n / `BETA` vertices (Beamer et al.'s β). Without the way back, the
/// long tail of a high-diameter graph pays an O(n) scan per level.
const BETA: usize = 24;

/// Result of a full single-source BFS.
pub struct BfsResult {
    /// `dist[v]` = hop distance from the source, or [`UNREACHED`].
    pub dist: Vec<u32>,
    /// The reached vertices by non-decreasing distance. The order inside one
    /// level is unspecified.
    pub order: Vec<NodeId>,
    /// Eccentricity of the source within its component (max finite distance).
    pub ecc: u32,
}

/// The buffers of [`bfs_into`], reused by every search on one graph: the
/// distances, and the reached vertices level by level.
pub(crate) struct BfsScratch {
    dist: Vec<u32>,
    order: Vec<NodeId>,
    /// `order[levels[d]..levels[d + 1]]` is level `d`; the last entry is
    /// `order.len()`.
    levels: Vec<usize>,
}

impl BfsScratch {
    /// Buffers for searches on a graph of `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        BfsScratch { dist: vec![UNREACHED; n], order: Vec::with_capacity(n), levels: Vec::new() }
    }

    /// Distances of the last search.
    pub(crate) fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// The smallest id at the maximum distance of the last search, with
    /// that distance.
    pub(crate) fn farthest(&self) -> (NodeId, u32) {
        let ecc = self.levels.len() - 2;
        let last = &self.order[self.levels[ecc]..self.levels[ecc + 1]];
        // xtask: allow(unwrap) — a search reaches its source, so every level
        // up to the eccentricity is non-empty.
        (*last.iter().min().unwrap(), ecc as u32)
    }
}

/// Searches from `source` into `sc`, returning the source's eccentricity.
/// Allocation-free once `sc.order` has grown to the component's size.
pub(crate) fn bfs_into(g: &Graph, source: NodeId, sc: &mut BfsScratch) -> u32 {
    let n = g.num_nodes();
    assert!((source as usize) < n, "source out of range");
    assert_eq!(sc.dist.len(), n, "scratch sized for another graph");
    for &v in &sc.order {
        sc.dist[v as usize] = UNREACHED;
    }
    sc.order.clear();
    sc.levels.clear();
    sc.dist[source as usize] = 0;
    sc.order.push(source);
    sc.levels.push(0);

    let mut frontier_arcs = g.degree(source) as u64;
    let mut unexplored = 2 * g.num_edges() as u64 - frontier_arcs;
    let (mut bottom_up, mut last_width) = (false, 0);
    let (mut lo, mut d) = (0, 0u32);
    loop {
        let hi = sc.order.len();
        if lo == hi {
            return d - 1;
        }
        sc.levels.push(hi);
        let width = hi - lo;
        if bottom_up {
            bottom_up = width >= n / BETA;
        } else {
            bottom_up = width > last_width && frontier_arcs > unexplored / ALPHA;
        }
        let mut next_arcs = 0u64;
        if bottom_up {
            for v in 0..n as NodeId {
                if sc.dist[v as usize] != UNREACHED {
                    continue;
                }
                let row = g.neighbors(v);
                if row.iter().any(|&u| sc.dist[u as usize] == d) {
                    sc.dist[v as usize] = d + 1;
                    sc.order.push(v);
                    next_arcs += row.len() as u64;
                }
            }
        } else {
            for i in lo..hi {
                let u = sc.order[i];
                if let Some(&w) = sc.order.get(i + 1) {
                    g.prefetch_neighbors(w);
                }
                for &v in g.neighbors(u) {
                    if sc.dist[v as usize] == UNREACHED {
                        sc.dist[v as usize] = d + 1;
                        sc.order.push(v);
                        next_arcs += g.degree(v) as u64;
                    }
                }
            }
        }
        unexplored -= next_arcs;
        frontier_arcs = next_arcs;
        (lo, last_width) = (hi, width);
        d += 1;
    }
}

/// Runs a BFS from `source`, returning distances, the reached vertices by
/// level and the source's eccentricity.
pub fn bfs(g: &Graph, source: NodeId) -> BfsResult {
    let mut sc = BfsScratch::new(g.num_nodes());
    let ecc = bfs_into(g, source, &mut sc);
    BfsResult { dist: sc.dist, order: sc.order, ecc }
}

/// σ-augmented BFS from `source`: distances plus the number of shortest
/// source→v paths for every v (the forward pass of Brandes' algorithm).
pub struct SigmaBfsResult {
    /// Hop distances (or [`UNREACHED`]).
    pub dist: Vec<u32>,
    /// σ(v): number of distinct shortest source→v paths (0 if unreached;
    /// σ(source) = 1).
    pub sigma: Vec<u64>,
    /// Visitation order (needed for the reverse accumulation of Brandes).
    pub order: Vec<NodeId>,
}

/// Runs the σ-augmented BFS.
pub fn sigma_bfs(g: &Graph, source: NodeId) -> SigmaBfsResult {
    let n = g.num_nodes();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![UNREACHED; n];
    let mut sigma = vec![0u64; n];
    let mut order = Vec::new();
    dist[source as usize] = 0;
    sigma[source as usize] = 1;
    order.push(source);
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        if let Some(&w) = order.get(head) {
            g.prefetch_neighbors(w);
        }
        let du = dist[u as usize];
        let su = sigma[u as usize];
        for &v in g.neighbors(u) {
            let dv = dist[v as usize];
            if dv == UNREACHED {
                dist[v as usize] = du + 1;
                sigma[v as usize] = su;
                order.push(v);
            } else if dv == du + 1 {
                sigma[v as usize] = sigma[v as usize].saturating_add(su);
            }
        }
    }
    SigmaBfsResult { dist, sigma, order }
}

/// Returns the vertex with maximum distance from `source` (ties broken by
/// smallest id) together with that distance; `(source, 0)` for an isolated
/// source. This is the primitive behind the two-sweep diameter bound.
pub fn farthest_vertex(g: &Graph, source: NodeId) -> (NodeId, u32) {
    let mut sc = BfsScratch::new(g.num_nodes());
    bfs_into(g, source, &mut sc);
    sc.farthest()
}

/// Eccentricity of `source` within its connected component.
pub fn eccentricity(g: &Graph, source: NodeId) -> u32 {
    bfs(g, source).ecc
}

/// Hop distance between `s` and `t` (or `None` if disconnected). Convenience
/// wrapper used by tests to validate the bidirectional sampler.
pub fn hop_distance(g: &Graph, s: NodeId, t: NodeId) -> Option<u32> {
    let d = bfs(g, s).dist[t as usize];
    (d != UNREACHED).then_some(d)
}

/// The queue-driven top-down BFS [`bfs`] replaced, kept as its differential
/// oracle (`tests::oracle`).
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn bfs(g: &Graph, source: NodeId) -> BfsResult {
        let n = g.num_nodes();
        assert!((source as usize) < n, "source out of range");
        let mut dist = vec![UNREACHED; n];
        let mut order = Vec::new();
        dist[source as usize] = 0;
        order.push(source);
        let mut head = 0;
        let mut ecc = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            if let Some(&w) = order.get(head) {
                g.prefetch_neighbors(w);
            }
            let du = dist[u as usize];
            for &v in g.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    ecc = du + 1;
                    order.push(v);
                }
            }
        }
        BfsResult { dist, order, ecc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;

    /// [`bfs`] against [`reference::bfs`]: the same distances and
    /// eccentricity from every source tried, and an order that lists exactly
    /// the reached vertices by non-decreasing distance.
    mod oracle {
        use super::*;
        use crate::generators::{
            barabasi_albert, gnm, grid, rmat, BaConfig, GnmConfig, GridConfig, RmatConfig,
        };
        use proptest::prelude::*;

        fn agree_from(g: &Graph, source: NodeId) {
            let (got, want) = (bfs(g, source), reference::bfs(g, source));
            prop_assert_eq!(&got.dist, &want.dist, "dist from {}", source);
            prop_assert_eq!(got.ecc, want.ecc, "ecc from {}", source);
            prop_assert_eq!(got.order.first(), Some(&source));
            prop_assert!(got
                .order
                .windows(2)
                .all(|w| got.dist[w[0] as usize] <= got.dist[w[1] as usize]));
            let mut seen = got.order.clone();
            seen.sort_unstable();
            let mut reached = want.order;
            reached.sort_unstable();
            prop_assert_eq!(seen, reached, "reached set from {}", source);
        }

        /// A graph of family `family % 4` — G(n, m) from empty to dense
        /// (often disconnected), R-MAT, Barabási–Albert, grids with
        /// diagonals — with size knobs `a`, `b` in `0..64`.
        fn draw_graph(family: u8, a: usize, b: usize, seed: u64) -> Graph {
            match family % 4 {
                0 => gnm(GnmConfig { n: 2 + a, m: (2 + a) * (b % 9) / 2, seed }),
                1 => rmat(RmatConfig::graph500(4 + a as u32 % 6, 1 + b as u32 % 16, seed)),
                2 => barabasi_albert(BaConfig { n: 8 + a * 4, m: 1 + b % 6, seed }),
                _ => grid(GridConfig {
                    rows: 1 + a % 24,
                    cols: 1 + b % 24,
                    diagonal_prob: (seed % 5) as f64 / 10.0,
                    seed,
                }),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            #[test]
            fn bfs_matches_the_reference(
                family in 0u8..4,
                a in 0usize..64,
                b in 0usize..64,
                seed in 0u64..1_000,
                sources in proptest::collection::vec(any::<u32>(), 1..6),
            ) {
                let g = draw_graph(family, a, b, seed);
                for s in sources {
                    agree_from(&g, s % g.num_nodes() as NodeId);
                }
            }
        }

        #[test]
        fn bfs_matches_the_reference_on_a_64_by_64_grid() {
            let g = grid(GridConfig { rows: 64, cols: 64, diagonal_prob: 0.0, seed: 1 });
            for s in [0, 63, 2080, 4095, 1234] {
                agree_from(&g, s);
            }
        }
    }

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as NodeId - 1).map(|v| (v, v + 1)).collect();
        graph_from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path_graph() {
        let g = path_graph(5);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.ecc, 4);
        assert_eq!(r.order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_from_middle() {
        let g = path_graph(5);
        let r = bfs(&g, 2);
        assert_eq!(r.dist, vec![2, 1, 0, 1, 2]);
        assert_eq!(r.ecc, 2);
    }

    #[test]
    fn bfs_disconnected() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let r = bfs(&g, 0);
        assert_eq!(r.dist[0], 0);
        assert_eq!(r.dist[1], 1);
        assert_eq!(r.dist[2], UNREACHED);
        assert_eq!(r.dist[3], UNREACHED);
        assert_eq!(r.ecc, 1);
    }

    #[test]
    fn sigma_counts_on_cycle() {
        // 4-cycle: two shortest paths between opposite corners.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = sigma_bfs(&g, 0);
        assert_eq!(r.sigma[0], 1);
        assert_eq!(r.sigma[1], 1);
        assert_eq!(r.sigma[3], 1);
        assert_eq!(r.sigma[2], 2);
        assert_eq!(r.dist[2], 2);
    }

    #[test]
    fn sigma_counts_on_complete_bipartite_k23() {
        // Left = {0,1}, Right = {2,3,4}; between the two left vertices there
        // are 3 shortest paths (one through each right vertex).
        let g = graph_from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]);
        let r = sigma_bfs(&g, 0);
        assert_eq!(r.dist[1], 2);
        assert_eq!(r.sigma[1], 3);
        for right in 2..5 {
            assert_eq!(r.sigma[right], 1);
        }
    }

    #[test]
    fn sigma_on_grid_matches_binomials() {
        // 3x3 grid; number of monotone lattice paths corner-to-corner is
        // C(4,2) = 6.
        let id = |r: u32, c: u32| (r * 3 + c) as NodeId;
        let mut edges = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < 3 {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        let g = graph_from_edges(9, &edges);
        let r = sigma_bfs(&g, id(0, 0));
        assert_eq!(r.dist[id(2, 2) as usize], 4);
        assert_eq!(r.sigma[id(2, 2) as usize], 6);
    }

    #[test]
    fn farthest_vertex_on_path() {
        let g = path_graph(7);
        assert_eq!(farthest_vertex(&g, 0), (6, 6));
        assert_eq!(farthest_vertex(&g, 3), (0, 3));
    }

    #[test]
    fn farthest_vertex_isolated() {
        let g = graph_from_edges(3, &[(1, 2)]);
        assert_eq!(farthest_vertex(&g, 0), (0, 0));
    }

    #[test]
    fn hop_distance_matches_bfs() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)]);
        assert_eq!(hop_distance(&g, 0, 4), Some(2));
        assert_eq!(hop_distance(&g, 1, 4), Some(3));
    }

    #[test]
    fn hop_distance_disconnected_is_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(hop_distance(&g, 0, 3), None);
    }

    #[test]
    fn order_is_nondecreasing_in_distance() {
        let g = graph_from_edges(
            8,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)],
        );
        let r = bfs(&g, 0);
        for w in r.order.windows(2) {
            assert!(r.dist[w[0] as usize] <= r.dist[w[1] as usize]);
        }
    }
}
