//! Diameter computation.
//!
//! Phase 1 of KADABRA (Section III-A of the paper) computes the graph
//! diameter — the main ingredient of the static sample bound ω. The paper
//! uses the sequential BFS-based method of Borassi et al. \[6\]; we implement
//! its two core techniques for undirected graphs:
//!
//! * the **two-sweep** heuristic, which gives a lower bound that is exact on
//!   many real-world graphs, and
//! * **iFUB** (iterative Fringe Upper Bound), which turns the lower bound
//!   into a certified exact diameter, usually after inspecting only a few
//!   BFS trees.
//!
//! Both are deliberately sequential: in the paper this phase is the Amdahl
//! term that limits overall speedup at high node counts (Fig. 2b), and our
//! reproduction keeps that characteristic.

use crate::bfs::{bfs, farthest_vertex};
use crate::csr::{Graph, NodeId};
use crate::scratch::UNREACHED;

/// How a diameter value was certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiameterKind {
    /// iFUB terminated: the value is the exact diameter.
    Exact,
    /// The BFS budget ran out: the value is only a lower bound; callers that
    /// need an upper bound should use [`DiameterResult::upper`].
    BoundsOnly,
}

/// Result of a diameter computation.
#[derive(Debug, Clone, Copy)]
pub struct DiameterResult {
    /// Best known lower bound (the exact diameter when `kind == Exact`).
    pub lower: u32,
    /// Matching upper bound (equals `lower` when exact).
    pub upper: u32,
    /// Whether the value is certified exact.
    pub kind: DiameterKind,
    /// Number of BFS runs spent.
    pub bfs_count: u32,
}

impl DiameterResult {
    /// The certified diameter; panics when only bounds are known.
    pub fn exact(&self) -> u32 {
        assert_eq!(self.kind, DiameterKind::Exact, "diameter not certified exact");
        self.lower
    }

    /// Vertex diameter (number of vertices on a longest shortest path) upper
    /// bound, the quantity KADABRA's ω needs.
    pub fn vertex_diameter_upper(&self) -> u32 {
        self.upper.saturating_add(1)
    }
}

/// Two-sweep heuristic: BFS from `start` to find the farthest vertex `a`,
/// then BFS from `a`; the eccentricity of `a` lower-bounds the diameter.
/// Returns `(lower_bound, a, b)` where `b` realizes the bound.
pub fn two_sweep(g: &Graph, start: NodeId) -> (u32, NodeId, NodeId) {
    let (a, _) = farthest_vertex(g, start);
    let (b, d) = farthest_vertex(g, a);
    (d, a, b)
}

/// Exact diameter of the connected component containing `start`, via
/// two-sweep + iFUB with an optional BFS budget.
///
/// iFUB: root a BFS at a "central" vertex `r` (the midpoint of the two-sweep
/// path). Process vertices by decreasing BFS level `l`; the eccentricity of
/// any vertex at level `l` is at most `2l`, so once the current lower bound
/// reaches `2l` the search can stop with a certified exact answer.
///
/// `max_bfs = 0` means unlimited. When the budget is exhausted the result
/// carries `BoundsOnly` with `upper = 2 * ecc(r)`.
pub fn diameter(g: &Graph, start: NodeId, max_bfs: u32) -> DiameterResult {
    let n = g.num_nodes();
    assert!((start as usize) < n);
    if g.degree(start) == 0 {
        return DiameterResult { lower: 0, upper: 0, kind: DiameterKind::Exact, bfs_count: 0 };
    }

    let mut bfs_count = 0u32;
    let budget = |used: &mut u32| -> bool {
        *used += 1;
        max_bfs == 0 || *used <= max_bfs
    };

    // Two-sweep lower bound.
    if !budget(&mut bfs_count) {
        return DiameterResult {
            lower: 0,
            upper: u32::MAX,
            kind: DiameterKind::BoundsOnly,
            bfs_count,
        };
    }
    let (a, _) = farthest_vertex(g, start);
    if !budget(&mut bfs_count) {
        return DiameterResult {
            lower: 0,
            upper: u32::MAX,
            kind: DiameterKind::BoundsOnly,
            bfs_count,
        };
    }
    let res_a = bfs(g, a);
    let mut lower = res_a.ecc;
    // Midpoint of the a->b path: a vertex at distance ecc/2 from a on the
    // path towards b. We approximate by walking back from b.
    let b = *res_a
        .order
        .iter()
        .max_by_key(|&&v| res_a.dist[v as usize])
        // xtask: allow(unwrap) — BFS order always contains the source.
        .unwrap();
    let mid;
    {
        let target = res_a.ecc / 2;
        // Walk from b towards a until the distance from a equals target.
        let mut cur = b;
        while res_a.dist[cur as usize] > target {
            let d = res_a.dist[cur as usize];
            let mut stepped = false;
            for &u in g.neighbors(cur) {
                if res_a.dist[u as usize] + 1 == d {
                    cur = u;
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break;
            }
        }
        mid = cur;
    }

    // BFS from the midpoint; levels drive iFUB.
    if !budget(&mut bfs_count) {
        return DiameterResult {
            lower,
            upper: u32::MAX,
            kind: DiameterKind::BoundsOnly,
            bfs_count,
        };
    }
    let res_mid = bfs(g, mid);
    lower = lower.max(res_mid.ecc);
    let mut upper = 2 * res_mid.ecc;
    if lower == upper {
        return DiameterResult { lower, upper, kind: DiameterKind::Exact, bfs_count };
    }

    // Vertices by decreasing level.
    let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); res_mid.ecc as usize + 1];
    for v in 0..n as NodeId {
        let d = res_mid.dist[v as usize];
        if d != UNREACHED {
            by_level[d as usize].push(v);
        }
    }
    for level in (1..=res_mid.ecc).rev() {
        if lower >= 2 * level {
            // Certified: every unprocessed vertex has eccentricity ≤ 2*level ≤ lower.
            return DiameterResult { lower, upper: lower, kind: DiameterKind::Exact, bfs_count };
        }
        for &v in &by_level[level as usize] {
            if !budget(&mut bfs_count) {
                let kind =
                    if lower == upper { DiameterKind::Exact } else { DiameterKind::BoundsOnly };
                return DiameterResult { lower, upper, kind, bfs_count };
            }
            let e = bfs(g, v).ecc;
            lower = lower.max(e);
            upper = upper.min(lower.max(2 * (level.saturating_sub(1))));
            if lower >= 2 * level {
                break;
            }
        }
    }
    DiameterResult { lower, upper: lower, kind: DiameterKind::Exact, bfs_count }
}

/// Exact diameter by all-pairs BFS; O(n·m), test oracle for small graphs.
pub fn diameter_brute_force(g: &Graph) -> u32 {
    (0..g.num_nodes() as NodeId).map(|v| bfs(g, v).ecc).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component;
    use crate::csr::graph_from_edges;
    use crate::generators::{gnm, grid, rmat, GnmConfig, GridConfig, RmatConfig};

    #[test]
    fn path_graph_diameter() {
        let edges: Vec<_> = (0..9).map(|v| (v, v + 1)).collect();
        let g = graph_from_edges(10, &edges);
        let d = diameter(&g, 4, 0);
        assert_eq!(d.exact(), 9);
        assert_eq!(d.vertex_diameter_upper(), 10);
    }

    #[test]
    fn cycle_diameter() {
        let n = 12u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = graph_from_edges(n as usize, &edges);
        assert_eq!(diameter(&g, 0, 0).exact(), 6);
    }

    #[test]
    fn star_diameter() {
        let edges: Vec<_> = (1..20).map(|v| (0, v)).collect();
        let g = graph_from_edges(20, &edges);
        assert_eq!(diameter(&g, 5, 0).exact(), 2);
    }

    #[test]
    fn complete_graph_diameter() {
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(6, &edges);
        assert_eq!(diameter(&g, 0, 0).exact(), 1);
    }

    #[test]
    fn isolated_start() {
        let g = graph_from_edges(3, &[(1, 2)]);
        let d = diameter(&g, 0, 0);
        assert_eq!(d.exact(), 0);
    }

    #[test]
    fn two_sweep_lower_bounds_brute_force() {
        let g = grid(GridConfig { rows: 9, cols: 7, diagonal_prob: 0.0, seed: 1 });
        let (lb, _, _) = two_sweep(&g, 0);
        assert!(lb <= diameter_brute_force(&g));
        // On grids two-sweep is exact.
        assert_eq!(lb, 9 - 1 + 7 - 1);
    }

    #[test]
    fn ifub_matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = gnm(GnmConfig { n: 60, m: 120, seed });
            let (lcc, _) = largest_component(&g);
            if lcc.num_nodes() < 2 {
                continue;
            }
            let exact = diameter_brute_force(&lcc);
            let d = diameter(&lcc, 0, 0);
            assert_eq!(d.exact(), exact, "seed {seed}");
        }
    }

    #[test]
    fn ifub_matches_brute_force_on_rmat() {
        let g = rmat(RmatConfig::graph500(8, 4, 42));
        let (lcc, _) = largest_component(&g);
        let exact = diameter_brute_force(&lcc);
        assert_eq!(diameter(&lcc, 0, 0).exact(), exact);
    }

    #[test]
    fn budget_exhaustion_reports_bounds() {
        let g = grid(GridConfig { rows: 20, cols: 20, diagonal_prob: 0.0, seed: 1 });
        let d = diameter(&g, 0, 3);
        // With only 3 BFS runs iFUB cannot certify a 20x20 grid...
        if d.kind == DiameterKind::BoundsOnly {
            assert!(d.lower <= 38);
            assert!(d.upper >= 38);
        } else {
            // ...unless the two-sweep bound happens to certify; then it must
            // be the true diameter.
            assert_eq!(d.exact(), 38);
        }
    }

    #[test]
    fn bfs_count_is_reported() {
        let edges: Vec<_> = (0..9).map(|v| (v, v + 1)).collect();
        let g = graph_from_edges(10, &edges);
        let d = diameter(&g, 0, 0);
        assert!(d.bfs_count >= 3);
    }

    #[test]
    fn diameter_of_two_triangles_bridged() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        assert_eq!(diameter(&g, 0, 0).exact(), 3);
    }
}
