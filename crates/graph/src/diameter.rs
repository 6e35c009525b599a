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

use crate::bfs::{bfs_into, farthest_vertex, BfsScratch};
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
/// carries `BoundsOnly` with `upper = max(lower, 2(l − 1))` for the lowest
/// level `l` whose vertices were *all* searched (`2 · ecc(r)` before the
/// first level completes); the bounds hold at every budget.
///
/// Every choice is a function of distances and ids alone — a farthest vertex
/// is the smallest id at the largest distance, a level is searched in
/// ascending id — so the result does not depend on the order a BFS visits
/// one level in. All searches share one BFS scratch.
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
    let mut sc = BfsScratch::new(n);

    // Two-sweep lower bound.
    if !budget(&mut bfs_count) {
        return DiameterResult {
            lower: 0,
            upper: u32::MAX,
            kind: DiameterKind::BoundsOnly,
            bfs_count,
        };
    }
    bfs_into(g, start, &mut sc);
    let (a, _) = sc.farthest();
    if !budget(&mut bfs_count) {
        return DiameterResult {
            lower: 0,
            upper: u32::MAX,
            kind: DiameterKind::BoundsOnly,
            bfs_count,
        };
    }
    let mut lower = bfs_into(g, a, &mut sc);
    // Midpoint of the a->b path: a vertex at distance ecc/2 from a on the
    // path towards b. We approximate by walking back from b.
    let (b, _) = sc.farthest();
    let mid;
    {
        let dist_a = sc.dist();
        let target = lower / 2;
        // Walk from b towards a until the distance from a equals target.
        let mut cur = b;
        while dist_a[cur as usize] > target {
            let d = dist_a[cur as usize];
            let mut stepped = false;
            for &u in g.neighbors(cur) {
                if dist_a[u as usize] + 1 == d {
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
    let ecc_mid = bfs_into(g, mid, &mut sc);
    lower = lower.max(ecc_mid);
    let mut upper = 2 * ecc_mid;
    if lower == upper {
        return DiameterResult { lower, upper, kind: DiameterKind::Exact, bfs_count };
    }

    // Vertices by level, ascending id inside one.
    let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); ecc_mid as usize + 1];
    for (v, &d) in sc.dist().iter().enumerate() {
        if d != UNREACHED {
            by_level[d as usize].push(v as NodeId);
        }
    }
    for level in (1..=ecc_mid).rev() {
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
            lower = lower.max(bfs_into(g, v, &mut sc));
            if lower >= 2 * level {
                break;
            }
        }
        // Only now is every vertex above `level - 1` done: each unprocessed
        // vertex has eccentricity ≤ 2(level − 1), each processed one ≤ lower.
        upper = upper.min(lower.max(2 * (level - 1)));
    }
    DiameterResult { lower, upper: lower, kind: DiameterKind::Exact, bfs_count }
}

/// Exact diameter by all-pairs BFS; O(n·m), test oracle for small graphs.
pub fn diameter_brute_force(g: &Graph) -> u32 {
    let mut sc = BfsScratch::new(g.num_nodes());
    (0..g.num_nodes() as NodeId).map(|v| bfs_into(g, v, &mut sc)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component;
    use crate::csr::graph_from_edges;
    use crate::generators::{
        barabasi_albert, gnm, grid, rmat, BaConfig, GnmConfig, GridConfig, RmatConfig,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Whatever the budget, the bounds hold: `lower ≤ D ≤ upper`, and a
        /// result tagged `Exact` is `D` — on connected G(n, m) components,
        /// Barabási–Albert graphs and grids with diagonals, from a random
        /// start, under every budget from 1 to 12 and unlimited.
        #[test]
        fn every_budget_bounds_the_diameter(
            family in 0u8..3,
            size in 0usize..60,
            knob in 0usize..8,
            seed in 0u64..1_000,
            start in any::<u32>(),
        ) {
            let g = match family {
                0 => largest_component(&gnm(GnmConfig { n: 4 + size, m: (4 + size) * (2 + knob) / 2 - 2, seed })).0,
                1 => barabasi_albert(BaConfig { n: 8 + size, m: 1 + knob % 3, seed }),
                _ => grid(GridConfig {
                    rows: 1 + size % 13,
                    cols: 2 + size / 13 + knob,
                    diagonal_prob: (seed % 4) as f64 / 10.0,
                    seed,
                }),
            };
            let exact = diameter_brute_force(&g);
            let start = start % g.num_nodes() as NodeId;
            for budget in 0..=12 {
                let d = diameter(&g, start, budget);
                prop_assert!(d.lower <= exact, "budget {}: lower {} > D {}", budget, d.lower, exact);
                prop_assert!(d.upper >= exact, "budget {}: upper {} < D {}", budget, d.upper, exact);
                if d.kind == DiameterKind::Exact {
                    prop_assert_eq!((d.lower, d.upper), (exact, exact), "budget {}", budget);
                }
                if budget == 0 {
                    prop_assert_eq!(d.kind, DiameterKind::Exact);
                }
            }
        }
    }

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
    fn a_budget_spent_inside_a_level_keeps_the_upper_bound() {
        // The budget runs out among the vertices of one level. Lowering
        // `upper` after each of them (rather than after the whole level)
        // reported an upper bound of 3 here.
        let g = barabasi_albert(BaConfig { n: 18, m: 2, seed: 636 });
        let exact = diameter_brute_force(&g);
        assert_eq!(exact, 4);
        let d = diameter(&g, 8, 4);
        assert!(d.lower <= exact && exact <= d.upper, "{d:?}");
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
