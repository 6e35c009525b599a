//! Balanced bidirectional BFS and uniform shortest-path sampling.
//!
//! KADABRA's key per-sample operation (improvement (ii) in Section III-A of
//! the paper) is: draw a random vertex pair `(s, t)`, find the s-t distance
//! `L` with a *bidirectional* BFS, and sample **one shortest s-t path
//! uniformly at random** among all shortest s-t paths. Every interior vertex
//! of the sampled path receives one count.
//!
//! The implementation expands complete BFS levels alternately from both
//! endpoints, always growing the side whose frontier has the smaller total
//! degree (fewer edges to scan). Expansion stops during the first level in
//! which a newly discovered vertex is already settled by the opposite search.
//!
//! Correctness of the stopping rule: let the expanding side be `s` with
//! completed radius `ds` and let the other side have completed radius `dt`.
//! All vertices within distance `ds` of `s` (resp. `dt` of `t`) are settled
//! with exact distances and path counts σ. If a path of length
//! `L < ds + 1 + k0` existed (where `k0` is the minimum settled `t`-distance
//! over the meeting vertices), then either `L ≤ ds` — impossible, `t` would
//! have been discovered (with settled `dist_t(t) = 0`) in an earlier level —
//! or the path's vertex at distance `ds + 1` from `s` would be a meeting
//! vertex with a smaller settled `t`-distance. Hence
//! `L = ds + 1 + k0`, and the set `C = {v : dist_s(v) = ds+1, dist_t(v) = k0}`
//! is a complete s-t cut of the shortest-path DAG, giving
//! `σ_st = Σ_{v ∈ C} σ_s(v)·σ_t(v)`.
//!
//! A uniform path is then drawn by picking a cut vertex with probability
//! proportional to `σ_s(v)·σ_t(v)` and walking back to each endpoint, at each
//! step choosing a predecessor `u` with probability `σ(u)/Σ σ`.

use crate::bfs::sigma_bfs;
use crate::csr::{Graph, NodeId};
use crate::scratch::{StampedBfsState, TraversalScratch};
use crate::view::GraphView;
use rand::Rng;

/// Outcome of one bidirectional shortest-path sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSample {
    /// Shortest s-t distance in hops.
    pub distance: u32,
    /// Interior vertices of the sampled path (excludes both endpoints).
    /// Empty when `s` and `t` are adjacent.
    pub interior: Vec<NodeId>,
    /// Total number of distinct shortest s-t paths (saturating at `u128::MAX`).
    pub num_paths: u128,
}

/// Statistics of the bidirectional search, used by performance models.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Edges scanned by both searches.
    pub edges_scanned: u64,
    /// Vertices settled by both searches.
    pub vertices_settled: u64,
}

/// Summary of a sampled path whose interior vertices were left in
/// `scratch.path` by [`sample_shortest_path_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleInfo {
    /// Shortest s-t distance in hops.
    pub distance: u32,
    /// Total number of distinct shortest s-t paths (saturating at `u128::MAX`).
    pub num_paths: u128,
}

/// How many adjacency entries ahead the scan prefetches the stamped state.
const STATE_PREFETCH_DIST: usize = 4;

/// Samples a uniformly random shortest `s`-`t` path.
///
/// Returns `None` if `t` is unreachable from `s`. `s == t` is rejected with a
/// panic because KADABRA never samples such pairs.
///
/// `scratch` must be sized for `g` ([`TraversalScratch::new`] with
/// `g.num_nodes()`); it is reset internally, so the same scratch can be
/// reused across samples without reallocation.
pub fn sample_shortest_path<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
) -> Option<PathSample> {
    sample_shortest_path_with_stats(g, s, t, scratch, rng).map(|(p, _)| p)
}

/// Like [`sample_shortest_path`] but also reports search statistics.
pub fn sample_shortest_path_with_stats<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
) -> Option<(PathSample, SearchStats)> {
    let mut stats = SearchStats::default();
    let info = sample_shortest_path_into(g, s, t, scratch, rng, &mut stats)?;
    let sample = PathSample {
        distance: info.distance,
        interior: scratch.path.clone(),
        num_paths: info.num_paths,
    };
    Some((sample, stats))
}

/// Allocation-free core of the sampler: identical semantics to
/// [`sample_shortest_path`], but the sampled interior is left in
/// `scratch.path` (cleared on `None`) instead of being cloned into a fresh
/// [`PathSample`], and search statistics are *accumulated* into `stats`.
///
/// Every buffer the search needs lives in `scratch`, allocated at its
/// one-entry-per-vertex bound by [`TraversalScratch::new`], so a call performs
/// no heap allocation at all — the property the allocation-regression test in
/// `kadabra-core` pins down.
pub fn sample_shortest_path_into<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
    stats: &mut SearchStats,
) -> Option<SampleInfo> {
    assert!(s != t, "sampling requires distinct endpoints");
    assert!((s as usize) < g.num_nodes() && (t as usize) < g.num_nodes());
    scratch.reset();
    let TraversalScratch {
        fwd,
        bwd,
        path,
        frontier_fwd,
        frontier_bwd,
        next_frontier,
        meets,
        cut,
        ..
    } = scratch;

    // Frontiers hold the vertices of the most recently completed level.
    frontier_fwd.push(s);
    frontier_bwd.push(t);
    fwd.visit(s, 0, 1);
    bwd.visit(t, 0, 1);
    stats.vertices_settled += 2;
    let mut ds = 0u32; // completed radius around s
    let mut dt = 0u32; // completed radius around t
    let mut deg_s: u64 = g.degree(s) as u64;
    let mut deg_t: u64 = g.degree(t) as u64;

    loop {
        if frontier_fwd.is_empty() || frontier_bwd.is_empty() {
            return None; // one component exhausted without meeting
        }
        // Balanced expansion: grow the cheaper side.
        let expand_fwd = deg_s <= deg_t;
        let (state, other, frontier, depth): (
            &mut StampedBfsState,
            &mut StampedBfsState,
            &mut Vec<NodeId>,
            &mut u32,
        ) = if expand_fwd {
            (&mut *fwd, &mut *bwd, &mut *frontier_fwd, &mut ds)
        } else {
            (&mut *bwd, &mut *fwd, &mut *frontier_bwd, &mut dt)
        };

        let new_depth = *depth + 1;
        next_frontier.clear();
        let mut next_deg: u64 = 0;
        for i in 0..frontier.len() {
            let u = frontier[i];
            // Pull the next frontier vertex's adjacency row while scanning
            // this one's.
            if let Some(&w) = frontier.get(i + 1) {
                g.prefetch_neighbors(w);
            }
            let su = state.sigma(u);
            let adj = g.neighbors(u);
            for (j, &v) in adj.iter().enumerate() {
                // Pull the stamped record a few probes ahead: the v's are
                // data-dependent, so the hardware prefetcher cannot help.
                if let Some(&w) = adj.get(j + STATE_PREFETCH_DIST) {
                    state.prefetch(w);
                }
                stats.edges_scanned += 1;
                if state.settle_or_merge(v, new_depth, su) {
                    stats.vertices_settled += 1;
                    next_frontier.push(v);
                    next_deg += g.degree(v) as u64;
                    if other.reached(v) {
                        meets.push((v, other.dist(v)));
                    }
                }
            }
        }
        *depth = new_depth;
        std::mem::swap(frontier, next_frontier);
        if expand_fwd {
            deg_s = next_deg;
        } else {
            deg_t = next_deg;
        }
        if !meets.is_empty() {
            // Finish: compute the true distance and the cut.
            // xtask: allow(unwrap) — guarded by !meets.is_empty() above.
            let k0 = meets.iter().map(|&(_, k)| k).min().unwrap();
            let distance = new_depth + k0;
            // The cut lives at level `new_depth` of the side just expanded.
            let (near, far) = if expand_fwd { (&*fwd, &*bwd) } else { (&*bwd, &*fwd) };
            let mut num_paths: u128 = 0;
            for &(v, k) in meets.iter() {
                if k == k0 {
                    let w = (near.sigma(v) as u128).saturating_mul(far.sigma(v) as u128);
                    num_paths = num_paths.saturating_add(w);
                    cut.push((v, w));
                }
            }
            debug_assert!(num_paths > 0);

            let (near_root, far_root) = if expand_fwd { (s, t) } else { (t, s) };
            select_and_backtrack(g, cut, num_paths, near, near_root, far, far_root, path, rng);
            debug_assert_eq!(
                // xtask: allow(determinism) — a shortest path visits each
                // vertex at most once, so its length fits the u32 the CSR
                // layout guarantees for vertex counts.
                path.len() as u32 + 1,
                distance,
                "interior vertex count must be distance - 1"
            );
            return Some(SampleInfo { distance, num_paths });
        }
    }
}

/// Tail of a sample: draws one cut vertex ∝ σ_near·σ_far and walks back to
/// both roots, leaving the interior in `path`.
///
/// The cut is first sorted by vertex id. The level sets of a BFS are
/// order-independent, but the *discovery order* within the final level
/// follows the frontier's insertion order, so the cut is put into a
/// canonical order before any RNG is consumed. Selection then depends only
/// on the level sets and the RNG stream, never on traversal schedule.
#[allow(clippy::too_many_arguments)]
fn select_and_backtrack<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    cut: &mut Vec<(NodeId, u128)>,
    num_paths: u128,
    near: &StampedBfsState,
    near_root: NodeId,
    far: &StampedBfsState,
    far_root: NodeId,
    path: &mut Vec<NodeId>,
    rng: &mut R,
) {
    // Canonical cut order (each vertex settles at most once per direction and
    // level, so ids are distinct and the sort is a total order).
    cut.sort_unstable_by_key(|&(v, _)| v);

    // Sample a cut vertex proportionally to σ_near · σ_far.
    let mut pick = rng.gen_range(0..num_paths);
    let mut chosen = cut[0].0;
    for &(v, w) in cut.iter() {
        if pick < w {
            chosen = v;
            break;
        }
        pick -= w;
    }

    // Walk back towards both endpoints, σ-proportionally. The cut buffer is
    // dead once a vertex is drawn, so the walks reuse it as predecessor
    // scratch — no extra allocation, no extra plumbing.
    path.clear();
    backtrack(g, near, chosen, near_root, path, cut, rng);
    if chosen != far_root {
        path.push(chosen);
    }
    backtrack(g, far, chosen, far_root, path, cut, rng);
}

/// Sliding prefetch distance for the backtrack predecessor scan: the
/// neighbor records are data-dependent random probes, so pull them toward
/// cache a few entries ahead.
const BACKTRACK_PREFETCH_DIST: usize = 6;

/// Walks from `from` (exclusive) towards `root` (exclusive), pushing interior
/// vertices onto `out`. At a vertex of distance `d` the predecessor `u`
/// (distance `d - 1`) is chosen with probability `σ(u) / Σ σ`, which makes
/// the complete walk a uniform draw among the σ(from) shortest root→from
/// paths.
///
/// `preds` is caller scratch (clobbered): each step scans the neighbor
/// records **once**, caching the qualifying predecessors with their σ, then
/// draws from the cache — the record probes are random accesses into a
/// state arena that may be cache-cold, so not re-scanning for the draw
/// halves the expensive loads. The drawn predecessor — and the RNG stream —
/// are exactly those of a scan-twice implementation.
fn backtrack<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    state: &StampedBfsState,
    from: NodeId,
    root: NodeId,
    out: &mut Vec<NodeId>,
    preds: &mut Vec<(NodeId, u128)>,
    rng: &mut R,
) {
    let mut cur = from;
    let mut d = state.dist(cur);
    while d > 1 {
        let adj = g.neighbors(cur);
        for &u in adj.iter().take(BACKTRACK_PREFETCH_DIST) {
            state.prefetch(u);
        }
        // Total σ over predecessors equals σ(cur) by construction, except for
        // cut vertices whose σ may also have received contributions from
        // same-level edges; recompute the predecessor total to stay exact.
        preds.clear();
        let mut total: u64 = 0;
        for (j, &u) in adj.iter().enumerate() {
            if let Some(&nu) = adj.get(j + BACKTRACK_PREFETCH_DIST) {
                state.prefetch(nu);
            }
            if let Some((du, su)) = state.record(u) {
                if du == d - 1 {
                    total += su;
                    preds.push((u, su as u128));
                }
            }
        }
        debug_assert!(total > 0);
        let mut pick = rng.gen_range(0..total);
        let mut nxt = cur;
        for &(u, su) in preds.iter() {
            let su = su as u64;
            if pick < su {
                nxt = u;
                break;
            }
            pick -= su;
        }
        debug_assert_ne!(nxt, cur);
        g.prefetch_neighbors(nxt);
        out.push(nxt);
        cur = nxt;
        d -= 1;
    }
    debug_assert!(d == 0 || g.has_edge(cur, root) || cur == root);
    let _ = root;
}

/// Exhaustively enumerates **all** shortest `s`-`t` paths. Exponential in the
/// worst case — intended as a test oracle on small graphs only.
///
/// Each returned path lists interior vertices in s→t order.
pub fn enumerate_shortest_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    assert!(s != t);
    let res = sigma_bfs(g, s);
    if res.dist[t as usize] == crate::scratch::UNREACHED {
        return Vec::new();
    }
    // DFS backwards from t over the shortest-path DAG.
    let mut paths = Vec::new();
    let mut stack = vec![t];
    fn rec(
        g: &Graph,
        dist: &[u32],
        s: NodeId,
        cur: NodeId,
        stack: &mut Vec<NodeId>,
        paths: &mut Vec<Vec<NodeId>>,
    ) {
        if cur == s {
            // stack holds t..=s reversed; interior = everything but ends.
            let mut interior: Vec<NodeId> = stack[1..stack.len() - 1].to_vec();
            interior.reverse();
            paths.push(interior);
            return;
        }
        let d = dist[cur as usize];
        for &u in g.neighbors(cur) {
            if dist[u as usize] + 1 == d {
                stack.push(u);
                rec(g, dist, s, u, stack, paths);
                stack.pop();
            }
        }
    }
    rec(g, &res.dist, s, t, &mut stack, &mut paths);
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scratch_for(g: &Graph) -> TraversalScratch {
        TraversalScratch::new(g.num_nodes())
    }

    #[test]
    fn adjacent_pair_has_empty_interior() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let p = sample_shortest_path(&g, 0, 1, &mut sc, &mut rng).unwrap();
        assert_eq!(p.distance, 1);
        assert!(p.interior.is_empty());
        assert_eq!(p.num_paths, 1);
    }

    #[test]
    fn path_graph_interior_is_whole_middle() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let p = sample_shortest_path(&g, 0, 4, &mut sc, &mut rng).unwrap();
        assert_eq!(p.distance, 4);
        assert_eq!(p.num_paths, 1);
        let mut interior = p.interior.clone();
        interior.sort_unstable();
        assert_eq!(interior, vec![1, 2, 3]);
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_shortest_path(&g, 0, 3, &mut sc, &mut rng).is_none());
    }

    #[test]
    fn four_cycle_counts_two_paths() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let p = sample_shortest_path(&g, 0, 2, &mut sc, &mut rng).unwrap();
        assert_eq!(p.distance, 2);
        assert_eq!(p.num_paths, 2);
        assert_eq!(p.interior.len(), 1);
        assert!(p.interior[0] == 1 || p.interior[0] == 3);
    }

    #[test]
    fn distance_matches_unidirectional_bfs_on_random_graphs() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..30 {
            let n = 20 + trial % 10;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(0.12) {
                        edges.push((u, v));
                    }
                }
            }
            let g = graph_from_edges(n, &edges);
            let mut sc = scratch_for(&g);
            for _ in 0..20 {
                let s = rng.gen_range(0..n as NodeId);
                let t = rng.gen_range(0..n as NodeId);
                if s == t {
                    continue;
                }
                let expect = crate::bfs::hop_distance(&g, s, t);
                let got = sample_shortest_path(&g, s, t, &mut sc, &mut rng);
                match (expect, &got) {
                    (None, None) => {}
                    (Some(d), Some(p)) => assert_eq!(d, p.distance, "s={s} t={t}"),
                    _ => panic!("reachability mismatch for s={s} t={t}: {expect:?} vs {got:?}"),
                }
            }
        }
    }

    #[test]
    fn num_paths_matches_enumeration_on_random_graphs() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            let n = 12;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(0.25) {
                        edges.push((u, v));
                    }
                }
            }
            let g = graph_from_edges(n, &edges);
            let mut sc = scratch_for(&g);
            for s in 0..3 {
                for t in 6..9 {
                    let all = enumerate_shortest_paths(&g, s, t);
                    let got = sample_shortest_path(&g, s, t, &mut sc, &mut rng);
                    if all.is_empty() {
                        assert!(got.is_none());
                    } else {
                        let p = got.unwrap();
                        assert_eq!(p.num_paths as usize, all.len(), "s={s} t={t}");
                        assert!(all.iter().any(|cand| {
                            let mut a = cand.clone();
                            let mut b = p.interior.clone();
                            a.sort_unstable();
                            b.sort_unstable();
                            a == b
                        }));
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_interior_is_a_real_shortest_path() {
        // Verify connectivity of the sampled interior explicitly.
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges = Vec::new();
        let n = 30;
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.gen_bool(0.1) {
                    edges.push((u, v));
                }
            }
        }
        let g = graph_from_edges(n, &edges);
        let mut sc = scratch_for(&g);
        for _ in 0..100 {
            let s = rng.gen_range(0..n as NodeId);
            let t = rng.gen_range(0..n as NodeId);
            if s == t {
                continue;
            }
            if let Some(p) = sample_shortest_path(&g, s, t, &mut sc, &mut rng) {
                // The interior, ordered by distance from s, must form a chain
                // s - i1 - i2 - ... - t.
                let dist_s = crate::bfs::bfs(&g, s).dist;
                let mut chain = p.interior.clone();
                chain.sort_unstable_by_key(|&v| dist_s[v as usize]);
                let mut prev = s;
                for (i, &v) in chain.iter().enumerate() {
                    assert_eq!(dist_s[v as usize], i as u32 + 1);
                    assert!(g.has_edge(prev, v), "chain break {prev}-{v}");
                    prev = v;
                }
                assert!(g.has_edge(prev, t));
            }
        }
    }

    #[test]
    fn path_sampling_is_uniform_chi_square() {
        // Graph with exactly 6 shortest 0→5 paths of length 3:
        // 0 -> {1,2} -> {3,4} crossing completely -> 5 gives 2*2=4 paths; add
        // a third middle layer vertex to reach 6.
        let g = graph_from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                // extra decoys
                (0, 6),
                (6, 7),
            ],
        );
        let all = enumerate_shortest_paths(&g, 0, 5);
        assert_eq!(all.len(), 4);
        let mut counts = vec![0u64; all.len()];
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 40_000;
        for _ in 0..trials {
            let p = sample_shortest_path(&g, 0, 5, &mut sc, &mut rng).unwrap();
            let mut b = p.interior.clone();
            b.sort_unstable();
            let idx = all
                .iter()
                .position(|cand| {
                    let mut a = cand.clone();
                    a.sort_unstable();
                    a == b
                })
                .expect("sampled path must be a shortest path");
            counts[idx] += 1;
        }
        // χ² with 3 dof; 99.9% critical value ≈ 16.27. Allow generous slack.
        let expected = trials as f64 / all.len() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 25.0, "χ² too large: {chi2}, counts {counts:?}");
    }

    #[test]
    fn uniformity_with_asymmetric_path_counts() {
        // Diamond chain where one branch splits further: paths 0→4 are
        // 0-1-3-4, 0-2-3-4 plus 0-5-6-4 (disjoint route), all length 3.
        let g =
            graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5), (5, 6), (6, 4)]);
        let all = enumerate_shortest_paths(&g, 0, 4);
        assert_eq!(all.len(), 3);
        let mut counts = vec![0u64; 3];
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 30_000;
        for _ in 0..trials {
            let p = sample_shortest_path(&g, 0, 4, &mut sc, &mut rng).unwrap();
            let mut b = p.interior.clone();
            b.sort_unstable();
            let idx = all
                .iter()
                .position(|cand| {
                    let mut a = cand.clone();
                    a.sort_unstable();
                    a == b
                })
                .unwrap();
            counts[idx] += 1;
        }
        let expected = trials as f64 / 3.0;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "non-uniform counts: {counts:?}");
        }
    }

    #[test]
    fn stats_report_work() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(10);
        let (_, st) = sample_shortest_path_with_stats(&g, 0, 4, &mut sc, &mut rng).unwrap();
        assert!(st.edges_scanned > 0);
        assert!(st.vertices_settled >= 2);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn equal_endpoints_panic() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let _ = sample_shortest_path(&g, 1, 1, &mut sc, &mut rng);
    }

    #[test]
    fn enumerate_on_cycle() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let paths = enumerate_shortest_paths(&g, 0, 3);
        assert_eq!(paths.len(), 2);
    }
}
