//! Directed graphs.
//!
//! Footnote 1 of the paper: "The parallelization techniques considered in
//! this paper also apply to directed and/or weighted graphs if the required
//! modifications to the underlying sampling algorithm are done." This module
//! provides those modifications' substrate for the *directed* case: a CSR
//! digraph storing both the out-adjacency and the in-adjacency ("NetworKit
//! stores both the graph and its reverse/transpose to be able to efficiently
//! compute a bidirectional BFS", Section IV-F), directed BFS, and the
//! directed bidirectional uniform shortest-path sampler.

use crate::bibfs::{SampleInfo, SearchStats};
use crate::csr::NodeId;
use crate::scratch::{Relax, StampedBfsState, TraversalScratch, UNREACHED};
use crate::source::{KadabraGraph, PathSource};
use rand::Rng;

/// A static directed graph: out-edges in CSR form plus the transpose.
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    out_offsets: Vec<u64>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u64>,
    in_targets: Vec<NodeId>,
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
        let build = |n: usize, pairs: &[(NodeId, NodeId)]| -> (Vec<u64>, Vec<NodeId>) {
            let mut offsets = vec![0u64; n + 1];
            for &(u, _) in pairs {
                offsets[u as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets[..n].to_vec();
            let mut targets = vec![0 as NodeId; pairs.len()];
            for &(u, v) in pairs {
                targets[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
            }
            (offsets, targets)
        };
        let (out_offsets, out_targets) = build(n, &cleaned);
        let mut reversed: Vec<(NodeId, NodeId)> = cleaned.iter().map(|&(u, v)| (v, u)).collect();
        reversed.sort_unstable();
        let (in_offsets, in_targets) = build(n, &reversed);
        DiGraph { out_offsets, out_targets, in_offsets, in_targets }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbours of `v` (sorted).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `v` (sorted) — the transpose adjacency.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_targets[lo..hi]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the arc `u -> v` exists.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
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
        _stats: &mut SearchStats,
    ) -> Option<u32> {
        sample_directed_shortest_path(self, s, t, scratch, rng).map(|info| info.distance)
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

/// Samples a uniformly random shortest directed `s -> t` path with a
/// balanced bidirectional BFS: the forward search follows out-edges, the
/// backward search follows in-edges (this is where the stored transpose
/// pays off). Correctness argument identical to the undirected sampler
/// (see [`crate::bibfs`]); the cut/σ algebra is direction-agnostic. The
/// interior is left in `scratch.path` (empty on `None`).
pub fn sample_directed_shortest_path<R: Rng + ?Sized>(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
) -> Option<SampleInfo> {
    assert!(s != t, "sampling requires distinct endpoints");
    assert!((s as usize) < g.num_nodes() && (t as usize) < g.num_nodes());
    let (s_tag, t_tag) = scratch.reset();
    let TraversalScratch { state, path, cut, .. } = scratch;

    let mut frontier_s = vec![s];
    let mut frontier_t = vec![t];
    state.visit(s, s_tag, 0, 1);
    state.visit(t, t_tag, 0, 1);
    let mut ds = 0u32;
    let mut dt = 0u32;
    let mut deg_s = g.out_degree(s) as u64;
    let mut deg_t = g.in_degree(t) as u64;

    loop {
        if frontier_s.is_empty() || frontier_t.is_empty() {
            return None;
        }
        let expand_fwd = deg_s <= deg_t;
        let (frontier, depth, tag, far_tag, far_depth) = if expand_fwd {
            (&mut frontier_s, &mut ds, s_tag, t_tag, dt)
        } else {
            (&mut frontier_t, &mut dt, t_tag, s_tag, ds)
        };
        let new_depth = *depth + 1;
        let mut next = Vec::new();
        let mut next_deg = 0u64;
        for &u in frontier.iter() {
            let su = state.sigma(u, tag);
            let neigh = if expand_fwd { g.out_neighbors(u) } else { g.in_neighbors(u) };
            for &v in neigh {
                // As in the undirected kernel: a meet takes the far slot
                // over, keeping σ_far in `cut` until the level is complete.
                match state.settle_or_merge(v, tag, far_tag, new_depth, su) {
                    Relax::Known => continue,
                    Relax::Settled => {}
                    Relax::Met(k, far_sigma) => {
                        debug_assert_eq!(k, far_depth, "every meet is at the far radius");
                        cut.push((v, far_sigma));
                    }
                }
                next.push(v);
                next_deg += if expand_fwd { g.out_degree(v) as u64 } else { g.in_degree(v) as u64 };
            }
        }
        *depth = new_depth;
        *frontier = next;
        if expand_fwd {
            deg_s = next_deg;
        } else {
            deg_t = next_deg;
        }
        if cut.is_empty() {
            continue;
        }
        // Hand each cut vertex back to the far side; its entry takes σ_near.
        state.hand_back(cut, tag, far_tag, far_depth);
        let distance = new_depth + far_depth;
        let weight =
            |v: NodeId, sn: u64| (sn as u128).saturating_mul(state.sigma(v, far_tag) as u128);
        let num_paths = cut.iter().fold(0u128, |sum, &(v, sn)| sum.saturating_add(weight(v, sn)));
        let mut pick = rng.gen_range(0..num_paths);
        let mut chosen = cut[0].0;
        for &(v, sn) in cut.iter() {
            let w = weight(v, sn);
            if pick < w {
                chosen = v;
                break;
            }
            pick -= w;
        }
        path.clear();
        // Walk towards s along in-edges of the forward tree, towards t along
        // out-edges of the backward tree.
        backtrack_directed(state, s_tag, chosen, ds, |v| g.in_neighbors(v), path, rng);
        if chosen != s && chosen != t {
            path.push(chosen);
        }
        backtrack_directed(state, t_tag, chosen, dt, |v| g.out_neighbors(v), path, rng);
        // xtask: allow(determinism) — a shortest path visits each vertex at
        // most once, so its length fits the CSR-guaranteed u32.
        debug_assert_eq!(path.len() as u32 + 1, distance);
        return Some(SampleInfo { distance, num_paths });
    }
}

/// σ-proportional backtracking from `from`, at distance `d` from the root of
/// direction `tag`: the predecessors of `v` are the vertices of
/// `preds_of(v)` — in-neighbours in the forward tree, out-neighbours in the
/// backward one — at distance `d(v) − 1`. The distance is passed in because
/// the near side handed the chosen vertex back to the far side.
fn backtrack_directed<'g, R: Rng + ?Sized>(
    state: &StampedBfsState,
    tag: u32,
    from: NodeId,
    mut d: u32,
    preds_of: impl Fn(NodeId) -> &'g [NodeId],
    out: &mut Vec<NodeId>,
    rng: &mut R,
) {
    let mut cur = from;
    while d > 1 {
        let preds = preds_of(cur);
        // σ of `u` if it sits one level below `cur`, else 0.
        let below =
            |u: NodeId| state.record(u, tag).filter(|&(du, _)| du == d - 1).map_or(0, |r| r.1);
        let total: u64 = preds.iter().map(|&u| below(u)).sum();
        debug_assert!(total > 0);
        let mut pick = rng.gen_range(0..total);
        let mut nxt = cur;
        for &u in preds {
            let su = below(u);
            if pick < su {
                nxt = u;
                break;
            }
            pick -= su;
        }
        debug_assert_ne!(nxt, cur);
        out.push(nxt);
        cur = nxt;
        d -= 1;
    }
}

/// Exhaustive enumeration of all shortest directed `s -> t` paths (test
/// oracle; exponential). Returns interior vertex lists.
pub fn enumerate_directed_shortest_paths(g: &DiGraph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    assert!(s != t);
    let dist = directed_bfs(g, s);
    if dist[t as usize] == UNREACHED {
        return Vec::new();
    }
    let mut paths = Vec::new();
    let mut stack = vec![t];
    fn rec(
        g: &DiGraph,
        dist: &[u32],
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
        let d = dist[cur as usize];
        for &u in g.in_neighbors(cur) {
            if dist[u as usize] != UNREACHED && dist[u as usize] + 1 == d {
                stack.push(u);
                rec(g, dist, s, u, stack, paths);
                stack.pop();
            }
        }
    }
    rec(g, &dist, s, t, &mut stack, &mut paths);
    paths
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
