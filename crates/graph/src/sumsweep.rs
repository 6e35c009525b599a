//! SumSweep diameter bounds.
//!
//! Ref. \[6\] of the paper (Borassi et al., TCS 2015) computes diameters of
//! real-world graphs in a handful of BFS runs by *sweeping*: repeatedly
//! running BFS from carefully chosen roots and maintaining lower/upper
//! eccentricity bounds. This module implements the undirected SumSweep
//! heuristic: roots alternate between (a) the vertex with the largest
//! distance-sum (a good "peripheral" candidate) and (b) the vertex with the
//! largest eccentricity lower bound not yet confirmed.
//!
//! It complements [`crate::diameter`] (two-sweep + iFUB): SumSweep gives
//! tight bounds in strictly `k` BFS runs, making it the better choice for
//! the diameter *phase* of KADABRA on low-diameter complex networks where
//! iFUB's certification can degenerate; the iFUB module remains the
//! certified-exact option.

use crate::bfs::bfs;
use crate::csr::{Graph, NodeId};
use crate::scratch::UNREACHED;

/// Lower/upper diameter bounds plus per-sweep history.
#[derive(Debug, Clone)]
pub struct SumSweepResult {
    /// Best lower bound (eccentricity actually observed).
    pub lower: u32,
    /// Matching upper bound (`2·min ecc(root)` over the sweeps).
    pub upper: u32,
    /// Roots used, in order.
    pub roots: Vec<NodeId>,
    /// Eccentricity of each root.
    pub eccentricities: Vec<u32>,
}

impl SumSweepResult {
    /// Whether the bounds meet (the diameter is certified).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// Vertex-diameter upper bound for KADABRA's ω.
    pub fn vertex_diameter_upper(&self) -> u32 {
        self.upper.saturating_add(1)
    }
}

/// Runs `sweeps` BFS sweeps (≥ 1) starting from `start`, over the connected
/// component of `start`.
pub fn sum_sweep(g: &Graph, start: NodeId, sweeps: usize) -> SumSweepResult {
    let n = g.num_nodes();
    assert!((start as usize) < n, "start out of range");
    let sweeps = sweeps.max(1);
    let mut lower = 0u32;
    let mut upper = u32::MAX;
    let mut roots = Vec::with_capacity(sweeps);
    let mut eccs = Vec::with_capacity(sweeps);
    // Sum of observed distances per vertex; the next "peripheral" root is
    // the unused vertex maximizing this sum.
    let mut dist_sum = vec![0u64; n];
    // Max observed distance per vertex; its minimizer is the center guess.
    let mut dist_max = vec![0u32; n];
    // Per-vertex eccentricity upper bound via the triangle inequality
    // ecc(v) <= d(v, r) + ecc(r); the diameter is at most its maximum.
    let mut ecc_ub = vec![u32::MAX; n];
    let mut used = vec![false; n];
    let mut reachable: Option<Vec<NodeId>> = None;

    let mut root = start;
    for sweep in 0..sweeps {
        roots.push(root);
        used[root as usize] = true;
        let res = bfs(g, root);
        eccs.push(res.ecc);
        lower = lower.max(res.ecc);
        upper = upper.min(2 * res.ecc);
        if reachable.is_none() {
            // In id order, so that every tie below breaks by id rather than
            // by the order a BFS visits one level in.
            let mut ids = res.order.clone();
            ids.sort_unstable();
            reachable = Some(ids);
        }
        for &v in res.order.iter() {
            let d = res.dist[v as usize];
            dist_sum[v as usize] += d as u64;
            dist_max[v as usize] = dist_max[v as usize].max(d);
            ecc_ub[v as usize] = ecc_ub[v as usize].min(d + res.ecc);
        }
        let triangle_ub = reachable
            .as_ref()
            // xtask: allow(unwrap) — populated on the first sweep above.
            .unwrap()
            .iter()
            .map(|&v| ecc_ub[v as usize])
            .max()
            .unwrap_or(0);
        upper = upper.min(triangle_ub);
        if lower >= upper {
            upper = lower;
            break;
        }
        // Next root: alternate between the farthest vertex of this sweep
        // (classic double-sweep) and the max distance-sum vertex (SumSweep) —
        // both peripheral candidates that push the *lower* bound. The final
        // sweep instead targets a *central* vertex (minimum distance sum),
        // whose eccentricity powers the `2·ecc` upper bound (a 4-sweep-style
        // refinement of Ref. [6]).
        // xtask: allow(unwrap) — populated on the first sweep above.
        let candidates = reachable.as_ref().unwrap();
        let next = if sweep + 2 == sweeps {
            candidates
                .iter()
                .copied()
                .filter(|&v| !used[v as usize])
                .min_by_key(|&v| dist_max[v as usize])
        } else if sweep % 2 == 0 {
            // Among the farthest, the larger distance sum: the more
            // peripheral of them.
            candidates
                .iter()
                .copied()
                .filter(|&v| !used[v as usize] && res.dist[v as usize] != UNREACHED)
                .max_by_key(|&v| (res.dist[v as usize], dist_sum[v as usize]))
        } else {
            candidates
                .iter()
                .copied()
                .filter(|&v| !used[v as usize])
                .max_by_key(|&v| dist_sum[v as usize])
        };
        match next {
            Some(v) => root = v,
            None => break, // component exhausted
        }
    }
    SumSweepResult { lower, upper: upper.max(lower), roots, eccentricities: eccs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component;
    use crate::csr::graph_from_edges;
    use crate::diameter::diameter_brute_force;
    use crate::generators::{gnm, grid, rmat, GnmConfig, GridConfig, RmatConfig};

    #[test]
    fn path_graph_exact_in_two_sweeps() {
        let edges: Vec<_> = (0..19).map(|v| (v, v + 1)).collect();
        let g = graph_from_edges(20, &edges);
        let r = sum_sweep(&g, 7, 4);
        assert_eq!(r.lower, 19);
        assert!(r.roots.len() <= 4);
    }

    #[test]
    fn bounds_bracket_the_truth_on_random_graphs() {
        for seed in 0..10 {
            let g = gnm(GnmConfig { n: 80, m: 160, seed });
            let (lcc, _) = largest_component(&g);
            if lcc.num_nodes() < 2 {
                continue;
            }
            let exact = diameter_brute_force(&lcc);
            let r = sum_sweep(&lcc, 0, 6);
            assert!(r.lower <= exact, "seed {seed}: lower {} > exact {exact}", r.lower);
            assert!(r.upper >= exact, "seed {seed}: upper {} < exact {exact}", r.upper);
        }
    }

    #[test]
    fn lower_bound_is_often_exact_on_complex_networks() {
        let g = rmat(RmatConfig::graph500(9, 6, 3));
        let (lcc, _) = largest_component(&g);
        let exact = diameter_brute_force(&lcc);
        let r = sum_sweep(&lcc, 0, 8);
        // SumSweep's selling point: the lower bound hits the diameter.
        assert_eq!(r.lower, exact);
    }

    #[test]
    fn grid_bounds_tighten_well() {
        let g = grid(GridConfig { rows: 15, cols: 15, diagonal_prob: 0.0, seed: 0 });
        let r = sum_sweep(&g, 0, 6);
        assert_eq!(r.lower, 28, "corner sweeps find the true diameter");
        // The triangle bound beats the naive 2*ecc = 56 substantially even
        // though peripheral roots cannot certify a grid (iFUB can).
        assert!(r.upper <= 44, "upper {} too loose", r.upper);
    }

    #[test]
    fn path_graph_certifies() {
        let edges: Vec<_> = (0..19).map(|v| (v, v + 1)).collect();
        let g = graph_from_edges(20, &edges);
        let r = sum_sweep(&g, 3, 4);
        assert_eq!(r.lower, 19);
        assert!(r.is_exact(), "triangle bound certifies a path: {r:?}");
    }

    #[test]
    fn more_sweeps_never_loosen_bounds() {
        let g = gnm(GnmConfig { n: 60, m: 140, seed: 4 });
        let (lcc, _) = largest_component(&g);
        let mut prev_gap = u32::MAX;
        for sweeps in [1, 2, 4, 8] {
            let r = sum_sweep(&lcc, 0, sweeps);
            let gap = r.upper - r.lower;
            assert!(gap <= prev_gap, "gap widened at {sweeps} sweeps");
            prev_gap = gap;
        }
    }

    #[test]
    fn isolated_start() {
        let g = graph_from_edges(3, &[(1, 2)]);
        let r = sum_sweep(&g, 0, 3);
        assert_eq!(r.lower, 0);
        assert_eq!(r.upper, 0);
        assert!(r.is_exact());
    }

    #[test]
    fn vertex_diameter_upper_off_by_one() {
        let edges: Vec<_> = (0..9).map(|v| (v, v + 1)).collect();
        let g = graph_from_edges(10, &edges);
        let r = sum_sweep(&g, 0, 4);
        assert_eq!(r.vertex_diameter_upper(), r.upper + 1);
    }
}
