//! Erdős–Rényi G(n, m) generator: `m` distinct undirected edges drawn
//! uniformly among all vertex pairs. Used as an unstructured control model
//! and heavily in randomized tests.

use crate::csr::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// G(n, m) parameters.
#[derive(Debug, Clone, Copy)]
pub struct GnmConfig {
    /// Number of vertices.
    pub n: usize,
    /// Number of distinct undirected edges; capped at `n*(n-1)/2`.
    pub m: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a uniform G(n, m) graph by rejection sampling (fine for the
/// sparse regime every experiment here uses; for dense graphs it degrades
/// gracefully because `m` is capped at the maximum possible).
pub fn gnm(cfg: GnmConfig) -> Graph {
    let max_m = cfg.n.saturating_mul(cfg.n.saturating_sub(1)) / 2;
    let m = cfg.m.min(max_m);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut chosen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut builder = GraphBuilder::with_capacity(cfg.n, m);
    if cfg.n >= 2 {
        // Dense fallback: if m is more than half of all pairs, enumerate and
        // shuffle instead of rejection sampling.
        if m * 2 > max_m {
            let mut all: Vec<(NodeId, NodeId)> = Vec::with_capacity(max_m);
            for u in 0..cfg.n as NodeId {
                for v in (u + 1)..cfg.n as NodeId {
                    all.push((u, v));
                }
            }
            // Partial Fisher-Yates for the first m elements.
            for i in 0..m {
                let j = rng.gen_range(i..all.len());
                all.swap(i, j);
                let (u, v) = all[i];
                #[expect(clippy::unwrap_used, reason = "pairs enumerated from 0..n")]
                builder.add_edge(u, v).unwrap();
            }
        } else {
            while chosen.len() < m {
                let u = rng.gen_range(0..cfg.n as NodeId);
                let v = rng.gen_range(0..cfg.n as NodeId);
                if u == v {
                    continue;
                }
                let (lo, hi) = if u < v { (u, v) } else { (v, u) };
                let key = (lo as u64) << 32 | hi as u64;
                if chosen.insert(key) {
                    #[expect(clippy::unwrap_used, reason = "endpoints sampled from 0..n")]
                    builder.add_edge(lo, hi).unwrap();
                }
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = gnm(GnmConfig { n: 100, m: 250, seed: 1 });
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 250);
    }

    #[test]
    fn dense_request_is_capped() {
        let g = gnm(GnmConfig { n: 5, m: 1000, seed: 2 });
        assert_eq!(g.num_edges(), 10); // C(5,2)
    }

    #[test]
    fn deterministic() {
        let a = gnm(GnmConfig { n: 50, m: 80, seed: 3 });
        let b = gnm(GnmConfig { n: 50, m: 80, seed: 3 });
        assert_eq!(a, b);
    }

    #[test]
    fn zero_edges() {
        let g = gnm(GnmConfig { n: 10, m: 0, seed: 4 });
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(gnm(GnmConfig { n: 0, m: 5, seed: 5 }).num_nodes(), 0);
        assert_eq!(gnm(GnmConfig { n: 1, m: 5, seed: 5 }).num_edges(), 0);
        assert_eq!(gnm(GnmConfig { n: 2, m: 5, seed: 5 }).num_edges(), 1);
    }

    #[test]
    fn dense_path_produces_distinct_edges() {
        // Exercise the shuffle path: m > max/2.
        let g = gnm(GnmConfig { n: 10, m: 30, seed: 6 });
        assert_eq!(g.num_edges(), 30);
        assert!(g.check_canonical().is_ok());
    }

    #[test]
    fn canonical_output() {
        let g = gnm(GnmConfig { n: 64, m: 200, seed: 7 });
        assert!(g.check_canonical().is_ok());
    }
}
