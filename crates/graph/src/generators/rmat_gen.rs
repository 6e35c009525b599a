//! Recursive-MATrix (R-MAT) generator.
//!
//! Section V-C of the paper: "we consider R-MAT graphs with (a, b, c, d)
//! chosen as (0.57, 0.19, 0.19, 0.05) (i.e., matching the Graph500
//! benchmarks)" with density `|E| = 30 |V|`. Each edge is placed by
//! recursively descending into one of the four quadrants of the adjacency
//! matrix with probabilities `(a, b, c, d)`, with the customary ±10% noise
//! per level to avoid degenerate self-similarity.

use crate::csr::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT parameters.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Undirected edges to draw per vertex (`|E| = edge_factor * |V|` before
    /// dedup/self-loop removal).
    pub edge_factor: u32,
    /// Top-left quadrant probability; `a + b + c + d` must be 1, all positive.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
    /// Whether to jitter the quadrant probabilities per recursion level
    /// (Graph500-style noise). Disable for exactly reproducible degree
    /// structure in tests.
    pub noise: bool,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500 parameters at the given scale and edge factor.
    pub fn graph500(scale: u32, edge_factor: u32, seed: u64) -> Self {
        RmatConfig { scale, edge_factor, a: 0.57, b: 0.19, c: 0.19, d: 0.05, noise: true, seed }
    }

    /// The paper's Fig. 4a setting: Graph500 quadrants, `|E| = 30 |V|`.
    pub fn paper(scale: u32, seed: u64) -> Self {
        Self::graph500(scale, 30, seed)
    }
}

/// Generates an undirected R-MAT graph (self-loops dropped, duplicate edges
/// merged, so the final edge count is slightly below `edge_factor << scale`).
pub fn rmat(cfg: RmatConfig) -> Graph {
    assert!(cfg.scale <= 31, "scale {} exceeds u32 vertex ids", cfg.scale);
    let total = cfg.a + cfg.b + cfg.c + cfg.d;
    assert!(
        (total - 1.0).abs() < 1e-9 && cfg.a > 0.0 && cfg.b > 0.0 && cfg.c > 0.0 && cfg.d > 0.0,
        "quadrant probabilities must be positive and sum to 1"
    );
    let n = 1usize << cfg.scale;
    let m = n * cfg.edge_factor as usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let (u, v) = rmat_edge(&mut rng, &cfg);
        #[expect(clippy::expect_used, reason = "rmat_edge yields ids < 2^scale = n")]
        builder.add_edge(u, v).expect("generated ids are in range");
    }
    builder.build()
}

/// Draws one directed cell of the adjacency matrix.
fn rmat_edge(rng: &mut StdRng, cfg: &RmatConfig) -> (NodeId, NodeId) {
    let mut u: u64 = 0;
    let mut v: u64 = 0;
    for _ in 0..cfg.scale {
        // Optional multiplicative noise, renormalized (Graph500 reference).
        let (mut a, mut b, mut c, mut d) = (cfg.a, cfg.b, cfg.c, cfg.d);
        if cfg.noise {
            let jitter = |rng: &mut StdRng, p: f64| p * (0.9 + 0.2 * rng.gen::<f64>());
            a = jitter(rng, a);
            b = jitter(rng, b);
            c = jitter(rng, c);
            d = jitter(rng, d);
            let s = a + b + c + d;
            a /= s;
            b /= s;
            c /= s;
            // d is the remaining probability mass; only a, b, c gate branches.
        }
        let x = rng.gen::<f64>();
        u <<= 1;
        v <<= 1;
        if x < a {
            // top-left
        } else if x < a + b {
            v |= 1;
        } else if x < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as NodeId, v as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_is_power_of_two() {
        let g = rmat(RmatConfig::graph500(6, 8, 1));
        assert_eq!(g.num_nodes(), 64);
    }

    #[test]
    fn edge_count_close_to_requested() {
        let g = rmat(RmatConfig::graph500(10, 8, 2));
        let requested = 1024 * 8;
        // Dedup and self-loop removal lose some edges, but most survive.
        assert!(g.num_edges() > requested / 2, "too few edges: {}", g.num_edges());
        assert!(g.num_edges() <= requested);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat(RmatConfig::graph500(8, 4, 7));
        let b = rmat(RmatConfig::graph500(8, 4, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat(RmatConfig::graph500(8, 4, 7));
        let b = rmat(RmatConfig::graph500(8, 4, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn skewed_degree_distribution() {
        // With Graph500 quadrants, the max degree dwarfs the average — the
        // signature of the power-law-like degree skew the paper relies on.
        let g = rmat(RmatConfig::graph500(11, 8, 3));
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * avg,
            "max degree {} not skewed vs avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn canonical_output() {
        let g = rmat(RmatConfig::graph500(7, 6, 9));
        assert!(g.check_canonical().is_ok());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_probabilities_rejected() {
        rmat(RmatConfig { a: 0.5, b: 0.5, c: 0.5, d: 0.5, ..RmatConfig::graph500(4, 2, 0) });
    }

    #[test]
    fn noise_free_mode_is_supported() {
        let mut cfg = RmatConfig::graph500(8, 4, 11);
        cfg.noise = false;
        let g = rmat(cfg);
        assert!(g.num_edges() > 0);
        assert!(g.check_canonical().is_ok());
    }
}
