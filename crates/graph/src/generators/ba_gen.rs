//! Barabási–Albert preferential-attachment generator.
//!
//! A third power-law model besides R-MAT and the hyperbolic graphs: each new
//! vertex attaches `m` edges to existing vertices with probability
//! proportional to their current degree (implemented with the standard
//! repeated-endpoint trick: sampling a uniform position in the running edge
//! list *is* degree-proportional sampling). Degree exponent γ ≈ 3, matching
//! the paper's synthetic setting; unlike R-MAT the graph is connected by
//! construction, which makes it convenient for tests that need a connected
//! power-law instance without an LCC pass.

use crate::csr::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Barabási–Albert parameters.
#[derive(Debug, Clone, Copy)]
pub struct BaConfig {
    /// Total number of vertices (must exceed `m`).
    pub n: usize,
    /// Edges attached per arriving vertex.
    pub m: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a Barabási–Albert graph. The first `m + 1` vertices form a
/// clique seed; every later vertex attaches `m` degree-proportional edges
/// (duplicate targets are resampled, so each arrival contributes exactly
/// `m` distinct edges).
pub fn barabasi_albert(cfg: BaConfig) -> Graph {
    assert!(cfg.m >= 1, "m must be at least 1");
    assert!(cfg.n > cfg.m, "n must exceed m");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::with_capacity(cfg.n, cfg.n * cfg.m);
    // Flattened endpoint list: picking a uniform element samples a vertex
    // with probability proportional to its degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * cfg.n * cfg.m);

    // Clique seed over m + 1 vertices.
    let seed_n = cfg.m + 1;
    for u in 0..seed_n as NodeId {
        for v in (u + 1)..seed_n as NodeId {
            #[expect(clippy::expect_used, reason = "seed ids < seed_n <= n by construction")]
            builder.add_edge(u, v).expect("seed ids in range");
            endpoints.push(u);
            endpoints.push(v);
        }
    }

    let mut targets: Vec<NodeId> = Vec::with_capacity(cfg.m);
    for v in seed_n..cfg.n {
        targets.clear();
        while targets.len() < cfg.m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            #[expect(clippy::expect_used, reason = "targets drawn from prior endpoints < v")]
            builder.add_edge(v as NodeId, t).expect("ids in range");
            endpoints.push(v as NodeId);
            endpoints.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use crate::stats::degree_stats;

    #[test]
    fn edge_count_is_exact() {
        let cfg = BaConfig { n: 500, m: 3, seed: 1 };
        let g = barabasi_albert(cfg);
        let seed_edges = 4 * 3 / 2;
        assert_eq!(g.num_edges(), seed_edges + (500 - 4) * 3);
    }

    #[test]
    fn connected_by_construction() {
        let g = barabasi_albert(BaConfig { n: 300, m: 2, seed: 2 });
        assert_eq!(connected_components(&g).count(), 1);
    }

    #[test]
    fn minimum_degree_is_m() {
        let g = barabasi_albert(BaConfig { n: 400, m: 4, seed: 3 });
        let s = degree_stats(&g).unwrap();
        assert!(s.min >= 4);
    }

    #[test]
    fn hubs_emerge() {
        let g = barabasi_albert(BaConfig { n: 2000, m: 3, seed: 4 });
        let s = degree_stats(&g).unwrap();
        assert!(
            s.max as f64 > 6.0 * s.mean,
            "no preferential-attachment hubs: max {} mean {}",
            s.max,
            s.mean
        );
        assert!(s.gini > 0.2, "degree Gini {} too regular", s.gini);
    }

    #[test]
    fn deterministic() {
        let cfg = BaConfig { n: 200, m: 2, seed: 5 };
        assert_eq!(barabasi_albert(cfg), barabasi_albert(cfg));
    }

    #[test]
    fn canonical_output() {
        let g = barabasi_albert(BaConfig { n: 150, m: 3, seed: 6 });
        assert!(g.check_canonical().is_ok());
    }

    #[test]
    #[should_panic(expected = "n must exceed m")]
    fn rejects_tiny_n() {
        barabasi_albert(BaConfig { n: 3, m: 3, seed: 0 });
    }
}
