//! The RK algorithm (Riondato & Kornaropoulos): betweenness approximation
//! with a **fixed** number of sampled shortest paths.
//!
//! Ref. \[18\] of the paper. RK draws `r` vertex pairs and one uniform
//! shortest path per pair; `b̃(v)` is the fraction of paths with `v` as an
//! interior vertex. With
//! `r = (c/ε²)(⌊log₂(VD − 2)⌋ + 1 + ln(1/δ))` (VD = vertex diameter, the
//! VC-dimension bound of the RK paper, universal constant c ≈ 0.5), all
//! scores are within ±ε of the truth with probability ≥ 1 − δ.
//!
//! KADABRA keeps this estimator and sampler but replaces the fixed `r` with
//! adaptive stopping — RK is therefore the natural non-adaptive baseline for
//! the ablation benchmarks.

use kadabra_graph::bibfs::sample_shortest_path;
use kadabra_graph::{Graph, NodeId, TraversalScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RK parameters.
#[derive(Debug, Clone, Copy)]
pub struct RkConfig {
    /// Absolute error bound ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Upper bound on the vertex diameter (e.g. diameter + 1); use
    /// `kadabra_graph::diameter`.
    pub vertex_diameter: u32,
    /// RNG seed.
    pub seed: u64,
}

impl RkConfig {
    /// The fixed sample size `r` mandated by the VC-dimension bound.
    pub fn sample_size(&self) -> u64 {
        assert!(self.epsilon > 0.0 && self.epsilon < 1.0, "epsilon in (0,1)");
        assert!(self.delta > 0.0 && self.delta < 1.0, "delta in (0,1)");
        let vd = self.vertex_diameter.max(2) as f64;
        let log_term = if vd > 2.0 { (vd - 2.0).log2().floor() } else { 0.0 };
        let c = 0.5;
        ((c / (self.epsilon * self.epsilon)) * (log_term + 1.0 + (1.0 / self.delta).ln())).ceil()
            as u64
    }
}

/// Result of an RK run.
pub struct RkResult {
    /// Normalized approximate betweenness per vertex.
    pub scores: Vec<f64>,
    /// Number of samples taken (the fixed `r`).
    pub samples: u64,
}

/// Runs RK on `g` (which should be connected; pairs falling into different
/// components are resampled, matching how the experiments extract the
/// largest connected component first).
pub fn rk_betweenness(g: &Graph, cfg: RkConfig) -> RkResult {
    let n = g.num_nodes();
    assert!(n >= 2, "RK needs at least two vertices");
    let r = cfg.sample_size();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scratch = TraversalScratch::new(n);
    let mut counts = vec![0u64; n];
    let mut taken = 0u64;
    while taken < r {
        let s = rng.gen_range(0..n as NodeId);
        let t = rng.gen_range(0..n as NodeId);
        if s == t {
            continue;
        }
        match sample_shortest_path(g, s, t, &mut scratch, &mut rng) {
            Some(p) => {
                for &v in &p.interior {
                    counts[v as usize] += 1;
                }
                taken += 1;
            }
            None => continue, // different components: resample
        }
    }
    let scores = counts.iter().map(|&c| c as f64 / r as f64).collect();
    RkResult { scores, samples: r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::csr::graph_from_edges;
    use kadabra_graph::generators::{gnm, GnmConfig};

    #[test]
    fn sample_size_formula() {
        let cfg = RkConfig { epsilon: 0.1, delta: 0.1, vertex_diameter: 10, seed: 0 };
        // (0.5/0.01) * (floor(log2 8) + 1 + ln 10) = 50 * (3 + 1 + 2.3026).
        assert_eq!(cfg.sample_size(), (50.0f64 * (4.0 + 10.0f64.ln())).ceil() as u64);
    }

    #[test]
    fn sample_size_small_diameter() {
        let cfg = RkConfig { epsilon: 0.1, delta: 0.1, vertex_diameter: 2, seed: 0 };
        assert!(cfg.sample_size() > 0);
    }

    #[test]
    fn approximates_exact_on_star() {
        let edges: Vec<_> = (1..8).map(|v| (0, v)).collect();
        let g = graph_from_edges(8, &edges);
        let cfg = RkConfig { epsilon: 0.05, delta: 0.1, vertex_diameter: 3, seed: 1 };
        let res = rk_betweenness(&g, cfg);
        let exact = crate::brandes::brandes(&g);
        for (v, (s, e)) in res.scores.iter().zip(&exact).enumerate() {
            assert!((s - e).abs() <= 0.05, "vertex {v}: {s} vs {e}");
        }
    }

    #[test]
    fn approximates_exact_on_random_graph() {
        let g = gnm(GnmConfig { n: 60, m: 150, seed: 7 });
        let (lcc, _) = largest_component(&g);
        let exact = crate::brandes::brandes(&lcc);
        let cfg = RkConfig { epsilon: 0.05, delta: 0.05, vertex_diameter: 12, seed: 2 };
        let res = rk_betweenness(&lcc, cfg);
        let worst =
            res.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} > eps");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnm(GnmConfig { n: 30, m: 60, seed: 3 });
        let (lcc, _) = largest_component(&g);
        let cfg = RkConfig { epsilon: 0.2, delta: 0.2, vertex_diameter: 10, seed: 5 };
        let a = rk_betweenness(&lcc, cfg);
        let b = rk_betweenness(&lcc, cfg);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn scores_are_fractions() {
        let g = gnm(GnmConfig { n: 25, m: 50, seed: 4 });
        let (lcc, _) = largest_component(&g);
        let cfg = RkConfig { epsilon: 0.2, delta: 0.1, vertex_diameter: 10, seed: 6 };
        for s in rk_betweenness(&lcc, cfg).scores {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_trivial_graph() {
        let g = graph_from_edges(1, &[]);
        rk_betweenness(&g, RkConfig { epsilon: 0.1, delta: 0.1, vertex_diameter: 2, seed: 0 });
    }
}
