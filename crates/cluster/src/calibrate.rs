//! Cost-model calibration: measures real per-operation costs on this
//! machine so the DES's virtual clock is grounded in reality.

#![expect(
    clippy::disallowed_methods,
    reason = "calibration exists to measure real time; the DES only reads what it measured"
)]

use kadabra_core::{Calibration, KadabraConfig, ThreadSampler};
use kadabra_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Measured costs for one input graph.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Empirical distribution of per-sample durations (ns). The DES draws
    /// from it with replacement, preserving the heavy tail that road
    /// networks exhibit (long BFS for distant pairs).
    pub sample_ns: Vec<u64>,
    /// Stopping-condition evaluation cost per vertex (ns).
    pub check_ns_per_vertex: f64,
    /// Fixed part of a stopping-condition evaluation (ns).
    pub check_ns_fixed: u64,
    /// Measured wall time of the sequential diameter phase (ns).
    pub diameter_ns: u64,
    /// Measured wall time of the sequential δ-fit of the calibration phase (ns).
    pub delta_fit_ns: u64,
}

impl CostModel {
    /// Measures all costs on the real machine. `probes` controls how many
    /// real samples populate the duration distribution (300 is plenty; the
    /// distribution is resampled, not averaged).
    pub fn measure(g: &Graph, cfg: &KadabraConfig, probes: usize) -> CostModel {
        assert!(probes >= 10, "need a minimal probe count");
        let n = g.num_nodes();

        // Diameter phase (also warms the graph into such cache as we have).
        let t0 = Instant::now();
        let (vd, _) = kadabra_core::phases::diameter_phase(g, cfg);
        let diameter_ns = t0.elapsed().as_nanos() as u64;
        let omega = kadabra_core::bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

        // Per-sample durations.
        let mut sampler = ThreadSampler::new(n, cfg.seed ^ 0xC057, 0, 0);
        let mut sample_ns = Vec::with_capacity(probes);
        let mut counts = vec![0u64; n];
        for _ in 0..probes {
            let t = Instant::now();
            let interior = sampler.sample(g);
            let d = t.elapsed().as_nanos() as u64;
            for &v in interior {
                counts[v as usize] += 1;
            }
            sample_ns.push(d.max(1));
        }

        // Stopping-condition check cost: evaluate the real check on the real
        // counts a few times and fit cost = fixed + per_vertex * n.
        let calibration = Calibration::from_counts(&counts, probes as u64, omega, cfg);
        let reps = 5;
        let t1 = Instant::now();
        for i in 0..reps {
            let stop = kadabra_core::bounds::stopping_condition(
                &counts,
                probes as u64 + i, // vary τ to defeat value caching
                cfg.epsilon,
                u64::MAX / 2,
                &calibration.delta_l,
                &calibration.delta_u,
            );
            std::hint::black_box(stop);
        }
        let check_total = t1.elapsed().as_nanos() as u64 / reps;
        let check_ns_fixed = 200;
        let check_ns_per_vertex =
            ((check_total.saturating_sub(check_ns_fixed)) as f64 / n as f64).max(0.1);

        // δ-fit cost (bisection over the count histogram, at the instance's ω).
        let t2 = Instant::now();
        let _ = Calibration::from_counts(&counts, probes as u64, omega, cfg);
        let delta_fit_ns = t2.elapsed().as_nanos() as u64;

        CostModel { sample_ns, check_ns_per_vertex, check_ns_fixed, diameter_ns, delta_fit_ns }
    }

    /// A synthetic model for unit tests: constant sample duration.
    pub fn synthetic(sample_ns: u64) -> CostModel {
        CostModel {
            sample_ns: vec![sample_ns],
            check_ns_per_vertex: 1.0,
            check_ns_fixed: 100,
            diameter_ns: 1_000_000,
            delta_fit_ns: 100_000,
        }
    }

    /// Draws one sample duration (with replacement).
    pub fn draw_sample_ns(&self, rng: &mut StdRng) -> u64 {
        self.sample_ns[rng.gen_range(0..self.sample_ns.len())]
    }

    /// Mean sample duration, for closed-form phase estimates.
    pub fn mean_sample_ns(&self) -> f64 {
        self.sample_ns.iter().sum::<u64>() as f64 / self.sample_ns.len() as f64
    }

    /// Cost of one stopping-condition evaluation over `n` vertices.
    pub fn check_ns(&self, n: usize) -> u64 {
        self.check_ns_fixed + (self.check_ns_per_vertex * n as f64) as u64
    }

    /// Deterministic RNG for duration draws.
    pub fn duration_rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed ^ 0xD15C_0DE5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};

    #[test]
    fn measure_produces_sane_costs() {
        let g = grid(GridConfig { rows: 20, cols: 20, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.1, 0.1);
        let m = CostModel::measure(&g, &cfg, 50);
        assert_eq!(m.sample_ns.len(), 50);
        assert!(m.mean_sample_ns() > 0.0);
        assert!(m.check_ns(400) > m.check_ns_fixed);
        assert!(m.diameter_ns > 0);
    }

    #[test]
    fn synthetic_draws_are_constant() {
        let m = CostModel::synthetic(123);
        let mut rng = CostModel::duration_rng(1);
        for _ in 0..10 {
            assert_eq!(m.draw_sample_ns(&mut rng), 123);
        }
    }

    #[test]
    fn draw_respects_distribution_support() {
        let m = CostModel {
            sample_ns: vec![10, 20, 30],
            check_ns_per_vertex: 1.0,
            check_ns_fixed: 0,
            diameter_ns: 0,
            delta_fit_ns: 0,
        };
        let mut rng = CostModel::duration_rng(2);
        for _ in 0..100 {
            let d = m.draw_sample_ns(&mut rng);
            assert!(d == 10 || d == 20 || d == 30);
        }
    }
}
