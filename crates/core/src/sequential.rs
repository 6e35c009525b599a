//! Sequential KADABRA — the original algorithm of Borassi & Natale
//! (Ref. \[7\] of the paper), single-threaded. This is the semantic reference
//! implementation every parallel mode is tested against.

use crate::bounds::stopping_condition;
use crate::config::KadabraConfig;
use crate::phases::{calibration_samples_for_thread, diameter_phase, scores_from_counts};
use crate::result::BetweennessResult;
use crate::sampler::ThreadSampler;
use crate::shared::{phase_timings_from, sampling_stats_from};
use crate::{bounds, calibration::Calibration};
use kadabra_graph::{Graph, KadabraGraph};
use kadabra_telemetry::{CounterId, SpanId, Telemetry};

/// Runs sequential KADABRA on `g`.
///
/// `g` is typically the largest connected component of the network under
/// study (the paper's experimental setup); disconnected inputs are legal —
/// pairs in different components contribute samples with empty interiors.
pub fn kadabra_sequential(g: &Graph, cfg: &KadabraConfig) -> BetweennessResult {
    kadabra_sequential_traced(g, cfg, &Telemetry::stats_only())
}

/// [`kadabra_sequential`] recording into an explicit [`Telemetry`] registry.
pub fn kadabra_sequential_traced(
    g: &Graph,
    cfg: &KadabraConfig,
    tel: &Telemetry,
) -> BetweennessResult {
    // Cache-aware relabeling: the whole run samples on the degree-relabeled
    // CSR (hot vertices packed at the low end of the id space) and the final
    // scores are mapped back to the caller's ids (DESIGN.md §11).
    let (rg, perm) = g.relabel_by_degree();
    let mut result = kadabra_sequential_on(&rg, cfg, tel);
    result.scores = perm.unrelabel(&result.scores);
    result
}

/// Sequential KADABRA on any graph kind, sampling on `g` as given — what
/// [`kadabra_sequential_traced`] runs on the relabeled CSR, and the entry
/// point for directed and weighted graphs (the paper's footnote 1).
pub fn kadabra_sequential_on<G: KadabraGraph>(
    g: &G,
    cfg: &KadabraConfig,
    tel: &Telemetry,
) -> BetweennessResult {
    cfg.validate();
    let n = g.num_nodes();
    assert!(n >= 2, "KADABRA requires at least two vertices");
    let w = tel.writer(0, 0);

    let sp = w.begin(SpanId::Diameter);
    let (vd, _) = diameter_phase(g, cfg);
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let sp = w.begin(SpanId::Calibration);
    let mut sampler = ThreadSampler::new(n, cfg.seed, 0, 0);
    let mut calib_counts = vec![0u64; n];
    let tau0 = calibration_samples_for_thread(g, &mut sampler, &mut calib_counts, cfg, omega, 1);
    let calibration = Calibration::from_counts(&calib_counts, tau0, cfg);
    w.end(sp);

    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let mut sampler = ThreadSampler::new(n, cfg.seed, 0, 1);
    let mut counts = vec![0u64; n];
    let mut tau: u64 = 0;
    let n0 = cfg.n0(1);
    let mut epoch = 0u32;
    loop {
        w.set_epoch(epoch);
        let sp = w.begin(SpanId::SampleBatch);
        sampler.sample_batch(g, n0, |interior| {
            for &v in interior {
                counts[v as usize] += 1;
            }
        });
        w.end(sp);
        tau += n0;
        w.count(CounterId::Samples, n0);
        w.count(CounterId::Epochs, 1);
        let sp = w.begin(SpanId::Check);
        let stop = stopping_condition(
            &counts,
            tau,
            cfg.epsilon,
            omega,
            &calibration.delta_l,
            &calibration.delta_u,
        );
        w.end(sp);
        if stop {
            break;
        }
        epoch += 1;
    }
    w.end(sp_ads);

    let rec = w.recorder();
    let mut stats = sampling_stats_from(rec);
    stats.samples = tau;

    BetweennessResult {
        scores: scores_from_counts(&counts, tau),
        samples: tau,
        omega,
        vertex_diameter: vd,
        timings: phase_timings_from(rec),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::brandes;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::csr::graph_from_edges;
    use kadabra_graph::generators::{gnm, grid, GnmConfig, GridConfig};

    #[test]
    fn terminates_and_respects_omega() {
        let g = gnm(GnmConfig { n: 40, m: 100, seed: 1 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig::new(0.05, 0.1);
        let r = kadabra_sequential(&lcc, &cfg);
        assert!(r.samples > 0);
        // τ may overshoot ω by at most one epoch worth of samples.
        assert!(r.samples <= r.omega + cfg.n0(1));
        assert_eq!(r.scores.len(), lcc.num_nodes());
    }

    #[test]
    fn scores_within_epsilon_of_exact() {
        let g = gnm(GnmConfig { n: 50, m: 140, seed: 2 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.03, delta: 0.1, seed: 77, ..Default::default() };
        let r = kadabra_sequential(&lcc, &cfg);
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} > ε");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig { epsilon: 0.1, delta: 0.1, seed: 3, ..Default::default() };
        let a = kadabra_sequential(&g, &cfg);
        let b = kadabra_sequential(&g, &cfg);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.stats.epochs, b.stats.epochs);
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let g = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.0, seed: 0 });
        let loose = kadabra_sequential(&g, &KadabraConfig::new(0.2, 0.1));
        let tight = kadabra_sequential(&g, &KadabraConfig::new(0.02, 0.1));
        assert!(tight.samples > loose.samples);
        assert!(tight.omega > loose.omega);
    }

    #[test]
    fn path_graph_scores_sensible() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cfg = KadabraConfig::new(0.05, 0.1);
        let r = kadabra_sequential(&g, &cfg);
        // Middle vertex has the highest betweenness on a path.
        let top = r.top_k(1)[0].0;
        assert_eq!(top, 2);
    }

    #[test]
    fn stats_are_populated() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let r = kadabra_sequential(&g, &KadabraConfig::new(0.1, 0.1));
        assert!(r.stats.epochs >= 1);
        assert_eq!(r.stats.samples, r.samples);
        assert!(r.timings.total().as_nanos() > 0);
    }
}
