//! Sequential KADABRA — the original algorithm of Borassi & Natale
//! (Ref. \[7\] of the paper), single-threaded. This is the semantic reference
//! implementation every parallel mode is tested against.

use crate::bounds::StopRule;
use crate::config::KadabraConfig;
use crate::frame::count;
use crate::phases::{calibration_samples_for_thread, diameter_phase};
use crate::result::BetweennessResult;
use crate::sampler::ThreadSampler;
use crate::shared::{phase_timings_from, sampling_stats_from};
use crate::{bounds, calibration::Calibration};
use kadabra_graph::KadabraGraph;
use kadabra_telemetry::{CounterId, SpanId, Telemetry};

/// Runs sequential KADABRA on `g`, sampling on it as given: an undirected
/// CSR, a `DiGraph` or a `WeightedGraph` (the paper's footnote 1).
///
/// `g` is typically the largest connected component of the network under
/// study (the paper's experimental setup); disconnected inputs are legal —
/// pairs in different components contribute samples with empty interiors.
/// `g` is not relabeled: within one solve a degree-sorted copy costs more
/// than it saves (DESIGN.md §11.1).
pub fn kadabra_sequential<G: KadabraGraph>(g: &G, cfg: &KadabraConfig) -> BetweennessResult {
    kadabra_sequential_traced(g, cfg, &Telemetry::stats_only())
}

/// [`kadabra_sequential`] recording into an explicit [`Telemetry`] registry.
pub fn kadabra_sequential_traced<G: KadabraGraph>(
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

    // One scratch samples both phases; the calibration counts are freed
    // before the adaptive phase allocates its own.
    let sp = w.begin(SpanId::Calibration);
    let mut sampler = ThreadSampler::new(n, cfg.seed, 0, 0);
    let calibration = {
        let mut counts = vec![0u64; n];
        let tau0 = calibration_samples_for_thread(g, &mut sampler, &mut counts, cfg, omega, 1);
        Calibration::from_counts(&counts, tau0, omega, cfg)
    };
    w.end(sp);

    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    sampler.reseed(cfg.seed, 0, 1);
    let rule = StopRule::new(cfg.epsilon, omega, &calibration);
    let mut counts = vec![0u64; n];
    let mut touched = Vec::new();
    let mut tau: u64 = 0;
    let n0 = cfg.n0(1);
    let mut epoch = 0u32;
    loop {
        w.set_epoch(epoch);
        let sp = w.begin(SpanId::SampleBatch);
        sampler.sample_batch(g, n0, |interior| {
            for &v in interior {
                count(&mut counts, &mut touched, v, 1);
            }
        });
        w.end(sp);
        tau += n0;
        w.count(CounterId::Samples, n0);
        w.count(CounterId::Epochs, 1);
        let sp = w.begin(SpanId::Check);
        let stop = rule.stops(&counts, &touched, tau);
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
        // `scores_from_counts` in place: the scores reuse the counts'
        // allocation (u64 and f64 share size and alignment), so a solve
        // never holds both.
        scores: counts.into_iter().map(|c| c as f64 / tau as f64).collect(),
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
    use crate::phases::scores_from_counts;
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

    /// The calibration moves only where the stop fires: the answer is
    /// the first τ samples of stream `(seed, 0, 1)`, drawn in batches of
    /// n0 (a batch draws its pairs up front), bit for bit.
    #[test]
    fn answer_is_a_prefix_of_the_adaptive_stream() {
        let g = gnm(GnmConfig { n: 300, m: 900, seed: 5 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.03, delta: 0.1, seed: 11, ..Default::default() };
        let r = kadabra_sequential(&lcc, &cfg);
        let n = lcc.num_nodes();
        let n0 = cfg.n0(1);
        assert_eq!(r.samples % n0, 0);
        let mut counts = vec![0u64; n];
        let mut sampler = ThreadSampler::new(n, cfg.seed, 0, 1);
        for _ in 0..r.samples / n0 {
            sampler.sample_batch(&lcc, n0, |interior| {
                for &v in interior {
                    counts[v as usize] += 1;
                }
            });
        }
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.scores), bits(&scores_from_counts(&counts, r.samples)));
        assert!(r.samples < r.omega, "the stop must fire before ω to test anything");
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
