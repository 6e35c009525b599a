//! Confidence intervals and confident top-k extraction.
//!
//! The paper's introduction motivates small ε with top-vertex detection: "on
//! many graphs only a handful of vertices have a betweenness score larger
//! than 0.01 (e.g., 38 vertices out of the 41 million vertices of the
//! widely-studied twitter graph)". This module turns a finished KADABRA run
//! into per-vertex **confidence intervals** `[b̃ − f, b̃ + g]` (each valid
//! with its vertex's calibrated failure budget; all simultaneously valid
//! with probability ≥ 1 − δ) and extracts the set of vertices *provably* in
//! the top-k — the deliverable KADABRA's original paper calls the top-k
//! variant.

use crate::bounds::{f_bound, g_bound};
use crate::calibration::Calibration;
use crate::result::BetweennessResult;

/// A vertex's betweenness confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Vertex id.
    pub vertex: u32,
    /// Point estimate b̃(v).
    pub estimate: f64,
    /// Lower confidence bound `max(0, b̃ − f)`.
    pub lower: f64,
    /// Upper confidence bound `min(1, b̃ + g)`.
    pub upper: f64,
}

/// Computes all confidence intervals from a finished run and the calibration
/// it used.
pub fn confidence_intervals(
    result: &BetweennessResult,
    calibration: &Calibration,
) -> Vec<ConfidenceInterval> {
    assert_eq!(result.scores.len(), calibration.delta_l.len(), "mismatched run/calibration");
    assert!(result.samples > 0);
    result
        .scores
        .iter()
        .enumerate()
        .map(|(v, &b)| {
            let f = f_bound(b, calibration.delta_l[v], result.omega, result.samples);
            let g = g_bound(b, calibration.delta_u[v], result.omega, result.samples);
            ConfidenceInterval {
                vertex: v as u32,
                estimate: b,
                lower: (b - f).max(0.0),
                upper: (b + g).min(1.0),
            }
        })
        .collect()
}

/// Outcome of a confident top-k query.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Vertices whose lower bound beats the (k+1)-th best upper bound — they
    /// are in the true top-k with probability ≥ 1 − δ.
    pub confirmed: Vec<ConfidenceInterval>,
    /// Vertices among the best k estimates that could not be separated.
    pub undecided: Vec<ConfidenceInterval>,
}

/// Extracts the provable top-`k`: sorts intervals by estimate, then confirms
/// every candidate whose lower bound exceeds the best upper bound among the
/// non-candidates.
pub fn confident_top_k(
    result: &BetweennessResult,
    calibration: &Calibration,
    k: usize,
) -> TopKResult {
    let mut intervals = confidence_intervals(result, calibration);
    intervals.sort_by(|a, b| b.estimate.total_cmp(&a.estimate).then(a.vertex.cmp(&b.vertex)));
    let k = k.min(intervals.len());
    // Highest upper bound outside the candidate set: the bar to clear.
    let bar = intervals[k..].iter().map(|ci| ci.upper).fold(0.0f64, f64::max);
    let mut confirmed = Vec::new();
    let mut undecided = Vec::new();
    for ci in intervals.into_iter().take(k) {
        if ci.lower > bar {
            confirmed.push(ci);
        } else {
            undecided.push(ci);
        }
    }
    TopKResult { confirmed, undecided }
}

/// Outcome of an adaptive top-k run.
#[derive(Debug, Clone)]
pub struct AdaptiveTopKResult {
    /// The underlying estimate at stopping time.
    pub result: BetweennessResult,
    /// The separated (provable) top-k, sorted by descending estimate.
    pub confirmed: Vec<ConfidenceInterval>,
    /// Whether sampling stopped because the top-k separated (vs. reaching
    /// the ±ε/ω criterion first).
    pub separated: bool,
}

/// **Adaptive top-k KADABRA** (the original paper's second mode): sampling
/// stops as soon as the k highest estimates are *provably* the top-k — i.e.
/// the k-th best lower confidence bound exceeds every other vertex's upper
/// bound — or, failing that, when the standard ±ε condition (or the ω cap)
/// fires. On graphs with clear hubs this stops far earlier than the
/// uniform-ε run.
pub fn kadabra_topk(
    g: &kadabra_graph::Graph,
    k: usize,
    cfg: &crate::config::KadabraConfig,
) -> AdaptiveTopKResult {
    use crate::bounds::StopRule;
    use crate::frame::Frame;
    use crate::phases::{prepare, scores_from_counts};
    use crate::result::{PhaseTimings, SamplingStats};
    use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
    use kadabra_telemetry::Stopwatch;

    cfg.validate();
    let n = g.num_nodes();
    assert!(n >= 2, "KADABRA requires at least two vertices");
    assert!(k >= 1 && k < n, "k must lie in 1..n");
    let prepared = prepare(g, cfg);
    let omega = prepared.omega;
    let rule = StopRule::new(cfg.epsilon, omega, &prepared.calibration);

    let ads_start = Stopwatch::start();
    let mut sampler = ThreadSampler::new(n, cfg.seed, 0, ADS_STREAM_OFFSET + 7);
    let mut frame = Frame::new(n);
    let n0 = cfg.n0(1);
    let mut stats = SamplingStats::default();
    loop {
        // One sample at a time: a batch would draw its pairs up front and
        // consume the stream in a different order.
        for _ in 0..n0 {
            frame.count_path(sampler.sample(g));
        }
        stats.epochs += 1;
        let check_start = Stopwatch::start();
        let tau = frame.tau();
        // Top-k separation check on the current consistent state, then the
        // uniform ±ε criterion (which also covers τ ≥ ω) as the fallback.
        let interim = BetweennessResult {
            scores: scores_from_counts(frame.counts(), tau),
            samples: tau,
            omega,
            vertex_diameter: prepared.vertex_diameter,
            timings: PhaseTimings::default(),
            stats: SamplingStats::default(),
        };
        let topk = confident_top_k(&interim, &prepared.calibration, k);
        let separated = topk.confirmed.len() == k;
        let stop = separated || rule.stops(frame.counts(), frame.touched(), tau);
        stats.check_time += check_start.elapsed();
        if stop {
            stats.samples = tau;
            return AdaptiveTopKResult {
                result: BetweennessResult {
                    timings: PhaseTimings {
                        diameter: prepared.diameter_time,
                        calibration: prepared.calibration_time,
                        adaptive_sampling: ads_start.elapsed(),
                    },
                    stats,
                    ..interim
                },
                confirmed: topk.confirmed,
                separated,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KadabraConfig;
    use crate::sequential::kadabra_sequential;
    use crate::{phases, Prepared};
    use kadabra_graph::components::largest_component;
    use kadabra_graph::csr::graph_from_edges;
    use kadabra_graph::generators::{barabasi_albert, gnm, grid, BaConfig, GnmConfig, GridConfig};

    fn run_with_calibration(
        g: &kadabra_graph::Graph,
        cfg: &KadabraConfig,
    ) -> (BetweennessResult, Prepared) {
        let prepared = phases::prepare(g, cfg);
        let result = kadabra_sequential(g, cfg);
        (result, prepared)
    }

    #[test]
    fn intervals_cover_estimates() {
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        let (result, prepared) = run_with_calibration(&g, &cfg);
        let cis = confidence_intervals(&result, &prepared.calibration);
        assert_eq!(cis.len(), 36);
        for ci in &cis {
            assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper, "{ci:?}");
            assert!((0.0..=1.0).contains(&ci.lower));
            assert!((0.0..=1.0).contains(&ci.upper));
        }
    }

    #[test]
    fn star_hub_is_confirmed_top_1() {
        let edges: Vec<(u32, u32)> = (1..30).map(|v| (0, v)).collect();
        let g = graph_from_edges(30, &edges);
        let cfg = KadabraConfig::new(0.05, 0.1);
        let (result, prepared) = run_with_calibration(&g, &cfg);
        let topk = confident_top_k(&result, &prepared.calibration, 1);
        assert_eq!(topk.confirmed.len(), 1, "hub must be provably top-1");
        assert_eq!(topk.confirmed[0].vertex, 0);
        assert!(topk.undecided.is_empty());
    }

    #[test]
    fn symmetric_graph_leaves_candidates_undecided() {
        // On a cycle every vertex has identical betweenness: no vertex can be
        // separated into a top-3.
        let n = 12u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let cfg = KadabraConfig::new(0.05, 0.1);
        let (result, prepared) = run_with_calibration(&g, &cfg);
        let topk = confident_top_k(&result, &prepared.calibration, 3);
        assert!(topk.confirmed.is_empty(), "cycle vertices are indistinguishable");
        assert_eq!(topk.undecided.len(), 3);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let cfg = KadabraConfig::new(0.1, 0.1);
        let (result, prepared) = run_with_calibration(&g, &cfg);
        let topk = confident_top_k(&result, &prepared.calibration, 100);
        assert_eq!(topk.confirmed.len() + topk.undecided.len(), 3);
    }

    #[test]
    fn adaptive_topk_stops_early_on_star() {
        // The hub separates almost immediately; the uniform-eps run on the
        // same graph needs the full omega cap (its estimate is ~1).
        let edges: Vec<(u32, u32)> = (1..40).map(|v| (0, v)).collect();
        let g = graph_from_edges(40, &edges);
        let cfg = KadabraConfig {
            epsilon: 0.01,
            delta: 0.1,
            seed: 5,
            calibration_samples: Some(200),
            ..Default::default()
        };
        let topk = kadabra_topk(&g, 1, &cfg);
        assert!(topk.separated, "star hub must separate adaptively");
        assert_eq!(topk.confirmed.len(), 1);
        assert_eq!(topk.confirmed[0].vertex, 0);
        let full = kadabra_sequential(&g, &cfg);
        assert!(
            topk.result.samples < full.samples / 2,
            "top-k ({}) should stop far before the uniform run ({})",
            topk.result.samples,
            full.samples
        );
    }

    #[test]
    fn adaptive_topk_falls_back_on_symmetric_graph() {
        // A cycle can never separate a top-3; the run must terminate via the
        // uniform criterion instead of looping forever.
        let n = 10u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 6, ..Default::default() };
        let topk = kadabra_topk(&g, 3, &cfg);
        assert!(!topk.separated);
        assert!(topk.result.samples > 0);
    }

    /// FNV-1a (64-bit) over τ, the score bits and the confirmed vertices.
    fn transcript(r: &AdaptiveTopKResult) -> (u64, u64, bool) {
        let words = std::iter::once(r.result.samples)
            .chain(r.result.scores.iter().map(|s| s.to_bits()))
            .chain(r.confirmed.iter().map(|c| u64::from(c.vertex)));
        let digest = words.flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (r.result.samples, digest, r.separated)
    }

    #[test]
    fn adaptive_topk_transcripts_are_pinned() {
        // One run down each exit: the top-2 separates, the top-3 reaches
        // ω with two of three confirmed, and on a hub-free graph the ±ε
        // rule stops at 5 000 samples, below ω = 7 495.
        let hubs = barabasi_albert(BaConfig { n: 250, m: 2, seed: 5 });
        let cfg = KadabraConfig { epsilon: 0.02, delta: 0.1, seed: 13, ..Default::default() };
        let r = kadabra_topk(&hubs, 2, &cfg);
        assert_eq!(transcript(&r), (3000, 0xdf3f_333a_bdd0_0309, true), "top-2 separates");
        let r = kadabra_topk(&hubs, 3, &cfg);
        assert_eq!(transcript(&r), (8000, 0xd236_f34c_51af_3ff7, false), "top-3 reaches ω");
        assert_eq!(r.confirmed.len(), 2);
        let (flat, _) = largest_component(&gnm(GnmConfig { n: 200, m: 520, seed: 3 }));
        let cfg = KadabraConfig { seed: 9, ..cfg };
        let r = kadabra_topk(&flat, 1, &cfg);
        assert_eq!(transcript(&r), (5000, 0x1c1f_20f8_822d_2301, false), "±ε stops the top-1");
        assert!(r.result.samples < r.result.omega);
    }

    #[test]
    #[should_panic(expected = "k must lie in 1..n")]
    fn adaptive_topk_validates_k() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        kadabra_topk(&g, 3, &KadabraConfig::new(0.1, 0.1));
    }

    #[test]
    #[should_panic(expected = "mismatched run/calibration")]
    fn mismatched_sizes_rejected() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let cfg = KadabraConfig::new(0.1, 0.1);
        let (result, _) = run_with_calibration(&g, &cfg);
        let other =
            Calibration { delta_l: vec![0.1].into(), delta_u: vec![0.1].into(), samples: 1 };
        confidence_intervals(&result, &other);
    }
}
