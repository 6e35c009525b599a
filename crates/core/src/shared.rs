//! Shared-memory parallel KADABRA using the epoch-based framework — the
//! state-of-the-art baseline of the paper (Ref. \[24\], van der Grinten et
//! al., Euro-Par 2019), i.e. Algorithm 2 restricted to a single process,
//! which is what runs it: `T − 1` worker threads sample wait-free into
//! their per-epoch state frames, and thread 0 interleaves sampling with
//! epoch transitions, aggregation and the stopping-condition check
//! ([`crate::epoch_mpi`]). Its one-rank world's collectives complete at the
//! first poll.

use crate::config::{ClusterShape, KadabraConfig};
use crate::epoch_mpi::kadabra_epoch_mpi_traced;
use crate::result::{BetweennessResult, PhaseTimings, SamplingStats};
use kadabra_graph::{Graph, KadabraGraph};
use kadabra_telemetry::{CounterId, SpanId, Telemetry, ThreadRecorder};
use std::time::Duration;

/// Derives the Section III-A per-phase breakdown from a rank's thread-0
/// recorder. Together with [`sampling_stats_from`] this is the **single
/// timing code path** shared by every driver: the drivers record telemetry
/// spans, and the legacy result types are projections of those spans.
pub fn phase_timings_from(rec: &ThreadRecorder) -> PhaseTimings {
    let d = |s: SpanId| Duration::from_nanos(rec.span_ns(s));
    PhaseTimings {
        diameter: d(SpanId::Diameter),
        calibration: d(SpanId::Calibration),
        adaptive_sampling: d(SpanId::AdaptiveSampling),
    }
}

/// Derives Table II-style sampling statistics from a rank's thread-0
/// recorder. `samples` (τ) and `comm_bytes` are driver-level quantities the
/// caller fills in afterwards.
pub fn sampling_stats_from(rec: &ThreadRecorder) -> SamplingStats {
    let d = |s: SpanId| Duration::from_nanos(rec.span_ns(s));
    SamplingStats {
        epochs: rec.counter(CounterId::Epochs),
        samples: 0,
        barrier_wait: d(SpanId::IbarrierWait) + d(SpanId::BcastStop),
        reduce_time: d(SpanId::IreduceWait) + d(SpanId::Reduce) + d(SpanId::FrameAggregate),
        transition_wait: d(SpanId::TransitionWait),
        check_time: d(SpanId::Check),
        comm_bytes: 0,
    }
}

/// Runs epoch-based shared-memory KADABRA with `threads` sampling threads.
pub fn kadabra_shared(g: &Graph, cfg: &KadabraConfig, threads: usize) -> BetweennessResult {
    kadabra_shared_traced(g, cfg, threads, &Telemetry::stats_only())
}

/// [`kadabra_shared`] recording into an explicit [`Telemetry`] registry
/// (spans, counters and — in tracing mode — the Chrome-trace event stream).
pub fn kadabra_shared_traced(
    g: &Graph,
    cfg: &KadabraConfig,
    threads: usize,
    tel: &Telemetry,
) -> BetweennessResult {
    // Cache-aware relabeling: all sampling threads share the degree-relabeled
    // CSR; the final scores are mapped back to the caller's ids
    // (DESIGN.md §11).
    let (rg, perm) = g.relabel_by_degree();
    let mut result = kadabra_shared_on(&rg, cfg, threads, tel);
    result.scores = perm.unrelabel(&result.scores);
    result
}

/// Epoch-based shared-memory KADABRA on any graph kind, sampling on `g` as
/// given — what [`kadabra_shared_traced`] runs on the relabeled CSR, and the
/// entry point for directed and weighted graphs (the paper's footnote 1).
/// It is Algorithm 2 on one rank of `threads` threads.
pub fn kadabra_shared_on<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    threads: usize,
    tel: &Telemetry,
) -> BetweennessResult {
    let shape = ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: threads };
    kadabra_epoch_mpi_traced(g, cfg, shape, tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::brandes;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::generators::{gnm, grid, GnmConfig, GridConfig};

    #[test]
    fn single_thread_matches_guarantee() {
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        let r = kadabra_shared(&g, &cfg, 1);
        let exact = brandes(&g);
        for (a, e) in r.scores.iter().zip(&exact) {
            assert!((a - e).abs() <= cfg.epsilon, "{a} vs {e}");
        }
    }

    #[test]
    fn multi_thread_accuracy() {
        let g = gnm(GnmConfig { n: 60, m: 150, seed: 5 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.04, delta: 0.1, seed: 11, ..Default::default() };
        let r = kadabra_shared(&lcc, &cfg, 4);
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst}");
    }

    #[test]
    fn terminates_with_various_thread_counts() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        for threads in [1, 2, 3, 5] {
            let r = kadabra_shared(&g, &KadabraConfig::new(0.1, 0.1), threads);
            assert!(r.samples > 0, "threads={threads}");
            assert!(r.stats.epochs >= 1);
        }
    }

    #[test]
    fn aggregated_tau_counts_only_aggregated_epochs() {
        // τ must equal the sum actually folded into the scores: scores must
        // sum to τ·(avg interior length)/τ — sanity-check score normalization
        // via a vertex sum identity instead of internals: sum of c̃ equals
        // τ·E[interior length], so every score is ≤ 1.
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let r = kadabra_shared(&g, &KadabraConfig::new(0.08, 0.1), 3);
        for s in &r.scores {
            assert!((0.0..=1.0).contains(s));
        }
    }
}
