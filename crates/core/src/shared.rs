//! Shared-memory parallel KADABRA using the epoch-based framework — the
//! state-of-the-art baseline of the paper (Ref. [24], van der Grinten et
//! al., Euro-Par 2019), i.e. Algorithm 2 restricted to a single process.
//!
//! `T − 1` worker threads sample wait-free into their per-epoch state
//! frames; thread 0 interleaves sampling with epoch transitions,
//! aggregation and the stopping-condition check, overlapping all
//! coordination with its own sampling.

use crate::bounds::stopping_condition;
use crate::config::KadabraConfig;
use crate::phases::{calibration_frame, diameter_phase, scores_from_counts};
use crate::result::{BetweennessResult, PhaseTimings, SamplingStats};
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use crate::{bounds, calibration::Calibration};
use kadabra_epoch::EpochFramework;
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
pub fn kadabra_shared_on<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    threads: usize,
    tel: &Telemetry,
) -> BetweennessResult {
    cfg.validate();
    assert!(threads >= 1, "need at least one thread");
    let n = g.num_nodes();
    assert!(n >= 2, "KADABRA requires at least two vertices");
    let w = tel.writer(0, 0);

    // Phase 1: diameter (sequential).
    let sp = w.begin(SpanId::Diameter);
    let (vd, _) = diameter_phase(g, cfg);
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    // Phase 2: calibration — pleasingly parallel sampling, sequential δ fit.
    let sp_calib = w.begin(SpanId::Calibration);
    let calib = calibration_frame(g, cfg, omega, 0, threads, threads);
    let calibration = Calibration::from_counts(&calib[..n], calib[n], cfg);
    w.end(sp_calib);

    // Phase 3: epoch-based adaptive sampling.
    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let fw = EpochFramework::new(n, threads);
    let n0 = cfg.n0(threads);
    let mut acc = vec![0u64; n];
    let mut tau: u64 = 0;

    crossbeam::scope(|s| {
        for t in 1..threads {
            let fw = &fw;
            let tw = tel.writer(0, t as u32);
            s.spawn(move |_| {
                let mut sampler = ThreadSampler::new(n, cfg.seed, 0, ADS_STREAM_OFFSET + t);
                let mut h = fw.handle(t);
                let mut drawn = 0u64;
                // Small batches amortize pair drawing while still polling
                // the epoch command often enough to stay within the
                // framework's one-epoch lag bound.
                const WORKER_CHUNK: u64 = 8;
                while !fw.should_terminate() {
                    sampler.sample_batch(g, WORKER_CHUNK, |interior| h.record_sample(interior));
                    drawn += WORKER_CHUNK;
                    fw.check_transition(&mut h);
                }
                // One flush at exit keeps the hot loop free of stores.
                tw.count(CounterId::Samples, drawn);
            });
        }

        // Thread 0: sampling + coordination (Algorithm 2, lines 10-31).
        let mut sampler = ThreadSampler::new(n, cfg.seed, 0, ADS_STREAM_OFFSET);
        let mut h = fw.handle(0);
        let mut epoch = 0u32;
        loop {
            w.set_epoch(epoch);
            let sp = w.begin(SpanId::SampleBatch);
            sampler.sample_batch(g, n0, |interior| h.record_sample(interior));
            w.end(sp);
            fw.force_transition(&mut h, epoch);
            let sp = w.begin(SpanId::TransitionWait);
            let mut overlapped = 0u64;
            while !fw.transition_done(epoch) {
                // Overlapped: h already advanced, so these samples land in
                // the next epoch's frame.
                let interior = sampler.sample(g);
                h.record_sample(interior);
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::Samples, n0 + overlapped);

            let sp = w.begin(SpanId::FrameAggregate);
            tau += fw.aggregate_epoch(epoch, &mut acc);
            w.end(sp);
            w.count(CounterId::BytesReduced, (fw.frame_bytes() * threads) as u64);
            w.count(CounterId::Epochs, 1);

            let sp = w.begin(SpanId::Check);
            let stop = stopping_condition(
                &acc,
                tau,
                cfg.epsilon,
                omega,
                &calibration.delta_l,
                &calibration.delta_u,
            );
            w.end(sp);
            if stop {
                fw.signal_termination();
                break;
            }
            epoch += 1;
        }
    })
    // xtask: allow(unwrap) — children are joined above; see worker waiver.
    .expect("adaptive sampling scope");
    w.end(sp_ads);

    let rec = w.recorder();
    let mut stats = sampling_stats_from(rec);
    stats.samples = tau;
    stats.comm_bytes = rec.counter(CounterId::BytesReduced);

    BetweennessResult {
        scores: scores_from_counts(&acc, tau),
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

    #[test]
    fn comm_bytes_scale_with_epochs_and_threads() {
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let r = kadabra_shared(&g, &KadabraConfig::new(0.1, 0.1), 2);
        let frame = 36 * 4 + 8;
        assert_eq!(r.stats.comm_bytes, r.stats.epochs * 2 * frame);
    }

    /// The in-process analogue of the paper's cross-process epoch bound:
    /// while workers run this module's sampling loop, every thread's
    /// published epoch (via the new observability hooks) must stay within
    /// `[commanded − 1, commanded]` — the two-frames-per-thread guarantee
    /// the Euro-Par'19 framework is built on.
    #[test]
    fn thread_epochs_stay_within_one_of_commanded() {
        use kadabra_epoch::EpochFramework;
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let n = g.num_nodes();
        let threads = 3;
        let fw = EpochFramework::new(n, threads);
        crossbeam::scope(|s| {
            for t in 1..threads {
                let fw = &fw;
                let g = &g;
                s.spawn(move |_| {
                    let mut sampler = ThreadSampler::new(n, 7, 0, ADS_STREAM_OFFSET + t);
                    let mut h = fw.handle(t);
                    while !fw.should_terminate() {
                        h.record_sample(sampler.sample(g));
                        fw.check_transition(&mut h);
                    }
                });
            }
            let mut sampler = ThreadSampler::new(n, 7, 0, ADS_STREAM_OFFSET);
            let mut h = fw.handle(0);
            let mut acc = vec![0u64; n];
            for epoch in 0..20u32 {
                for _ in 0..50 {
                    h.record_sample(sampler.sample(&g));
                }
                fw.force_transition(&mut h, epoch);
                while !fw.transition_done(epoch) {
                    std::hint::spin_loop();
                }
                // Audit the hook bound at the strongest observable point.
                let commanded = fw.commanded_epoch();
                assert_eq!(commanded, epoch + 1);
                for t in 0..threads {
                    let te = fw.thread_epoch(t);
                    assert!(
                        te + 1 >= commanded && te <= commanded,
                        "thread {t} epoch {te} outside [{}, {commanded}]",
                        commanded - 1
                    );
                }
                fw.aggregate_epoch(epoch, &mut acc);
            }
            fw.signal_termination();
        })
        .unwrap();
    }
}
