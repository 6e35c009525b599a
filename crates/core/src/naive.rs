//! The "simple" parallelization the paper dismisses in Section III-B:
//! take a fixed number of samples in every thread, synchronize with a
//! blocking barrier, aggregate (without any overlap), check, repeat.
//!
//! The paper: *"'simple' parallelization techniques – such as taking a fixed
//! number of samples before each check of the stopping condition – are not
//! enough. Since they fail to overlap computation and aggregation, they are
//! known to not scale well, even on shared-memory machines."* This module
//! exists so the ablation experiment (`exp_ablation_naive`) can quantify
//! that claim against [`crate::kadabra_shared`].

use crate::bounds::stopping_condition;
use crate::config::KadabraConfig;
use crate::phases::{prepare, scores_from_counts, Prepared};
use crate::result::{BetweennessResult, PhaseTimings, SamplingStats};
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use crate::sync::{AtomicBool, Ordering};
use kadabra_graph::Graph;
use kadabra_telemetry::Stopwatch;
use parking_lot::Mutex;
use std::sync::Barrier;

/// Runs the naive fork-join parallelization with `threads` sampling threads.
pub fn kadabra_naive_parallel(g: &Graph, cfg: &KadabraConfig, threads: usize) -> BetweennessResult {
    assert!(threads >= 1);
    // Set-up identical to the sequential version (single-threaded here; the
    // naive scheme is about the adaptive phase).
    let Prepared { vertex_diameter: vd, omega, calibration, diameter_time, calibration_time } =
        prepare(g, cfg);
    let n = g.num_nodes();

    let ads_start = Stopwatch::start();
    let n0 = cfg.n0(threads).max(8); // per-thread samples per round
    let barrier = Barrier::new(threads);
    let terminate = AtomicBool::new(false);
    let worker_counts: Vec<Mutex<Vec<u64>>> =
        (0..threads).map(|_| Mutex::new(vec![0u64; n])).collect();

    let mut acc = vec![0u64; n];
    let mut tau: u64 = 0;
    let mut stats = SamplingStats::default();

    let scoped = crossbeam::scope(|s| {
        for t in 1..threads {
            let barrier = &barrier;
            let terminate = &terminate;
            let worker_counts = &worker_counts;
            s.spawn(move |_| {
                let mut sampler = ThreadSampler::new(n, cfg.seed, 0, ADS_STREAM_OFFSET + t);
                loop {
                    // xtask: allow(comm-error-flow) — std::sync::Barrier
                    // rendezvous (name-collides with the comm `wait`).
                    barrier.wait(); // round start
                    if terminate.load(Ordering::Acquire) {
                        break;
                    }
                    {
                        let mut counts = worker_counts[t].lock();
                        sampler.sample_batch(g, n0, |interior| {
                            for &v in interior {
                                counts[v as usize] += 1;
                            }
                        });
                    }
                    // xtask: allow(comm-error-flow) — std::sync::Barrier
                    // rendezvous (name-collides with the comm `wait`).
                    barrier.wait(); // round end
                }
            });
        }

        let mut sampler = ThreadSampler::new(n, cfg.seed, 0, ADS_STREAM_OFFSET);
        let mut stop = false;
        loop {
            if stop {
                terminate.store(true, Ordering::Release);
            }
            // xtask: allow(comm-error-flow) — std::sync::Barrier rendezvous
            // (name-collides with the comm `wait`).
            barrier.wait(); // round start
            if stop {
                break;
            }
            {
                let mut counts = worker_counts[0].lock();
                sampler.sample_batch(g, n0, |interior| {
                    for &v in interior {
                        counts[v as usize] += 1;
                    }
                });
            }
            let wait_start = Stopwatch::start();
            // xtask: allow(comm-error-flow) — std::sync::Barrier rendezvous
            // (name-collides with the comm `wait`).
            barrier.wait(); // round end: blocking, no overlap — the point
            stats.barrier_wait += wait_start.elapsed();

            let agg_start = Stopwatch::start();
            for wc in &worker_counts {
                let mut counts = wc.lock();
                for (a, c) in acc.iter_mut().zip(counts.iter_mut()) {
                    *a += *c;
                    *c = 0;
                }
            }
            stats.reduce_time += agg_start.elapsed();
            stats.comm_bytes += (threads * n * 8) as u64;
            tau += n0 * threads as u64;
            stats.epochs += 1;

            let check_start = Stopwatch::start();
            stop = stopping_condition(
                &acc,
                tau,
                cfg.epsilon,
                omega,
                &calibration.delta_l,
                &calibration.delta_u,
            );
            stats.check_time += check_start.elapsed();
        }
    });
    #[expect(clippy::expect_used, reason = "a sampler-thread panic is a bug; abort with it")]
    scoped.expect("naive sampling scope");
    stats.samples = tau;

    BetweennessResult {
        scores: scores_from_counts(&acc, tau),
        samples: tau,
        omega,
        vertex_diameter: vd,
        timings: PhaseTimings {
            diameter: diameter_time,
            calibration: calibration_time,
            adaptive_sampling: ads_start.elapsed(),
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::brandes;
    use kadabra_graph::generators::{grid, GridConfig};

    #[test]
    fn naive_terminates_and_is_accurate() {
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        for threads in [1, 3] {
            let r = kadabra_naive_parallel(&g, &cfg, threads);
            let exact = brandes(&g);
            for (a, e) in r.scores.iter().zip(&exact) {
                assert!((a - e).abs() <= cfg.epsilon, "threads={threads}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn sample_accounting_is_exact() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.1, 0.1);
        let r = kadabra_naive_parallel(&g, &cfg, 2);
        // Every round adds exactly n0 * threads samples.
        let n0 = cfg.n0(2).max(8);
        assert_eq!(r.samples, r.stats.epochs * n0 * 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.1, 0.1);
        let a = kadabra_naive_parallel(&g, &cfg, 3);
        let b = kadabra_naive_parallel(&g, &cfg, 3);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.samples, b.samples);
    }
}
