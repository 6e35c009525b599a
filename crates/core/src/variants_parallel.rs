//! Epoch-based shared-memory parallelization of the directed and weighted
//! variants — demonstrating the paper's footnote-1 claim end to end: the
//! epoch framework and the adaptive machinery are reused *unchanged*; only
//! the sampler differs.
//!
//! The trait split ([`ParallelPathSource`] vs [`crate::variants::PathSource`])
//! exists because parallel sampling needs per-thread scratch: the source is
//! shared read-only (`Sync`), each thread owns a `ThreadState`.

use crate::bounds::{self, stopping_condition};
use crate::calibration::{calibration_sample_count, Calibration};
use crate::config::KadabraConfig;
use crate::phases::scores_from_counts;
use crate::result::{BetweennessResult, PhaseTimings, SamplingStats};
use kadabra_epoch::EpochFramework;
use kadabra_graph::digraph::{sample_directed_shortest_path, DiGraph};
use kadabra_graph::scratch::TraversalScratch;
use kadabra_graph::weighted::{sample_weighted_shortest_path, WeightedGraph};
use kadabra_graph::NodeId;
use kadabra_telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A shareable path source for multi-threaded sampling.
pub trait ParallelPathSource: Sync {
    /// Per-thread scratch (BFS state, buffers).
    type ThreadState: Send;
    /// Number of vertices.
    fn num_nodes(&self) -> usize;
    /// Vertex-diameter upper bound for ω (see [`crate::variants`]).
    fn vertex_diameter_upper(&self, cfg: &KadabraConfig) -> u32;
    /// Creates one thread's scratch.
    fn thread_state(&self) -> Self::ThreadState;
    /// Draws a uniform shortest path between distinct endpoints into `out`
    /// (no-op if unreachable).
    fn sample_path(
        &self,
        state: &mut Self::ThreadState,
        s: NodeId,
        t: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<NodeId>,
    );
}

impl ParallelPathSource for DiGraph {
    type ThreadState = TraversalScratch;

    fn num_nodes(&self) -> usize {
        DiGraph::num_nodes(self)
    }

    fn vertex_diameter_upper(&self, cfg: &KadabraConfig) -> u32 {
        crate::variants::PathSource::vertex_diameter_upper(
            &crate::variants::DirectedSource::new(self),
            cfg,
        )
    }

    fn thread_state(&self) -> TraversalScratch {
        TraversalScratch::new(DiGraph::num_nodes(self))
    }

    fn sample_path(
        &self,
        state: &mut TraversalScratch,
        s: NodeId,
        t: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<NodeId>,
    ) {
        if let Some(p) = sample_directed_shortest_path(self, s, t, state, rng) {
            out.extend_from_slice(&p.interior);
        }
    }
}

impl ParallelPathSource for WeightedGraph {
    type ThreadState = ();

    fn num_nodes(&self) -> usize {
        WeightedGraph::num_nodes(self)
    }

    fn vertex_diameter_upper(&self, _cfg: &KadabraConfig) -> u32 {
        kadabra_graph::KadabraGraph::vertex_diameter_upper(self, 0)
    }

    fn thread_state(&self) {}

    fn sample_path(
        &self,
        _state: &mut (),
        s: NodeId,
        t: NodeId,
        rng: &mut StdRng,
        out: &mut Vec<NodeId>,
    ) {
        if let Some(p) = sample_weighted_shortest_path(self, s, t, rng) {
            out.extend_from_slice(&p.interior);
        }
    }
}

/// Runs the epoch-based shared-memory algorithm over any
/// [`ParallelPathSource`] with `threads` sampling threads. Structure
/// identical to [`crate::kadabra_shared`]; only `SAMPLE()` differs.
pub fn kadabra_shared_generic<S: ParallelPathSource>(
    source: &S,
    cfg: &KadabraConfig,
    threads: usize,
) -> BetweennessResult {
    cfg.validate();
    assert!(threads >= 1);
    let n = source.num_nodes();
    assert!(n >= 2, "KADABRA requires at least two vertices");

    let diam_start = Stopwatch::start();
    let vd = source.vertex_diameter_upper(cfg);
    let diameter_time = diam_start.elapsed();
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let draw_pair = |rng: &mut StdRng| -> (NodeId, NodeId) {
        let s = rng.gen_range(0..n as NodeId);
        let mut t = rng.gen_range(0..n as NodeId - 1);
        if t >= s {
            t += 1;
        }
        (s, t)
    };

    // Calibration: parallel sampling, merged counts.
    let calib_start = Stopwatch::start();
    let tau0 = calibration_sample_count(cfg, omega);
    let share = tau0.div_ceil(threads as u64);
    let mut calib_counts = vec![0u64; n];
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64) << 8 ^ 0xCA11);
                    let mut state = source.thread_state();
                    let mut path = Vec::new();
                    let mut counts = vec![0u64; n];
                    for _ in 0..share {
                        let (s, tt) = draw_pair(&mut rng);
                        path.clear();
                        source.sample_path(&mut state, s, tt, &mut rng, &mut path);
                        for &v in &path {
                            counts[v as usize] += 1;
                        }
                    }
                    counts
                })
            })
            .collect();
        for h in handles {
            // xtask: allow(unwrap) — a sampler-thread panic is a bug; abort
            // the computation with its message.
            for (a, c) in calib_counts.iter_mut().zip(h.join().expect("calib worker")) {
                *a += c;
            }
        }
    })
    // xtask: allow(unwrap) — children are joined above; see worker waiver.
    .expect("calibration scope");
    let calibration = Calibration::from_counts(&calib_counts, share * threads as u64, cfg);
    let calibration_time = calib_start.elapsed();

    // Epoch-based adaptive sampling.
    let ads_start = Stopwatch::start();
    let fw = EpochFramework::new(n, threads);
    let n0 = cfg.n0(threads);
    let mut acc = vec![0u64; n];
    let mut tau = 0u64;
    let mut stats = SamplingStats::default();

    crossbeam::scope(|scope| {
        for t in 1..threads {
            let fw = &fw;
            scope.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64) << 8 ^ 0xAD5);
                let mut state = source.thread_state();
                let mut path = Vec::new();
                let mut h = fw.handle(t);
                while !fw.should_terminate() {
                    let (s, tt) = draw_pair(&mut rng);
                    path.clear();
                    source.sample_path(&mut state, s, tt, &mut rng, &mut path);
                    h.record_sample(&path);
                    fw.check_transition(&mut h);
                }
            });
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAD5);
        let mut state = source.thread_state();
        let mut path = Vec::new();
        let mut h = fw.handle(0);
        let mut epoch = 0u32;
        loop {
            for _ in 0..n0 {
                let (s, tt) = draw_pair(&mut rng);
                path.clear();
                source.sample_path(&mut state, s, tt, &mut rng, &mut path);
                h.record_sample(&path);
            }
            fw.force_transition(&mut h, epoch);
            let wait_start = Stopwatch::start();
            while !fw.transition_done(epoch) {
                let (s, tt) = draw_pair(&mut rng);
                path.clear();
                source.sample_path(&mut state, s, tt, &mut rng, &mut path);
                h.record_sample(&path);
            }
            stats.transition_wait += wait_start.elapsed();
            tau += fw.aggregate_epoch(epoch, &mut acc);
            stats.comm_bytes += (fw.frame_bytes() * threads) as u64;
            stats.epochs += 1;
            let check_start = Stopwatch::start();
            let stop = stopping_condition(
                &acc,
                tau,
                cfg.epsilon,
                omega,
                &calibration.delta_l,
                &calibration.delta_u,
            );
            stats.check_time += check_start.elapsed();
            if stop {
                fw.signal_termination();
                break;
            }
            epoch += 1;
        }
    })
    // xtask: allow(unwrap) — children are joined above; see worker waiver.
    .expect("adaptive sampling scope");
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

/// Epoch-based shared-memory KADABRA on a directed graph.
pub fn kadabra_shared_directed(
    g: &DiGraph,
    cfg: &KadabraConfig,
    threads: usize,
) -> BetweennessResult {
    kadabra_shared_generic(g, cfg, threads)
}

/// Epoch-based shared-memory KADABRA on a weighted graph.
pub fn kadabra_shared_weighted(
    g: &WeightedGraph,
    cfg: &KadabraConfig,
    threads: usize,
) -> BetweennessResult {
    kadabra_shared_generic(g, cfg, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::{brandes_directed, brandes_weighted};

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn parallel_directed_within_epsilon() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 35usize;
        let mut arcs = Vec::new();
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u != v && rng.gen_bool(0.12) {
                    arcs.push((u, v));
                }
            }
        }
        let g = DiGraph::from_arcs(n, &arcs);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 4, ..Default::default() };
        let exact = brandes_directed(&g);
        for threads in [1, 3] {
            let r = kadabra_shared_directed(&g, &cfg, threads);
            let err = max_err(&r.scores, &exact);
            assert!(err <= cfg.epsilon, "threads={threads}: {err}");
        }
    }

    #[test]
    fn parallel_weighted_within_epsilon() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 35usize;
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.gen_bool(0.18) {
                    edges.push((u, v, rng.gen_range(1..5)));
                }
            }
        }
        let g = WeightedGraph::from_edges(n, &edges);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 6, ..Default::default() };
        let exact = brandes_weighted(&g);
        for threads in [1, 4] {
            let r = kadabra_shared_weighted(&g, &cfg, threads);
            let err = max_err(&r.scores, &exact);
            assert!(err <= cfg.epsilon, "threads={threads}: {err}");
        }
    }

    #[test]
    fn parallel_terminates_and_accounts() {
        let g = DiGraph::from_arcs(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let cfg = KadabraConfig { epsilon: 0.1, delta: 0.1, seed: 7, ..Default::default() };
        let r = kadabra_shared_directed(&g, &cfg, 2);
        assert!(r.samples > 0);
        assert!(r.stats.epochs >= 1);
        assert_eq!(r.stats.comm_bytes, r.stats.epochs * 2 * (6 * 4 + 8));
    }
}
