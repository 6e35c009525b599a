//! The shared phase pipeline (Section III-A): diameter → ω → calibration.
//!
//! Every execution mode runs the same three phases; this module hosts the
//! phase logic so the sequential, shared-memory, MPI and discrete-event
//! drivers orchestrate *when/where* each phase runs (and how its inputs are
//! communicated) without duplicating *what* it computes.

use crate::bounds;
use crate::calibration::{calibration_sample_count, Calibration};
use crate::config::KadabraConfig;
use crate::result::BetweennessResult;
use crate::sampler::ThreadSampler;
use crate::shared::{phase_timings_from, sampling_stats_from};
use kadabra_graph::{KadabraGraph, PathSource};
use kadabra_mpisim::{CommError, Communicator};
use kadabra_telemetry::{EventWriter, SpanId, Stopwatch, ThreadRecorder};
use std::time::Duration;

/// Output of the preparatory phases, consumed by the adaptive-sampling
/// phase of every execution mode.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Vertex-diameter upper bound (diameter + 1).
    pub vertex_diameter: u32,
    /// Static sample cap ω.
    pub omega: u64,
    /// Per-vertex failure budgets.
    pub calibration: Calibration,
    /// Wall time of the (sequential) diameter phase.
    pub diameter_time: Duration,
    /// Wall time of the calibration phase.
    pub calibration_time: Duration,
}

/// Phase 1: computes the vertex-diameter upper bound. Sequential by design —
/// in the paper this is the Amdahl term visible in Fig. 2b. How the bound is
/// found is the graph kind's business ([`KadabraGraph`]): iFUB under
/// `cfg.diameter_bfs_budget` on the undirected CSR.
pub fn diameter_phase<G: KadabraGraph>(g: &G, cfg: &KadabraConfig) -> (u32, Duration) {
    let start = Stopwatch::start();
    let vd = g.vertex_diameter_upper(cfg.diameter_bfs_budget);
    (vd, start.elapsed())
}

/// Phase 2 worker: takes this thread's share of the non-adaptive calibration
/// samples, accumulating counts into `counts`. Each of the `total_threads`
/// workers takes `ceil(τ₀ / total_threads)` samples; returns the number
/// taken.
pub fn calibration_samples_for_thread<G: PathSource>(
    g: &G,
    sampler: &mut ThreadSampler,
    counts: &mut [u64],
    cfg: &KadabraConfig,
    omega: u64,
    total_threads: usize,
) -> u64 {
    let tau0 = calibration_sample_count(cfg, omega);
    let share = tau0.div_ceil(total_threads as u64);
    sampler.sample_batch(g, share, |interior| {
        for &v in interior {
            counts[v as usize] += 1;
        }
    });
    share
}

/// Phase 2 on one rank: its `threads` workers take their shares in parallel
/// on the streams `(seed, rank, 0..threads)`, stream 0 on the calling thread
/// with `own` (re-keyed to it), the others on threads of their own. Returns
/// the rank's `(n + 1)`-slot frame: merged counts, and the number of samples
/// taken in the last slot.
pub(crate) fn calibration_frame<G: PathSource + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    omega: u64,
    rank: usize,
    threads: usize,
    total_threads: usize,
    own: &mut ThreadSampler,
) -> Vec<u64> {
    let n = g.num_nodes();
    let share = |sampler: &mut ThreadSampler| {
        let mut frame = vec![0u64; n + 1];
        frame[n] =
            calibration_samples_for_thread(g, sampler, &mut frame[..n], cfg, omega, total_threads);
        frame
    };
    let frame = crossbeam::scope(|s| {
        let handles: Vec<_> = (1..threads)
            .map(|t| s.spawn(move |_| share(&mut ThreadSampler::new(n, cfg.seed, rank, t))))
            .collect();
        own.reseed(cfg.seed, rank, 0);
        let mut frame = share(own);
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "a sampler-thread panic is a bug; abort the computation with its message"
            )]
            let other = h.join().expect("calibration worker");
            for (a, c) in frame.iter_mut().zip(other) {
                *a += c;
            }
        }
        frame
    });
    #[expect(
        clippy::expect_used,
        reason = "the scope joins every worker above, and a worker panic is a bug to abort with"
    )]
    let frame = frame.expect("calibration scope");
    frame
}

/// Full sequential preparation: diameter, ω, calibration on one thread.
pub fn prepare<G: KadabraGraph>(g: &G, cfg: &KadabraConfig) -> Prepared {
    prepare_for_pool(g, cfg, 1, 1)
}

/// The set-up a world of `ranks` ranks × `threads` sampling threads derives
/// collectively (`prepare_collective`), computed on one thread: the
/// diameter phase, then [`calibrate_for_pool`] from its bound.
pub fn prepare_for_pool<G: KadabraGraph>(
    g: &G,
    cfg: &KadabraConfig,
    ranks: usize,
    threads: usize,
) -> Prepared {
    cfg.validate();
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
    let (vd, diameter_time) = diameter_phase(g, cfg);
    Prepared { diameter_time, ..calibrate_for_pool(g, cfg, vd, ranks, threads) }
}

/// Calibration of a `ranks × threads` pool from a given vertex-diameter
/// bound `vd`, on one thread: the calibration streams are keyed by
/// `(seed, rank, thread)`, so replaying every stream of the pool
/// reconstructs the all-reduce total exactly. Resident pools and ranks
/// admitted mid-run build their δ budgets this way; a caller that already
/// holds the graph's bound (a server's prepared graph) skips the diameter
/// phase, whose reported time is then zero.
pub fn calibrate_for_pool<G: PathSource>(
    g: &G,
    cfg: &KadabraConfig,
    vd: u32,
    ranks: usize,
    threads: usize,
) -> Prepared {
    cfg.validate();
    assert!(ranks >= 1 && threads >= 1);
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let calib_start = Stopwatch::start();
    let n = g.num_nodes();
    let mut counts = vec![0u64; n];
    let mut taken = 0u64;
    let pool = ranks * threads;
    // One scratch serves every stream in turn.
    let mut sampler = ThreadSampler::new(n, cfg.seed, 0, 0);
    for r in 0..ranks {
        for t in 0..threads {
            sampler.reseed(cfg.seed, r, t);
            taken += calibration_samples_for_thread(g, &mut sampler, &mut counts, cfg, omega, pool);
        }
    }
    let calibration = Calibration::from_counts(&counts, taken, omega, cfg);
    let calibration_time = calib_start.elapsed();

    Prepared {
        vertex_diameter: vd,
        omega,
        calibration,
        diameter_time: Duration::ZERO,
        calibration_time,
    }
}

/// The set-up of Algorithms 1 and 2, run collectively over `world` by ranks
/// of `threads` sampling threads each (the flat driver passes 1); the
/// calling thread calibrates with `sampler`, leaving it on its calibration
/// stream.
///
/// Phase 1: sequential diameter at rank 0, broadcast — the other ranks
/// idle, the Amdahl term of Fig. 2b. Phase 2: all `P·T` threads take their
/// share of the calibration samples in parallel, blocking aggregation
/// (`MPI_Reduce` in the paper; we all-reduce so every rank derives the same
/// δ budgets deterministically).
///
/// Crash schedules are constrained to the adaptive phase, so the only
/// failure a caller can survive here is its own rank's scheduled death.
pub(crate) fn prepare_collective<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    world: &Communicator,
    threads: usize,
    sampler: &mut ThreadSampler,
    w: &EventWriter,
) -> Result<Prepared, CommError> {
    let n = g.num_nodes();
    let my_world = world.world_rank();

    let sp = w.begin(SpanId::Diameter);
    let diameter_start = Stopwatch::start();
    let vd = if world.rank() == 0 {
        let (vd, _) = diameter_phase(g, cfg);
        world.bcast_u64(0, Some(vd as u64))?
    } else {
        world.bcast_u64(0, None)?
    } as u32;
    let diameter_time = diameter_start.elapsed();
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let sp = w.begin(SpanId::Calibration);
    let calib_start = Stopwatch::start();
    let total_threads = threads * world.size();
    let calib = calibration_frame(g, cfg, omega, my_world, threads, total_threads, sampler);
    let total = world.allreduce_sum_u64(&calib)?;
    drop(calib);
    let calibration = Calibration::from_counts(&total[..n], total[n], omega, cfg);
    let calibration_time = calib_start.elapsed();
    w.end(sp);

    Ok(Prepared { vertex_diameter: vd, omega, calibration, diameter_time, calibration_time })
}

/// Converts aggregated counts into normalized betweenness scores.
pub fn scores_from_counts(counts: &[u64], tau: u64) -> Vec<f64> {
    assert!(tau > 0, "no samples to normalize by");
    counts.iter().map(|&c| c as f64 / tau as f64).collect()
}

/// The result the final root of Algorithm 1 or 2 returns: scores from its
/// aggregated frame, timings and statistics projected from its thread-0
/// recorder. `stats.comm_bytes` is left for the caller, which knows which
/// communicators to sum.
pub(crate) fn root_result(
    s_global: &[u64],
    prepared: &Prepared,
    rec: &ThreadRecorder,
) -> BetweennessResult {
    let n = s_global.len() - 1;
    let tau = s_global[n];
    let mut stats = sampling_stats_from(rec);
    stats.samples = tau;
    BetweennessResult {
        scores: scores_from_counts(&s_global[..n], tau),
        samples: tau,
        omega: prepared.omega,
        vertex_diameter: prepared.vertex_diameter,
        timings: phase_timings_from(rec),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::csr::graph_from_edges;
    use kadabra_graph::generators::{gnm, GnmConfig};
    use kadabra_mpisim::Universe;
    use kadabra_telemetry::Telemetry;

    #[test]
    fn prepare_on_path_graph() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let cfg = KadabraConfig::new(0.1, 0.1);
        let p = prepare(&g, &cfg);
        assert_eq!(p.vertex_diameter, 6);
        assert_eq!(p.omega, bounds::omega(0.5, 0.1, 0.1, 6));
        assert!(p.calibration.samples >= 200);
        assert!(p.calibration.total_budget() <= cfg.delta / 2.0 * 1.000001);
    }

    #[test]
    fn prepare_is_deterministic() {
        let g = gnm(GnmConfig { n: 40, m: 120, seed: 2 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig::new(0.1, 0.1);
        let a = prepare(&lcc, &cfg);
        let b = prepare(&lcc, &cfg);
        assert_eq!(a.omega, b.omega);
        assert_eq!(a.calibration.delta_l, b.calibration.delta_l);
    }

    #[test]
    fn replayed_setup_equals_the_collective_one() {
        // What a rank admitted mid-run and a resident pool rely on: the
        // one-thread replay derives the very budgets a P-rank world
        // all-reduces at launch.
        let g = gnm(GnmConfig { n: 40, m: 120, seed: 2 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig::new(0.1, 0.1);
        let tel = Telemetry::stats_only();
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let replayed = prepare_for_pool(&lcc, &cfg, ranks, threads);
            let collective = Universe::run(ranks, |comm| {
                let w = tel.writer(comm.rank() as u32, 0);
                let mut sampler = ThreadSampler::new(lcc.num_nodes(), cfg.seed, 0, 0);
                prepare_collective(&lcc, &cfg, &comm, threads, &mut sampler, &w)
                    .expect("no plan, no faults")
            });
            for p in collective {
                assert_eq!(
                    (p.vertex_diameter, p.omega, p.calibration.samples),
                    (replayed.vertex_diameter, replayed.omega, replayed.calibration.samples)
                );
                assert_eq!(p.calibration.delta_l, replayed.calibration.delta_l);
                assert_eq!(p.calibration.delta_u, replayed.calibration.delta_u);
            }
        }
    }

    #[test]
    fn calibration_share_splits_evenly() {
        let g = gnm(GnmConfig { n: 20, m: 50, seed: 3 });
        let (lcc, _) = largest_component(&g);
        let n = lcc.num_nodes();
        let cfg = KadabraConfig { calibration_samples: Some(1000), ..Default::default() };
        let mut counts = vec![0u64; n];
        let mut s = ThreadSampler::new(n, 1, 0, 0);
        let taken = calibration_samples_for_thread(&lcc, &mut s, &mut counts, &cfg, 10_000, 4);
        assert_eq!(taken, 250);
    }

    #[test]
    fn scores_normalization() {
        assert_eq!(scores_from_counts(&[2, 0, 4], 8), vec![0.25, 0.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn prepare_rejects_trivial_graph() {
        prepare(&graph_from_edges(1, &[]), &KadabraConfig::default());
    }
}
