//! **Algorithm 1** of the paper: MPI parallelization of adaptive sampling
//! without multithreading.
//!
//! Every MPI rank samples independently; every `n0` samples the ranks
//! snapshot their local state frame, start a *non-blocking* reduction to
//! rank 0, and keep sampling while the reduction progresses. Rank 0 folds
//! the reduced frame into the global state, checks the stopping condition,
//! and broadcasts the termination flag — again non-blocking, again
//! overlapped with sampling on all ranks.
//!
//! The state frame travels as a `u64` vector of length `n + 1`: per-vertex
//! counts plus τ in the last slot, so one reduction moves the entire
//! sampling state exactly as in the paper.
//!
//! The adaptive loop is **crash-fault tolerant** (DESIGN.md §10): under a
//! fault plan with scheduled rank crashes, survivors observe the typed
//! [`CommError::RankFailed`], shrink the communicator, rebuild the global
//! state from their [`SampleLedger`] checkpoints, and continue — the new
//! rank 0 (smallest surviving world rank) takes over the stopping-condition
//! bookkeeping, so the run terminates with the usual (ε, δ) guarantee even
//! if the original root died.

use crate::config::KadabraConfig;
use crate::phases::{
    calibration_samples_for_thread, diameter_phase, fold_and_check, scores_from_counts,
};
use crate::recovery::{shrink_and_rebuild, SampleLedger};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use crate::shared::{phase_timings_from, sampling_stats_from};
use crate::{bounds, calibration::Calibration};
use kadabra_graph::Graph;
use kadabra_mpisim::{CommError, Communicator, Universe};
use kadabra_telemetry::{CounterId, SpanId, Telemetry};

/// Runs Algorithm 1 with `ranks` simulated MPI processes (one sampling
/// thread each). Returns the root's result.
pub fn kadabra_mpi_flat(g: &Graph, cfg: &KadabraConfig, ranks: usize) -> BetweennessResult {
    kadabra_mpi_flat_traced(g, cfg, ranks, &Telemetry::stats_only())
}

/// [`kadabra_mpi_flat`] recording into an explicit [`Telemetry`] registry:
/// per-rank spans and counters, plus collective/p2p markers from the mpisim
/// tracer hooks (and the full event stream in tracing mode).
pub fn kadabra_mpi_flat_traced(
    g: &Graph,
    cfg: &KadabraConfig,
    ranks: usize,
    tel: &Telemetry,
) -> BetweennessResult {
    cfg.validate();
    assert!(ranks >= 1);
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
    let results = Universe::run(ranks, |comm| rank_main(g, cfg, comm, tel));
    results
        .into_iter()
        .find_map(|r| r)
        // xtask: allow(unwrap) — exactly one rank (the final root) returns
        // Some; without crash faults that is rank 0.
        .expect("the surviving root produces the result")
}

/// A setup-phase (diameter/calibration) communicator failure. Crash
/// schedules are constrained to the adaptive phase
/// (`FaultPlan::from_seed_with_crashes` schedules past the setup
/// collectives), so the only recoverable outcome here is this rank's own
/// death; anything else is a misconfigured plan or an algorithm bug.
fn setup_failure(rank: usize, e: CommError) -> Option<()> {
    if e.failed_rank() == Some(rank) {
        return None; // this rank's own scheduled crash
    }
    panic!("rank failure during setup phases (schedule crashes in the adaptive phase): {e}");
}

/// Per-rank body of Algorithm 1. Returns `Some` at the rank that holds the
/// final global state (rank 0, or the recovered root after crashes); `None`
/// at other ranks and at ranks that died.
fn rank_main(
    g: &Graph,
    cfg: &KadabraConfig,
    comm: Communicator,
    tel: &Telemetry,
) -> Option<BetweennessResult> {
    let n = g.num_nodes();
    let my_world = comm.world_rank();
    let ranks = comm.size();
    let w = tel.writer(my_world as u32, 0);
    comm.set_tracer(w.clone());

    // Phase 1: diameter on rank 0, broadcast (the paper computes it with a
    // sequential algorithm; other ranks idle — the Amdahl term of Fig. 2b).
    let sp = w.begin(SpanId::Diameter);
    let vd_bcast = if comm.rank() == 0 {
        let (vd, _) = diameter_phase(g, cfg);
        comm.bcast_u64(0, Some(vd as u64))
    } else {
        comm.bcast_u64(0, None)
    };
    let vd = match vd_bcast {
        Ok(v) => v as u32,
        Err(e) => {
            setup_failure(my_world, e)?;
            unreachable!()
        }
    };
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    // Phase 2: calibration — parallel sampling, blocking aggregation
    // (MPI_Reduce in the paper; we all-reduce so every rank derives the
    // same δ budgets deterministically).
    let sp = w.begin(SpanId::Calibration);
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, 0);
    let mut counts = vec![0u64; n + 1];
    let taken =
        calibration_samples_for_thread(g, &mut sampler, &mut counts[..n], cfg, omega, ranks);
    counts[n] = taken;
    let total = match comm.allreduce_sum_u64(&counts) {
        Ok(t) => t,
        Err(e) => {
            setup_failure(my_world, e)?;
            unreachable!()
        }
    };
    let calibration = Calibration::from_counts(&total[..n], total[n], cfg);
    w.end(sp);

    // Phase 3: Algorithm 1, with shrink-and-continue recovery.
    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let mut comm = comm;
    let mut n0 = cfg.n0(ranks);
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET);
    // S_loc: local state frame; S: aggregated frame at the root (line 1).
    let mut s_loc = vec![0u64; n + 1];
    let mut s_global = vec![0u64; n + 1];
    // Recovery checkpoint: every frame whose reduction this rank observed.
    let mut ledger = SampleLedger::new(n);
    let mut epoch = 0u32;
    let mut dead = false;

    let sample_into = |frame: &mut Vec<u64>, sampler: &mut ThreadSampler| {
        for &v in sampler.sample(g) {
            frame[v as usize] += 1;
        }
        frame[n] += 1;
    };

    loop {
        w.set_epoch(epoch);
        // One reduction round, all failure paths typed.
        let round = (|| -> Result<bool, CommError> {
            // Lines 5-6: n0 local samples, drawn as one batch.
            let sp = w.begin(SpanId::SampleBatch);
            {
                let frame = &mut s_loc;
                sampler.sample_batch(g, n0, |interior| {
                    for &v in interior {
                        frame[v as usize] += 1;
                    }
                    frame[n] += 1;
                });
            }
            w.end(sp);
            // Lines 7-8: snapshot, so overlapped samples don't corrupt the
            // communication buffer.
            let snapshot = std::mem::replace(&mut s_loc, vec![0u64; n + 1]);
            // Lines 10-11: non-blocking reduce, overlapped with sampling.
            let sp = w.begin(SpanId::IreduceWait);
            let mut req = comm.ireduce_sum_u64(0, &snapshot)?;
            let mut overlapped = 0u64;
            while !req.test()? {
                sample_into(&mut s_loc, &mut sampler);
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::BytesReduced, snapshot.len() as u64 * 8);
            // Observed completion: the snapshot is now globally counted —
            // checkpoint it (a failed round never reaches this line, so its
            // in-flight frame is discarded everywhere, never double-counted).
            ledger.confirm(&snapshot);

            // Lines 12-14: the root folds and checks.
            let mut d = 0u64;
            if comm.rank() == 0 {
                // xtask: allow(unwrap) — the request completed (test() was
                // true) and this rank is the reduction root, so both layers
                // are Some.
                let reduced = req.into_result().unwrap().expect("root receives reduction");
                let sp = w.begin(SpanId::Check);
                let stop =
                    fold_and_check(&mut s_global, &reduced, cfg.epsilon, omega, &calibration);
                w.end(sp);
                d = u64::from(stop);
            }
            // Lines 15-17: broadcast the termination flag, overlapped.
            let sp = w.begin(SpanId::BcastStop);
            let mut breq = comm.ibcast_u64(0, (comm.rank() == 0).then_some(d))?;
            while !breq.test()? {
                sample_into(&mut s_loc, &mut sampler);
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::Samples, n0 + overlapped);
            // xtask: allow(unwrap) — test() returned true above.
            Ok(breq.into_result().unwrap() != 0)
        })();

        match round {
            Ok(stop) => {
                w.count(CounterId::Epochs, 1);
                if stop {
                    break;
                }
                epoch += 1;
            }
            Err(CommError::RankFailed { rank }) if rank == my_world => {
                dead = true; // own scheduled crash: this rank leaves the run
                break;
            }
            Err(CommError::RankFailed { .. }) => {
                // A peer died: shrink-and-continue. The rebuilt state is
                // Σ survivor ledgers, identical at every survivor, so the
                // (possibly new) root resumes the stopping condition from a
                // consistent checkpoint.
                match shrink_and_rebuild(&comm, &ledger, &w) {
                    Ok((small, rebuilt)) => {
                        comm = small;
                        s_global = rebuilt;
                        n0 = cfg.n0(comm.size());
                        epoch += 1;
                    }
                    Err(e) if e.failed_rank() == Some(my_world) => {
                        dead = true; // died mid-recovery
                        break;
                    }
                    Err(e) => panic!("unrecoverable communicator failure: {e}"),
                }
            }
            Err(e) => panic!("unrecoverable communicator failure: {e}"),
        }
    }
    w.end(sp_ads);
    if dead {
        return None;
    }

    if comm.rank() == 0 {
        let tau = s_global[n];
        let rec = w.recorder();
        let mut stats = sampling_stats_from(rec);
        stats.samples = tau;
        stats.comm_bytes = comm.bytes_transferred();
        Some(BetweennessResult {
            scores: scores_from_counts(&s_global[..n], tau),
            samples: tau,
            omega,
            vertex_diameter: vd,
            timings: phase_timings_from(rec),
            stats,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::brandes;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::generators::{gnm, grid, GnmConfig, GridConfig};
    use kadabra_mpisim::FaultPlan;

    #[test]
    fn single_rank_reduces_to_sequential_structure() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let r = kadabra_mpi_flat(&g, &KadabraConfig::new(0.1, 0.1), 1);
        assert!(r.samples > 0);
        assert!(r.stats.epochs >= 1);
    }

    #[test]
    fn multi_rank_accuracy() {
        let g = gnm(GnmConfig { n: 50, m: 130, seed: 8 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.04, delta: 0.1, seed: 21, ..Default::default() };
        let r = kadabra_mpi_flat(&lcc, &cfg, 4);
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst}");
    }

    #[test]
    fn samples_exceed_zero_on_all_rank_counts() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        for ranks in [1, 2, 3] {
            let r = kadabra_mpi_flat(&g, &KadabraConfig::new(0.1, 0.1), ranks);
            assert!(r.samples > 0, "ranks={ranks}");
            assert!(r.stats.comm_bytes > 0);
        }
    }

    #[test]
    fn overshoot_is_bounded_by_overlap() {
        // Adaptive sampling may take more samples than strictly needed (the
        // overlapped ones), but the total must stay within a few epochs of ω.
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        let r = kadabra_mpi_flat(&g, &cfg, 2);
        assert!(r.samples <= r.omega + 4 * cfg.n0(2) * 2 + 10_000);
    }

    /// Runs the flat driver under an explicit fault plan (test-only entry:
    /// production runs go through [`kadabra_mpi_flat_traced`], which is
    /// free-running).
    fn flat_with_plan(
        g: &Graph,
        cfg: &KadabraConfig,
        ranks: usize,
        plan: FaultPlan,
    ) -> BetweennessResult {
        let tel = Telemetry::stats_only();
        let results = Universe::run_with_plan(ranks, plan, |comm| rank_main(g, cfg, comm, &tel));
        results.into_iter().find_map(|r| r).expect("a surviving root")
    }

    #[test]
    fn crash_mid_adaptive_recovers_and_stays_within_epsilon() {
        // Kill rank 3 at its 9th collective join (round 3 of the adaptive
        // loop); survivors shrink, rebuild from ledgers, and the result must
        // still satisfy the ε guarantee — bit-reproducibly.
        let g = gnm(GnmConfig { n: 50, m: 130, seed: 8 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 33, ..Default::default() };
        let plan = FaultPlan::ideal(77).with_crash_at_collective(3, 8);
        let r = flat_with_plan(&lcc, &cfg, 4, plan.clone());
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} after crash recovery");
        let again = flat_with_plan(&lcc, &cfg, 4, plan.clone());
        assert_eq!(r.scores, again.scores, "crash run not reproducible: {}", plan.summary());
        assert_eq!(r.samples, again.samples);
    }

    #[test]
    fn root_crash_hands_the_result_to_the_new_root() {
        // Rank 0 (the root!) dies mid-adaptive-phase; rank 1 becomes root of
        // the shrunk communicator, resumes from the rebuilt ledger state,
        // and returns the final result.
        let g = gnm(GnmConfig { n: 40, m: 100, seed: 4 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 9, ..Default::default() };
        let plan = FaultPlan::ideal(13).with_crash_at_collective(0, 3);
        let tel = Telemetry::stats_only();
        let results = Universe::run_with_plan(3, plan, |comm| rank_main(&lcc, &cfg, comm, &tel));
        assert!(results[0].is_none(), "the dead root cannot return a result");
        let survivors: Vec<_> = results.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 1, "exactly one surviving root");
        let r = &survivors[0];
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} after root fail-over");
    }
}
