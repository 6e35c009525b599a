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
//! `rank_main` is the only rank body of Algorithm 1 in this crate. The
//! plain entry points below run it free (`Universe::run`: no plan, requests
//! poll on real progress, the overlap is the paper's);
//! [`crate::kadabra_mpi_flat_observed`] and
//! [`crate::kadabra_mpi_flat_elastic`] run the same body in a world
//! launched under a [`kadabra_mpisim::FaultPlan`], which the body reads back
//! from its communicator, with the `Audit` switched on.
//!
//! The adaptive loop is **crash-fault tolerant** (DESIGN.md §10): under a
//! fault plan with scheduled rank crashes, survivors observe the typed
//! [`CommError::RankFailed`], shrink the communicator, rebuild the global
//! state from their [`SampleLedger`] checkpoints, and continue — the new
//! rank 0 (smallest surviving world rank) takes over the stopping-condition
//! bookkeeping, so the run terminates with the usual (ε, δ) guarantee even
//! if the original root died. It is **elastic** (DESIGN.md §15) the same
//! way: at a round the plan schedules a join for, every member grows the
//! communicator and rebalances ([`crate::elastic`]).

use crate::chaos::{Audit, RankOutcome};
use crate::config::KadabraConfig;
use crate::elastic::{bootstrap_newcomer, grow_and_rebalance, steal_schedule};
use crate::phases::{fold_and_check, prepare_collective, root_result};
use crate::recovery::{own_crash_or_fatal, shrink_and_rebuild, SampleLedger};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_graph::{Graph, NodeId};
use kadabra_mpisim::{CommError, ElasticRank, Universe};
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
    validate(g, cfg, ranks);
    let outcomes = Universe::run(ranks, |comm| {
        rank_main(g, cfg, ElasticRank::Founding(comm), ranks, tel, Audit::off(), false)
    });
    // xtask: allow(unwrap) — root_outcome selected it for holding Some.
    root_outcome(outcomes).result.expect("root outcome holds the result")
}

/// The argument checks every Algorithm-1 entry point makes.
pub(crate) fn validate(g: &Graph, cfg: &KadabraConfig, ranks: usize) {
    cfg.validate();
    assert!(ranks >= 1);
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
}

/// The outcome of the rank that holds the result, carrying the run-wide
/// total of the per-rank steal counts.
pub(crate) fn root_outcome(outcomes: Vec<RankOutcome>) -> RankOutcome {
    let samples_stolen = outcomes.iter().map(|o| o.seen.samples_stolen).sum();
    let mut root = outcomes
        .into_iter()
        .find(|o| o.result.is_some())
        // xtask: allow(unwrap) — exactly one rank (the final root) returns
        // Some; without crash faults that is rank 0.
        .expect("the surviving root produces the result");
    root.seen.samples_stolen = samples_stolen;
    root
}

/// Counts one sampled path into a state frame: its interior vertices, and
/// τ in the last slot.
#[inline]
pub(crate) fn count_into(frame: &mut [u64], interior: &[NodeId]) {
    for &v in interior {
        frame[v as usize] += 1;
    }
    let n = frame.len() - 1;
    frame[n] += 1;
}

/// Per-rank body of Algorithm 1, for a member of the `founding`-rank
/// launch-time world (collective set-up, then the adaptive loop from round
/// 0) and for a standby of that world (parks until a grow admits it, then
/// enters the loop at the handed-off round). `steal` asks for the straggler
/// quota of the plan's slow ranks to be redistributed (DESIGN.md §15.3);
/// the join schedule and the straggler factors are read from
/// `comm.fault_plan()`, so a world without a plan never grows and never
/// steals.
pub(crate) fn rank_main(
    g: &Graph,
    cfg: &KadabraConfig,
    rank: ElasticRank,
    founding: usize,
    tel: &Telemetry,
    mut audit: Audit<'_>,
    steal: bool,
) -> RankOutcome {
    let n = g.num_nodes();
    let (mut comm, newcomer) = match rank {
        ElasticRank::Founding(comm) => (comm, false),
        // Never admitted (the plan scheduled no join, or the run stopped
        // first): indistinguishable from a dead rank, by design.
        ElasticRank::Standby(standby) => match standby.wait_admission() {
            Ok(comm) => (comm, true),
            Err(_) => return RankOutcome::default(),
        },
    };
    let my_world = comm.world_rank();
    let w = tel.writer(my_world as u32, 0);
    comm.set_tracer(w.clone());

    // Phases 1-2. A newcomer replays them locally and receives the round
    // and the global state from the world that admitted it.
    let setup = if newcomer {
        bootstrap_newcomer(g, cfg, &comm, founding, &w)
    } else {
        prepare_collective(g, cfg, &comm, 1, &w).map(|p| (p, 0, vec![0u64; n + 1]))
    };
    let (prepared, entry_round, mut s_global) = match setup {
        Ok(t) => t,
        Err(e) => {
            own_crash_or_fatal(&e, &comm, cfg, "set-up", 0);
            return RankOutcome::default();
        }
    };

    // Phase 3: Algorithm 1, with shrink-and-continue recovery.
    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let mut n0 = cfg.n0(comm.size());
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET);
    // S_loc: local state frame; s_global: aggregated frame S at the root
    // (line 1).
    let mut s_loc = vec![0u64; n + 1];
    // Recovery checkpoint: every frame whose reduction this rank observed.
    let mut ledger = SampleLedger::new(n);

    let mut round = entry_round;
    // Runs until the stop flag arrives (`None`) or a communicator failure
    // ends this rank's part in the run (where, and the error).
    let failure: Option<(&str, CommError)> = loop {
        w.set_epoch(round);
        audit.begin_round(my_world, round);

        // Joins fire at the *start* of the scheduled round, before its
        // sample batch; every member reads the same plan, so the grow is a
        // collective everyone enters. The grow that admitted a newcomer is
        // already behind it; only later join points concern it.
        let joiners = comm.fault_plan().map_or(0, |p| p.join_at_round(u64::from(round)));
        if joiners > 0 && (!newcomer || round > entry_round) {
            match grow_and_rebalance(&comm, joiners, round, &ledger, &s_global, &mut audit, &w) {
                Ok((grown, rebuilt)) => {
                    comm = grown;
                    s_global = rebuilt;
                    n0 = cfg.n0(comm.size());
                }
                Err(e) => break Some(("grow", e)),
            }
        }
        let steal_round = match comm.fault_plan() {
            Some(plan) if steal => steal_schedule(plan, &comm, n0),
            _ => None,
        };
        let quota = steal_round.as_ref().map_or(n0, |st| st.own_quota(comm.rank(), n0));

        // One reduction round, all failure paths typed.
        let round_result = (|| -> Result<bool, CommError> {
            // Lines 5-6: this rank's quota of local samples, drawn as one
            // batch, then what it draws on the stragglers' behalf.
            let sp = w.begin(SpanId::SampleBatch);
            sampler.sample_batch(g, quota, |interior| count_into(&mut s_loc, interior));
            if let Some(st) = &steal_round {
                audit.seen.samples_stolen += st.handshake(g, cfg, &comm, round, &mut s_loc, &w)?;
            }
            w.end(sp);
            // Lines 7-8: snapshot, so overlapped samples don't corrupt the
            // communication buffer.
            let snapshot = std::mem::replace(&mut s_loc, vec![0u64; n + 1]);
            // Lines 10-11: non-blocking reduce, overlapped with sampling.
            // Under a plan test() returns false a plan-derived number of
            // times, then resolves (or fails — also at a plan-derived poll).
            let sp = w.begin(SpanId::IreduceWait);
            let mut req = comm.ireduce_sum_u64(0, &snapshot)?;
            let mut overlapped = 0u64;
            while !req.test()? {
                count_into(&mut s_loc, sampler.sample(g));
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
                audit.absorb(&reduced);
                let sp = w.begin(SpanId::Check);
                let stop = fold_and_check(
                    &mut s_global,
                    &reduced,
                    cfg.epsilon,
                    prepared.omega,
                    &prepared.calibration,
                );
                w.end(sp);
                d = u64::from(stop);
            }
            audit.conserve(&comm, &snapshot, &ledger, &s_global, round)?;

            // Lines 15-17: broadcast the termination flag, overlapped.
            let sp = w.begin(SpanId::BcastStop);
            let mut breq = comm.ibcast_u64(0, (comm.rank() == 0).then_some(d))?;
            while !breq.test()? {
                count_into(&mut s_loc, sampler.sample(g));
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::Samples, quota + overlapped);
            w.count(CounterId::Epochs, 1);
            // xtask: allow(unwrap) — test() returned true above.
            Ok(breq.into_result().unwrap() != 0)
        })();

        match round_result {
            Ok(stop) => {
                audit.complete_round(my_world, round);
                if stop {
                    break None;
                }
                round += 1;
            }
            // A peer died: shrink-and-continue. The rebuilt state is
            // Σ survivor ledgers, identical at every survivor, so the
            // (possibly new) root resumes the stopping condition from a
            // consistent checkpoint; the failed round's frames are
            // discarded.
            Err(CommError::RankFailed { rank }) if rank != my_world => {
                match shrink_and_rebuild(&comm, &ledger, &w) {
                    Ok((small, rebuilt)) => {
                        audit.membership_changed(comm.members(), small.members(), round);
                        comm = small;
                        s_global = rebuilt;
                        n0 = cfg.n0(comm.size());
                        round += 1;
                    }
                    Err(e) => break Some(("recovery", e)),
                }
            }
            Err(e) => break Some(("a reduction round", e)),
        }
    };
    w.end(sp_ads);
    if let Some((phase, e)) = failure {
        // Its own scheduled crash: this rank leaves the run.
        own_crash_or_fatal(&e, &comm, cfg, phase, round);
        return RankOutcome::default();
    }

    let result = (comm.rank() == 0).then(|| {
        let mut result = root_result(&s_global, &prepared, w.recorder());
        result.stats.comm_bytes = comm.bytes_transferred();
        result
    });
    RankOutcome { result, seen: audit.seen }
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

    /// Runs the rank body under an explicit fault plan with the audit off
    /// (test-only entry: [`kadabra_mpi_flat_traced`] is free-running, the
    /// observed entry points switch the audit on).
    fn flat_with_plan(
        g: &Graph,
        cfg: &KadabraConfig,
        ranks: usize,
        plan: FaultPlan,
    ) -> BetweennessResult {
        let tel = Telemetry::stats_only();
        let outcomes = Universe::run_with_plan(ranks, plan, |comm| {
            rank_main(g, cfg, ElasticRank::Founding(comm), ranks, &tel, Audit::off(), false)
        });
        outcomes.into_iter().find_map(|o| o.result).expect("a surviving root")
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
        let outcomes = Universe::run_with_plan(3, plan, |comm| {
            rank_main(&lcc, &cfg, ElasticRank::Founding(comm), 3, &tel, Audit::off(), false)
        });
        assert!(outcomes[0].result.is_none(), "the dead root cannot return a result");
        let survivors: Vec<_> = outcomes.into_iter().filter_map(|o| o.result).collect();
        assert_eq!(survivors.len(), 1, "exactly one surviving root");
        let r = &survivors[0];
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} after root fail-over");
    }
}
