//! **Algorithm 2** of the paper: the epoch-based MPI parallelization — the
//! full system combining the wait-free epoch framework (within a rank) with
//! non-blocking MPI collectives (across ranks), plus the NUMA-aware
//! hierarchical aggregation of Section IV-E and the `Ibarrier` + blocking
//! `Reduce` strategy of Section IV-F.
//!
//! Topology (paper Section IV-E): each compute node hosts one rank per NUMA
//! socket; a *node-local* communicator aggregates frames inside the node
//! (shared-memory RMA in the paper), and a *leader* communicator (the first
//! rank of each node) performs the global reduction. Epoch ends are never
//! synchronized across ranks, yet stay within ±1 epoch because the global
//! collective acts as a non-blocking barrier.
//!
//! `rank_main` is the only rank body of Algorithm 2 in this crate, and it
//! has one schedule choice, taken from what it can observe —
//! `world.fault_plan()`:
//!
//! * **no plan** (the plain entry points below, `Universe::run`): workers
//!   free-run and thread 0 samples through every wait. This is the paper's
//!   algorithm and the path the benchmark measures; how many samples land
//!   in an epoch is up to the OS scheduler.
//! * **a plan** ([`crate::kadabra_epoch_mpi_observed`]): each worker takes
//!   an exact plan-derived quota per epoch and then spin-waits for the
//!   transition command, and thread 0 overlaps each transition wait with a
//!   plan-derived sample count. The content of every aggregated frame is
//!   then a pure function of `(plan, seed)` — the deterministic reference
//!   the chaos, determinism-matrix and golden tests compare against.
//!
//! Like the flat driver, the adaptive loop is **crash-fault tolerant**
//! (DESIGN.md §10): when a collective fails with
//! [`kadabra_mpisim::CommError::RankFailed`], thread 0 of every survivor
//! shrinks the world, rebuilds the global state from the survivors'
//! [`SampleLedger`]s, **re-splits the Section IV-E hierarchy** over the
//! shrunk world (node identity keyed by original world rank, so surviving
//! ranks stay on their NUMA node), re-derives `n0` for the smaller world,
//! and continues. The smallest surviving world rank becomes world rank 0 of
//! the shrunk communicator — and, because split keys are world ranks, it is
//! always its node's leader and the leaders' root, so the stopping-condition
//! bookkeeping fails over to it consistently.

use crate::chaos::{Audit, RankOutcome};
use crate::config::{ClusterShape, KadabraConfig};
use crate::phases::{fold_and_check, prepare_collective, root_result};
use crate::recovery::{own_crash_or_fatal, shrink_and_rebuild, SampleLedger};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_epoch::EpochFramework;
use kadabra_graph::{KadabraGraph, PathSource};
use kadabra_mpisim::{CommError, Communicator, FaultPlan, Universe};
use kadabra_telemetry::{CounterId, SpanId, Telemetry};

/// Per-rank outcome, used by the entry points to assemble global
/// statistics. The default is that of a rank whose scheduled crash fired:
/// no result, no byte accounting (its communicators' traffic is reported by
/// the survivors that shared the engines).
#[derive(Default)]
pub(crate) struct EpochOutcome {
    rank: RankOutcome,
    is_leader: bool,
    local_bytes: u64,
    leader_bytes: u64,
    world_bytes: u64,
}

/// Runs Algorithm 2 on a simulated cluster of the given shape. Returns the
/// root's result with cluster-wide communication statistics attached.
pub fn kadabra_epoch_mpi<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    shape: ClusterShape,
) -> BetweennessResult {
    kadabra_epoch_mpi_traced(g, cfg, shape, &Telemetry::stats_only())
}

/// [`kadabra_epoch_mpi`] recording into an explicit [`Telemetry`] registry:
/// per-`(rank, thread)` spans and counters, plus collective/p2p markers from
/// the mpisim tracer hooks (and the full event stream in tracing mode).
pub fn kadabra_epoch_mpi_traced<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    tel: &Telemetry,
) -> BetweennessResult {
    validate(g, cfg, shape);
    let outcomes =
        Universe::run(shape.ranks, |comm| rank_main(g, cfg, shape, comm, tel, Audit::off()));
    // xtask: allow(unwrap) — root_outcome selected it for holding Some.
    root_outcome(outcomes).result.expect("root outcome holds the result")
}

/// The argument checks every Algorithm-2 entry point makes.
pub(crate) fn validate<G: PathSource>(g: &G, cfg: &KadabraConfig, shape: ClusterShape) {
    cfg.validate();
    shape.validate();
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
}

/// The outcome of the rank that holds the result, with the cluster-wide
/// communication total attached: node-local engines are shared per node
/// (count each once, via its final leader), the leader and world engines
/// are global — every member of a shared engine reports the same cumulative
/// figure, so the maximum across outcomes is that engine's total even when
/// some ranks died.
pub(crate) fn root_outcome(outcomes: Vec<EpochOutcome>) -> RankOutcome {
    let local_total: u64 = outcomes.iter().filter(|o| o.is_leader).map(|o| o.local_bytes).sum();
    let leader_total = outcomes.iter().map(|o| o.leader_bytes).fold(0, u64::max);
    let world_total = outcomes.iter().map(|o| o.world_bytes).fold(0, u64::max);
    let mut root = outcomes
        .into_iter()
        .map(|o| o.rank)
        .find(|o| o.result.is_some())
        // xtask: allow(unwrap) — exactly one rank (the final root) returns
        // Some; without crash faults that is rank 0.
        .expect("the surviving root produces the result");
    if let Some(r) = root.result.as_mut() {
        r.stats.comm_bytes = local_total + leader_total + world_total;
    }
    root
}

/// Builds the Section IV-E communicator hierarchy for one rank: the
/// node-local communicator (all ranks of this rank's compute node) and the
/// leader communicator (the first rank of each node; other ranks receive a
/// same-shaped communicator they never use, because `MPI_Comm_split` is
/// collective). Returns `(local, is_leader, leaders)`.
///
/// Node identity and split keys use the **world rank** (the rank in the
/// original `MPI_COMM_WORLD`), so the hierarchy stays NUMA-consistent when
/// rebuilt over a shrunk communicator after crash recovery.
fn hierarchical_comms(
    world: &Communicator,
    shape: ClusterShape,
) -> Result<(Communicator, bool, Communicator), CommError> {
    let rank = world.world_rank();
    let node_id = (rank / shape.ranks_per_node) as u32;
    let local = world.split(node_id, rank as i64)?;
    let is_leader = local.rank() == 0;
    let leaders = world.split(u32::from(!is_leader), rank as i64)?;
    Ok((local, is_leader, leaders))
}

/// Worker thread `t` of rank `my_world` (Algorithm 2, lines 5-9): samples
/// into the epoch framework until termination. Returns the samples drawn.
fn worker_main<G: PathSource>(
    g: &G,
    cfg: &KadabraConfig,
    fw: &EpochFramework,
    my_world: usize,
    t: usize,
    plan: Option<&FaultPlan>,
    launch_n0: u64,
) -> u64 {
    let mut sampler = ThreadSampler::new(g.num_nodes(), cfg.seed, my_world, ADS_STREAM_OFFSET + t);
    let mut h = fw.handle(t);
    let mut drawn = 0u64;
    let Some(plan) = plan else {
        // Small batches amortize pair drawing while still polling the epoch
        // command often enough to stay within the framework's one-epoch lag
        // bound.
        const WORKER_CHUNK: u64 = 8;
        while !fw.should_terminate() {
            sampler.sample_batch(g, WORKER_CHUNK, |interior| h.record_sample(interior));
            drawn += WORKER_CHUNK;
            fw.check_transition(&mut h);
        }
        return drawn;
    };
    // Under a plan: an exact quota for the current epoch, then spin until
    // the transition command. The quota includes the plan's "slow thread"
    // knob: a slow thread contributes fewer samples per epoch, skewing
    // frames the way a de-scheduled thread would.
    let mut epoch = 0u32;
    loop {
        let quota = plan.worker_quota(my_world, t, epoch, launch_n0);
        sampler.sample_batch(g, quota, |interior| h.record_sample(interior));
        drawn += quota;
        while !fw.check_transition(&mut h) {
            if fw.should_terminate() {
                return drawn;
            }
            std::hint::spin_loop();
        }
        epoch += 1;
    }
}

/// Per-rank body of Algorithm 2.
pub(crate) fn rank_main<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    mut world: Communicator,
    tel: &Telemetry,
    mut audit: Audit<'_>,
) -> EpochOutcome {
    let n = g.num_nodes();
    let my_world = world.world_rank();
    let threads = shape.threads_per_rank;
    let w = tel.writer(my_world as u32, 0);
    // Attach before splitting so the derived communicators inherit it.
    world.set_tracer(w.clone());

    // Section IV-E communicators (node-local + leaders), then phases 1-2.
    let setup = hierarchical_comms(&world, shape)
        .and_then(|comms| Ok((comms, prepare_collective(g, cfg, &world, threads, &w)?)));
    let ((mut local, mut is_leader, mut leaders), prepared) = match setup {
        Ok(t) => t,
        Err(e) => {
            own_crash_or_fatal(&e, &world, cfg, "set-up", 0);
            return EpochOutcome::default();
        }
    };

    // Phase 3: Algorithm 2, with shrink-and-continue recovery driven by
    // thread 0 (the only thread that communicates).
    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let fw = EpochFramework::new(n, threads);
    // The schedule choice (module docs). Cloned because the workers read it
    // for the whole phase while recovery replaces `world`.
    let plan = world.fault_plan().cloned();
    let plan = plan.as_ref();
    let mut n0 = cfg.n0(shape.total_threads());
    // Worker quotas are derived from the launch-time n0; thread 0's own
    // batch rescales after a shrink, which is enough to keep the schedule a
    // pure function of the plan.
    let quota_n0 = n0;
    let mut s_global = vec![0u64; n + 1]; // aggregated frame at the root
    let mut ledger = SampleLedger::new(n);
    // Superseded communicators' traffic, accumulated across recoveries
    // (the world engine carries its byte counter through shrink itself).
    let mut local_bytes_acc = 0u64;
    let mut leader_bytes_acc = 0u64;
    let mut epoch = 0u32;

    // Runs until the stop flag arrives (`None`) or a communicator failure
    // ends this rank's part in the run (where, and the error).
    let failure: Option<(&str, CommError)> = crossbeam::scope(|s| {
        // Worker threads t = 1..T (Algorithm 2, lines 5-9).
        for t in 1..threads {
            let fw = &fw;
            let tw = tel.writer(my_world as u32, t as u32);
            s.spawn(move |_| {
                let drawn = worker_main(g, cfg, fw, my_world, t, plan, quota_n0);
                // One flush at exit keeps the hot loop free of stores.
                tw.count(CounterId::Samples, drawn);
            });
        }

        // Thread 0 (Algorithm 2, lines 10-31).
        let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET);
        let mut h = fw.handle(0);
        let failure = loop {
            w.set_epoch(epoch);
            audit.begin_round(my_world, epoch);
            // One epoch round; every communicator failure is typed.
            let round = (|| -> Result<bool, CommError> {
                // Lines 12-13: n0 samples into the current epoch, one batch.
                let sp = w.begin(SpanId::SampleBatch);
                sampler.sample_batch(g, n0, |interior| h.record_sample(interior));
                w.end(sp);
                let mut overlapped = 0u64;
                // Lines 14-15: command and await the epoch transition,
                // overlapping with sampling into the next epoch's frame.
                fw.force_transition(&mut h, epoch);
                let sp = w.begin(SpanId::TransitionWait);
                match plan {
                    None => {
                        while !fw.transition_done(epoch) {
                            let interior = sampler.sample(g);
                            h.record_sample(interior);
                            overlapped += 1;
                        }
                    }
                    // The framework has no Request to meter polls on, so
                    // the plan supplies the overlap sample count directly;
                    // the residual wait samples nothing.
                    Some(plan) => {
                        let planned = plan.transition_overlap(my_world, epoch);
                        sampler.sample_batch(g, planned, |interior| h.record_sample(interior));
                        overlapped += planned;
                        while !fw.transition_done(epoch) {
                            std::hint::spin_loop();
                        }
                    }
                }
                w.end(sp);

                // Lines 16-18: aggregate the epoch's frames locally.
                let sp = w.begin(SpanId::FrameAggregate);
                let mut epoch_frame = vec![0u64; n + 1];
                let tau_epoch = fw.aggregate_epoch(epoch, &mut epoch_frame[..n]);
                epoch_frame[n] = tau_epoch;
                w.end(sp);
                w.count(CounterId::BytesReduced, epoch_frame.len() as u64 * 8);

                // Section IV-E: node-local aggregation (the paper uses MPI
                // RMA over shared memory; semantically a node-local reduce),
                // overlapped with sampling.
                let sp = w.begin(SpanId::IreduceWait);
                let mut req = local.ireduce_sum_u64(0, &epoch_frame)?;
                while !req.test()? {
                    let interior = sampler.sample(g);
                    h.record_sample(interior);
                    overlapped += 1;
                }
                w.end(sp);
                // The node reduce completed: this rank's epoch frame is now
                // part of a globally-consistent prefix — checkpoint it. A
                // round that fails earlier never confirms, so its in-flight
                // frame is discarded at every rank, never double-counted.
                ledger.confirm(&epoch_frame);
                // xtask: allow(unwrap) — test() returned true, so the
                // request completed and its result is present.
                let node_frame = req.into_result().unwrap();

                // Section IV-F: leaders run Ibarrier (overlapped), then a
                // blocking Reduce — the strategy that outperformed
                // MPI_Ireduce.
                let mut d = 0u64;
                if is_leader {
                    let sp = w.begin(SpanId::IbarrierWait);
                    let mut bar = leaders.ibarrier()?;
                    while !bar.test()? {
                        let interior = sampler.sample(g);
                        h.record_sample(interior);
                        overlapped += 1;
                    }
                    w.end(sp);

                    let sp = w.begin(SpanId::Reduce);
                    // xtask: allow(unwrap) — this rank is its node's local
                    // root, so the local reduce delivered Some to it.
                    let frame = node_frame.expect("leader holds node frame");
                    let reduced = leaders.reduce_sum_u64(0, &frame)?;
                    w.end(sp);
                    w.count(CounterId::BytesReduced, frame.len() as u64 * 8);

                    // Lines 22-24: the root folds and checks.
                    if world.rank() == 0 {
                        // xtask: allow(unwrap) — the root is the leader
                        // root, so the reduction delivered Some to it.
                        let reduced = reduced.expect("leader root receives reduction");
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
                }
                // Conservation across the two-level reduction.
                audit.conserve(&world, &epoch_frame, &ledger, &s_global, epoch)?;

                // Lines 25-27: broadcast the termination flag world-wide,
                // overlapped with sampling.
                let sp = w.begin(SpanId::BcastStop);
                let mut breq = world.ibcast_u64(0, (world.rank() == 0).then_some(d))?;
                while !breq.test()? {
                    let interior = sampler.sample(g);
                    h.record_sample(interior);
                    overlapped += 1;
                }
                w.end(sp);
                w.count(CounterId::Samples, n0 + overlapped);
                w.count(CounterId::Epochs, 1);
                // xtask: allow(unwrap) — test() returned true above.
                Ok(breq.into_result().unwrap() != 0)
            })();

            match round {
                // Lines 28-30.
                Ok(stop) => {
                    audit.complete_round(my_world, epoch);
                    if stop {
                        break None;
                    }
                    epoch += 1;
                }
                // A peer died (or entered recovery): shrink the world,
                // rebuild the global state from survivor ledgers, and
                // re-split the hierarchy. Loop because further members can
                // die while recovery itself is in flight.
                Err(CommError::RankFailed { rank }) if rank != my_world => {
                    let prev_members = world.members().to_vec();
                    let recovery = loop {
                        let recovered = (|| -> Result<(), CommError> {
                            let (new_world, rebuilt) = shrink_and_rebuild(&world, &ledger, &w)?;
                            local_bytes_acc += local.bytes_transferred();
                            leader_bytes_acc += leaders.bytes_transferred();
                            world = new_world;
                            s_global = rebuilt;
                            let (l, il, ld) = hierarchical_comms(&world, shape)?;
                            local = l;
                            is_leader = il;
                            leaders = ld;
                            n0 = cfg.n0(threads * world.size());
                            Ok(())
                        })();
                        match recovered {
                            Err(CommError::RankFailed { rank }) if rank != my_world => continue,
                            done => break done,
                        }
                    };
                    match recovery {
                        Ok(()) => {
                            audit.membership_changed(&prev_members, world.members(), epoch);
                            epoch += 1; // the failed round is discarded
                        }
                        Err(e) => break Some(("recovery", e)),
                    }
                }
                Err(e) => break Some(("an epoch round", e)),
            }
        };
        fw.signal_termination();
        failure
    })
    // xtask: allow(unwrap) — children are joined above; see worker waiver.
    .expect("adaptive sampling scope");
    w.end(sp_ads);
    if let Some((phase, e)) = failure {
        // Its own scheduled crash: this rank leaves the run.
        own_crash_or_fatal(&e, &world, cfg, phase, epoch);
        return EpochOutcome::default();
    }

    let result = (world.rank() == 0).then(|| root_result(&s_global, &prepared, w.recorder()));
    EpochOutcome {
        rank: RankOutcome { result, seen: audit.seen },
        is_leader,
        local_bytes: local_bytes_acc + local.bytes_transferred(),
        leader_bytes: leader_bytes_acc + leaders.bytes_transferred(),
        world_bytes: world.bytes_transferred(),
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
    fn minimal_cluster_terminates() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let shape = ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: 1 };
        let r = kadabra_epoch_mpi(&g, &KadabraConfig::new(0.1, 0.1), shape);
        assert!(r.samples > 0);
        assert!(r.stats.epochs >= 1);
    }

    #[test]
    fn hierarchical_cluster_accuracy() {
        let g = gnm(GnmConfig { n: 50, m: 130, seed: 12 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.04, delta: 0.1, seed: 31, ..Default::default() };
        // 4 ranks over 2 nodes, 2 threads each: exercises every communicator.
        let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
        let r = kadabra_epoch_mpi(&lcc, &cfg, shape);
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst}");
    }

    #[test]
    fn various_shapes_terminate() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.1, 0.1);
        for shape in [
            ClusterShape { ranks: 2, ranks_per_node: 1, threads_per_rank: 1 },
            ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 },
            ClusterShape { ranks: 3, ranks_per_node: 2, threads_per_rank: 1 },
        ] {
            let r = kadabra_epoch_mpi(&g, &cfg, shape);
            assert!(r.samples > 0, "{shape:?}");
            assert!(r.stats.comm_bytes > 0, "{shape:?}");
        }
    }

    #[test]
    fn scores_are_probabilities() {
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
        let r = kadabra_epoch_mpi(&g, &KadabraConfig::new(0.08, 0.1), shape);
        for s in &r.scores {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn crash_mid_adaptive_shrinks_resplits_and_stays_within_epsilon() {
        // Rank 3 (a non-leader on node 1) dies at its 5th collective join —
        // its first node-local reduce of the adaptive phase. Its node leader
        // fails the local reduce and starts recovery; the other node's ranks
        // observe the recovery through the leaders/world collectives; all
        // survivors shrink, re-split (node 1 keeps rank 2, now alone and
        // leader), and finish within ε.
        let g = gnm(GnmConfig { n: 50, m: 130, seed: 12 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 31, ..Default::default() };
        let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
        let plan = FaultPlan::ideal(7).with_crash_at_collective(3, 4);
        let tel = Telemetry::stats_only();
        let outcomes = Universe::run_with_plan(4, plan, |comm| {
            rank_main(&lcc, &cfg, shape, comm, &tel, Audit::off())
        });
        assert!(outcomes[3].rank.result.is_none());
        let r = outcomes
            .into_iter()
            .find_map(|o| o.rank.result)
            .expect("surviving root returns the result");
        let exact = brandes(&lcc);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} after crash recovery");
        assert_eq!(
            tel.summary().counter(CounterId::RanksLost),
            3,
            "three survivors each saw one loss"
        );
    }

    #[test]
    fn root_crash_fails_over_to_the_next_leader() {
        // World rank 0 — the leaders' root — dies mid-adaptive-phase; rank 1
        // becomes its node's leader and the new world root, resumes from the
        // rebuilt ledger state, and returns the final result.
        let g = gnm(GnmConfig { n: 40, m: 100, seed: 4 });
        let (lcc, _) = largest_component(&g);
        let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 9, ..Default::default() };
        let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 1 };
        let plan = FaultPlan::ideal(3).with_crash_at_collective(0, 10);
        let tel = Telemetry::stats_only();
        let outcomes = Universe::run_with_plan(4, plan, |comm| {
            rank_main(&lcc, &cfg, shape, comm, &tel, Audit::off())
        });
        assert!(outcomes[0].rank.result.is_none(), "the dead root cannot return a result");
        let survivors: Vec<_> = outcomes.into_iter().filter_map(|o| o.rank.result).collect();
        assert_eq!(survivors.len(), 1, "exactly one surviving root");
        let exact = brandes(&lcc);
        let worst = survivors[0]
            .scores
            .iter()
            .zip(&exact)
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} after root fail-over");
    }
}
