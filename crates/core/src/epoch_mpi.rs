//! **Algorithm 2** of the paper: the epoch-based MPI parallelization — the
//! full system combining the wait-free epoch framework (within a rank) with
//! non-blocking MPI collectives (across ranks), plus the NUMA-aware
//! hierarchical aggregation of Section IV-E and the `Ibarrier` + blocking
//! `Reduce` strategy of Section IV-F.
//!
//! The paper defines Algorithm 2 as Algorithm 1 with the epoch framework of
//! Ref. \[24\] running inside each process, and so does this crate: its rank
//! body and round loop are Algorithm 1's (`mpi::rank_main`,
//! `mpi::adaptive_rounds`). This module holds the two things Algorithm 2
//! adds to them:
//!
//! * **The hierarchy** (`Hierarchy`, Section IV-E): each compute node
//!   hosts one rank per NUMA socket; a *node-local* communicator aggregates
//!   frames inside the node (shared-memory RMA in the paper), and a
//!   *leader* communicator (the first rank of each node) performs the
//!   global reduction. Epoch ends are never synchronized across ranks, yet
//!   stay within ±1 epoch because the global collective acts as a
//!   non-blocking barrier.
//! * **The workers** (Section IV-B, `worker_main`): a rank of `T > 1`
//!   threads runs `T − 1` of them, sampling wait-free into the framework;
//!   thread 0 is Algorithm 1's rank state. At every snapshot thread 0
//!   commands one epoch transition and adds the workers' frames of the
//!   closed epoch into its own. At `T = 1` there is no framework: the
//!   snapshot is the frame.
//!
//! The body has one schedule choice, taken from what it can observe —
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
//! Recovery is Algorithm 1's (DESIGN.md §10), plus one step: after every
//! shrink the survivors **re-split the hierarchy** over the shrunk world
//! (node identity keyed by original world rank, so surviving ranks stay on
//! their NUMA node). The smallest surviving world rank becomes world rank 0
//! of the shrunk communicator — and, because split keys are world ranks, it
//! is always its node's leader and the leaders' root, so the
//! stopping-condition bookkeeping fails over to it consistently.

use crate::config::{ClusterShape, KadabraConfig};
use crate::mpi::{run_free, Algorithm};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_epoch::EpochFramework;
use kadabra_graph::{KadabraGraph, PathSource};
use kadabra_mpisim::{CommError, Communicator, FaultPlan};
use kadabra_telemetry::Telemetry;

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
    run_free(g, cfg, shape, Algorithm::Two, tel)
}

/// The Section IV-E communicator hierarchy of one rank: the node-local
/// communicator (all ranks of this rank's compute node) and the leader
/// communicator (the first rank of each node; other ranks receive a
/// same-shaped communicator they never use, because `MPI_Comm_split` is
/// collective).
///
/// Node identity and split keys use the **world rank** (the rank in the
/// original `MPI_COMM_WORLD`), so the hierarchy stays NUMA-consistent when
/// rebuilt over a shrunk communicator after crash recovery.
pub(crate) struct Hierarchy {
    ranks_per_node: usize,
    pub(crate) local: Communicator,
    pub(crate) leaders: Communicator,
    /// `[local, leaders]` traffic of the communicators re-splits retired.
    retired: [u64; 2],
}

impl Hierarchy {
    /// Splits `world` into nodes of `ranks_per_node` ranks: two collectives.
    pub(crate) fn split(world: &Communicator, ranks_per_node: usize) -> Result<Self, CommError> {
        let rank = world.world_rank();
        let local = world.split((rank / ranks_per_node) as u32, rank as i64)?;
        let leaders = world.split(u32::from(local.rank() != 0), rank as i64)?;
        Ok(Hierarchy { ranks_per_node, local, leaders, retired: [0; 2] })
    }

    /// Re-splits over the shrunk `world`, keeping the byte totals.
    pub(crate) fn resplit(&mut self, world: &Communicator) -> Result<(), CommError> {
        let mut fresh = Hierarchy::split(world, self.ranks_per_node)?;
        fresh.retired = self.moved();
        *self = fresh;
        Ok(())
    }

    /// `[local, leaders]` bytes over every communicator this rank held.
    fn moved(&self) -> [u64; 2] {
        let [local, leaders] = self.retired;
        [local + self.local.bytes_transferred(), leaders + self.leaders.bytes_transferred()]
    }

    /// This rank's share of the cluster-wide total: node-local engines are
    /// shared per node, so only a final leader reports its node's; the
    /// leader engines are global, so every member reports the same figure.
    pub(crate) fn bytes(&self) -> [u64; 2] {
        let [local, leaders] = self.moved();
        [if self.local.rank() == 0 { local } else { 0 }, leaders]
    }
}

/// Worker thread `t` of rank `my_world` (Algorithm 2, lines 5-9): samples
/// into the epoch framework until termination. Returns the samples drawn.
pub(crate) fn worker_main<G: PathSource>(
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
    // frames the way a de-scheduled thread would. Quotas derive from the
    // launch-time n0; thread 0's own batch rescales after a shrink, which
    // is enough to keep the schedule a pure function of the plan.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Audit, RankOutcome};
    use crate::mpi::rank_main;
    use kadabra_baselines::brandes;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::generators::{gnm, grid, GnmConfig, GridConfig};
    use kadabra_mpisim::{ElasticRank, Universe};
    use kadabra_telemetry::CounterId;

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

    /// Runs the rank body of Algorithm 2 under `plan` with the audit off.
    fn epoch_with_plan(
        g: &kadabra_graph::Graph,
        cfg: &KadabraConfig,
        shape: ClusterShape,
        plan: FaultPlan,
        tel: &Telemetry,
    ) -> Vec<RankOutcome> {
        Universe::run_with_plan(shape.ranks, plan, |comm| {
            let rank = ElasticRank::Founding(comm);
            rank_main(g, cfg, rank, shape, Algorithm::Two, tel, Audit::off())
        })
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
        let outcomes = epoch_with_plan(&lcc, &cfg, shape, plan, &tel);
        assert!(outcomes[3].result.is_none());
        let r =
            outcomes.into_iter().find_map(|o| o.result).expect("surviving root returns the result");
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
        let outcomes = epoch_with_plan(&lcc, &cfg, shape, plan, &tel);
        assert!(outcomes[0].result.is_none(), "the dead root cannot return a result");
        let survivors: Vec<_> = outcomes.into_iter().filter_map(|o| o.result).collect();
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

    /// The in-process analogue of the paper's cross-process epoch bound:
    /// while workers run their sampling loop, every thread's published
    /// epoch (via the framework's observability hooks) must stay within
    /// `[commanded − 1, commanded]` — the two-frames-per-thread guarantee
    /// the Euro-Par'19 framework is built on.
    #[test]
    fn thread_epochs_stay_within_one_of_commanded() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig { seed: 7, ..Default::default() };
        let n = g.num_nodes();
        let threads = 3;
        let fw = EpochFramework::new(n, threads);
        crossbeam::scope(|s| {
            for t in 1..threads {
                let (fw, g, cfg) = (&fw, &g, &cfg);
                s.spawn(move |_| worker_main(g, cfg, fw, 0, t, None, 50));
            }
            let mut sampler = ThreadSampler::new(n, 7, 0, ADS_STREAM_OFFSET);
            let mut h = fw.handle(0);
            let mut acc = vec![0u64; n];
            for epoch in 0..20u32 {
                sampler.sample_batch(&g, 50, |interior| h.record_sample(interior));
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
