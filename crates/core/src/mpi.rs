//! **Algorithm 1** of the paper — MPI parallelization of adaptive sampling
//! without multithreading — and the one rank body both of the paper's
//! algorithms run.
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
//! `adaptive_rounds` is the only round loop in the workspace, generic over
//! what a stream does with the samples it draws ([`SampleSink`]). Algorithm
//! 2 ([`crate::epoch_mpi`]) is this loop with the epoch framework's workers
//! beside thread 0 and a hierarchical reduction path, and the shared-memory
//! driver ([`crate::shared`]) is Algorithm 2 at P = 1. `rank_main` runs the
//! loop to the adaptive stop after the collective set-up, for every entry
//! point of both algorithms: the plain ones free (`Universe::run`: no plan,
//! requests poll on real progress, the overlap is the paper's), the
//! observed and elastic ones ([`crate::chaos`], [`crate::elastic`]) in a
//! world launched under a [`kadabra_mpisim::FaultPlan`], which the body
//! reads back from its communicator, with the `Audit` switched on. The
//! resident pools ([`crate::pool`]) run the loop a fixed number of rounds at
//! a time on rank state they park in between, stopping inside a round only
//! at the sample cap.
//!
//! The adaptive loop is **crash-fault tolerant** (DESIGN.md §10): under a
//! fault plan with scheduled rank crashes, survivors observe the typed
//! [`CommError::RankFailed`], shrink the communicator, rebuild the global
//! state from their [`SampleLedger`] checkpoints, and continue — the new
//! rank 0 (smallest surviving world rank) takes over the stopping-condition
//! bookkeeping, so the run terminates with the usual (ε, δ) guarantee even
//! if the original root died. An Algorithm-1 world is **elastic** (DESIGN.md
//! §15) the same way: at a round the plan schedules a join for, every member
//! grows the communicator and rebalances ([`crate::elastic`]).

use crate::chaos::{Audit, RankOutcome};
use crate::config::{ClusterShape, KadabraConfig};
use crate::elastic::{bootstrap_newcomer, grow_and_rebalance, steal_schedule};
use crate::epoch_mpi::{worker_main, Hierarchy};
use crate::phases::{fold_and_check, prepare_collective, root_result};
use crate::recovery::{own_crash_or_fatal, shrink_and_rebuild, SampleLedger};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_epoch::EpochFramework;
use kadabra_graph::{KadabraGraph, NodeId, PathSource};
use kadabra_mpisim::{CommError, Communicator, ElasticRank, Universe};
use kadabra_telemetry::{CounterId, EventWriter, SpanId, Telemetry};
use std::ops::Range;

/// Runs Algorithm 1 with `ranks` simulated MPI processes (one sampling
/// thread each). Returns the root's result.
pub fn kadabra_mpi_flat<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    ranks: usize,
) -> BetweennessResult {
    kadabra_mpi_flat_traced(g, cfg, ranks, &Telemetry::stats_only())
}

/// [`kadabra_mpi_flat`] recording into an explicit [`Telemetry`] registry:
/// per-rank spans and counters, plus collective/p2p markers from the mpisim
/// tracer hooks (and the full event stream in tracing mode).
pub fn kadabra_mpi_flat_traced<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    ranks: usize,
    tel: &Telemetry,
) -> BetweennessResult {
    run_free(g, cfg, ClusterShape::flat(ranks), Algorithm::One { steal: false }, tel)
}

/// Runs the rank body free — no plan, the audit off — in a world of
/// `shape`, and returns the root's result.
pub(crate) fn run_free<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    algorithm: Algorithm,
    tel: &Telemetry,
) -> BetweennessResult {
    validate(g, cfg, shape);
    let outcomes = Universe::run(shape.ranks, |comm| {
        rank_main(g, cfg, ElasticRank::Founding(comm), shape, algorithm, tel, Audit::off())
    });
    #[expect(clippy::expect_used, reason = "root_outcome selected it for holding Some")]
    let result = root_outcome(outcomes).result.expect("root outcome holds the result");
    result
}

/// The argument checks every entry point of Algorithms 1 and 2 makes.
pub(crate) fn validate<G: PathSource>(g: &G, cfg: &KadabraConfig, shape: ClusterShape) {
    cfg.validate();
    shape.validate();
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
}

/// The outcome of the rank that holds the result, carrying the run-wide
/// totals: the per-rank steal counts, and what every communicator moved.
/// Node-local engines are shared per node, so their final leaders' figures
/// add up; the leader and world engines are global, and every member of a
/// shared engine reports the same cumulative figure, so the maximum across
/// outcomes is that engine's total even when some ranks died.
pub(crate) fn root_outcome(outcomes: Vec<RankOutcome>) -> RankOutcome {
    let samples_stolen = outcomes.iter().map(|o| o.seen.samples_stolen).sum();
    let engine = |i: usize| outcomes.iter().map(|o| o.bytes[i]).fold(0, u64::max);
    let comm_bytes = outcomes.iter().map(|o| o.bytes[0]).sum::<u64>() + engine(1) + engine(2);
    #[expect(
        clippy::expect_used,
        reason = "exactly one rank (the final root) returns Some; without crash faults that is \
                  rank 0"
    )]
    let mut root = outcomes
        .into_iter()
        .find(|o| o.result.is_some())
        .expect("the surviving root produces the result");
    root.seen.samples_stolen = samples_stolen;
    if let Some(r) = root.result.as_mut() {
        r.stats.comm_bytes = comm_bytes;
        // Re-home the scores on the caller's thread. The root's rank thread
        // allocated them in its own allocator arena (glibc keeps one per
        // thread), which can give back memory only above its highest live
        // block: a kept result would hold the run's freed buffers below it
        // resident (+0.4 MiB per kept result on the `rmat-epoch` input).
        r.scores = r.scores.to_vec();
    }
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

/// What a sampling stream does with a drawn sample besides counting it
/// into the rank's frame. Algorithm 1 confirms samples a snapshot at a
/// time: a stream's records are, oldest first, the confirmed ones, the ones
/// of the snapshot in flight, and the ones drawn since (the overlap).
///
/// Two implementors: `()` keeps nothing (the MPI drivers, static tenants);
/// the dynamic crate's `PathStore` retains every record so an edge batch
/// can re-validate it.
pub trait SampleSink {
    /// One drawn sample: endpoints, shortest distance (`u32::MAX` for a
    /// disconnected pair), interior.
    fn record(&mut self, s: NodeId, t: NodeId, dist: u32, interior: &[NodeId]);
    /// Everything recorded since the last snapshot goes into the reduction
    /// that starts now.
    fn snapshot(&mut self);
    /// That reduction was observed complete: its samples are confirmed.
    fn confirm(&mut self);
    /// That reduction failed: its samples were counted nowhere and are
    /// forgotten. The overlap stays — it is still in the rank's local frame.
    fn discard(&mut self);
}

impl SampleSink for () {
    #[inline]
    fn record(&mut self, _: NodeId, _: NodeId, _: u32, _: &[NodeId]) {}
    fn snapshot(&mut self) {}
    fn confirm(&mut self) {}
    fn discard(&mut self) {}
}

/// One sequential sampling stream of a rank.
pub struct Stream<S> {
    /// The adaptive RNG stream and its traversal scratch.
    pub sampler: ThreadSampler,
    /// What the stream retains of its samples.
    pub sink: S,
}

/// The sampling state one rank carries through Algorithm 1 — and, in a
/// resident pool, from one launch of the world to the next, so no sample is
/// ever replayed.
pub struct RankState<S> {
    /// Stable identity: sampler stream coordinate and telemetry rank (the
    /// world rank in a flat run, the slot id in a pool).
    pub id: usize,
    /// The rank's streams. A round's quota is split over all of them, the
    /// overlap is drawn from the first.
    pub streams: Vec<Stream<S>>,
    /// Every frame whose reduction this rank observed — the recovery and
    /// checkpoint source of truth.
    pub ledger: SampleLedger,
    /// S_loc: samples drawn but not yet globally confirmed (one frame,
    /// shared by the rank's streams).
    pub s_loc: Vec<u64>,
}

impl<S> RankState<S> {
    /// Fresh state for rank `id` on an `n`-vertex graph: one stream per
    /// sink, at thread coordinates `first_stream..` of `(seed, id)`.
    pub fn new(
        n: usize,
        seed: u64,
        id: usize,
        first_stream: usize,
        sinks: impl IntoIterator<Item = S>,
    ) -> Self {
        let streams = sinks
            .into_iter()
            .enumerate()
            .map(|(t, sink)| Stream {
                sampler: ThreadSampler::new(n, seed, id, first_stream + t),
                sink,
            })
            .collect();
        Self::with_streams(n, id, streams, SampleLedger::new(n))
    }

    /// State for rank `id` around streams built elsewhere: `ledger`, and an
    /// empty local frame for an `n`-vertex graph.
    pub(crate) fn with_streams(
        n: usize,
        id: usize,
        streams: Vec<Stream<S>>,
        ledger: SampleLedger,
    ) -> Self {
        RankState { id, streams, ledger, s_loc: vec![0u64; n + 1] }
    }
}

/// Draws `k` samples from `stream` into the local frame and the sink, as
/// one batch.
fn draw<G: PathSource, S: SampleSink>(g: &G, stream: &mut Stream<S>, k: u64, s_loc: &mut [u64]) {
    let Stream { sampler, sink } = stream;
    sampler.sample_batch_records(g, k, |s, t, dist, interior| {
        count_into(s_loc, interior);
        sink.record(s, t, dist, interior);
    });
}

/// Thread 0's overlap of a wait: one sample at a time from `stream` into
/// `s_loc` until `done`. Returns the samples drawn.
fn overlap<G: PathSource, S: SampleSink>(
    g: &G,
    stream: &mut Stream<S>,
    s_loc: &mut [u64],
    mut done: impl FnMut() -> Result<bool, CommError>,
) -> Result<u64, CommError> {
    let mut drawn = 0u64;
    while !done()? {
        draw(g, stream, 1, s_loc);
        drawn += 1;
    }
    Ok(drawn)
}

/// Stream `t`'s share of a rank's round quota (earlier streams take the
/// remainder — deterministic).
fn stream_share(quota: u64, streams: usize, t: usize) -> u64 {
    quota / streams as u64 + u64::from((t as u64) < quota % streams as u64)
}

/// Which of the paper's algorithms a world runs; its entry point picks it.
/// Both run this module's body. They differ in the reduction path (flat, or
/// the Section IV-E/F hierarchy), and only Algorithm 1 worlds grow and
/// steal (DESIGN.md §15).
#[derive(Clone, Copy)]
pub(crate) enum Algorithm {
    /// Flat world reductions; `steal` redistributes the straggler quota of
    /// the plan's slow ranks (DESIGN.md §15.3).
    One { steal: bool },
    /// The Section IV-E/F hierarchy.
    Two,
}

/// Which of its plan's membership and load schedules a world honours.
#[derive(Clone, Copy)]
pub(crate) struct Elastic {
    /// First round whose scheduled joins grow the communicator; `None` for
    /// a world launched without standbys.
    pub(crate) grow_from: Option<u32>,
    /// Redistribute the quota of the plan's slow ranks (DESIGN.md §15.3).
    pub(crate) steal: bool,
}

impl Elastic {
    /// A world of fixed membership whose ranks each draw their own quota.
    pub(crate) const OFF: Elastic = Elastic { grow_from: None, steal: false };
}

/// The communicators a rank reduces over.
pub(crate) struct Comms {
    /// The world: set-up, the stop flag, the audit and recovery run on it.
    pub(crate) world: Communicator,
    /// Algorithm 2's node-local and leader communicators; `None` reduces
    /// flat over the world (Algorithm 1, the resident pools).
    pub(crate) hierarchy: Option<Hierarchy>,
}

impl Comms {
    /// `[node-local, leaders, world]` bytes, as [`root_outcome`] sums them.
    fn bytes(&self) -> [u64; 3] {
        let [node, leaders] = self.hierarchy.as_ref().map_or([0; 2], Hierarchy::bytes);
        [node, leaders, self.world.bytes_transferred()]
    }
}

/// Per-rank body of Algorithms 1 and 2, for a member of the
/// `shape.ranks`-rank launch-time world (collective set-up, then the
/// adaptive loop from round 0) and for a standby of that world (parks until
/// a grow admits it, then enters the loop at the handed-off round). The join
/// schedule and the straggler factors are read from `comm.fault_plan()`, so
/// a world without a plan never grows and never steals.
pub(crate) fn rank_main<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    rank: ElasticRank,
    shape: ClusterShape,
    algorithm: Algorithm,
    tel: &Telemetry,
    mut audit: Audit<'_>,
) -> RankOutcome {
    let n = g.num_nodes();
    let (world, newcomer) = match rank {
        ElasticRank::Founding(comm) => (comm, false),
        // Never admitted (the plan scheduled no join, or the run stopped
        // first): indistinguishable from a dead rank, by design.
        ElasticRank::Standby(standby) => match standby.wait_admission() {
            Ok(comm) => (comm, true),
            Err(_) => return RankOutcome::default(),
        },
    };
    let my_world = world.world_rank();
    let w = tel.writer(my_world as u32, 0);
    // Attach before splitting so the derived communicators inherit it.
    world.set_tracer(w.clone());

    // Thread 0 calibrates and then samples the adaptive phase with one
    // scratch.
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, 0);

    // Algorithm 2's Section IV-E communicators, then phases 1-2. A newcomer
    // replays the phases locally and receives the round and the global
    // state from the world that admitted it.
    let setup = (|| -> Result<_, CommError> {
        let hierarchy = match algorithm {
            Algorithm::One { .. } => None,
            Algorithm::Two => Some(Hierarchy::split(&world, shape.ranks_per_node)?),
        };
        let (prepared, entry_round, s_global) = if newcomer {
            bootstrap_newcomer(g, cfg, &world, shape.ranks, &w)?
        } else {
            let threads = shape.threads_per_rank;
            let prepared = prepare_collective(g, cfg, &world, threads, &mut sampler, &w)?;
            // S lives on the root; recovery hands every survivor a rebuilt one.
            let s_global = if world.rank() == 0 { vec![0; n + 1] } else { Vec::new() };
            (prepared, 0, s_global)
        };
        Ok((hierarchy, prepared, entry_round, s_global))
    })();
    let (hierarchy, prepared, entry_round, s_global) = match setup {
        Ok(t) => t,
        Err(e) => {
            own_crash_or_fatal(&e, &world, cfg, "set-up", 0);
            return RankOutcome::default();
        }
    };

    // Phase 3 to the adaptive stop (lines 12-14: the root folds and
    // checks). The grow that admitted a newcomer is already behind it; only
    // later join points concern it.
    let elastic = match algorithm {
        Algorithm::One { steal } => {
            Elastic { grow_from: Some(entry_round + u32::from(newcomer)), steal }
        }
        Algorithm::Two => Elastic::OFF,
    };
    let stop = |s_global: &mut [u64], reduced: &[u64]| {
        fold_and_check(s_global, reduced, cfg.epsilon, prepared.omega, &prepared.calibration)
    };
    let rounds = entry_round..u32::MAX;
    // A rank of T > 1 threads runs T − 1 epoch workers beside thread 0
    // (Algorithm 2, lines 5-9). The plan is cloned because they read it for
    // the whole phase while recovery replaces the world.
    let threads = shape.threads_per_rank;
    let fw = (threads > 1).then(|| EpochFramework::new(n, threads));
    let plan = world.fault_plan().cloned();
    let comms = Comms { world, hierarchy };
    let end = crossbeam::scope(|s| {
        if let Some(fw) = &fw {
            let launch_n0 = cfg.n0(shape.total_threads());
            for t in 1..threads {
                let (tw, plan) = (tel.writer(my_world as u32, t as u32), plan.as_ref());
                s.spawn(move |_| {
                    let drawn = worker_main(g, cfg, fw, my_world, t, plan, launch_n0);
                    // One flush at exit keeps the hot loop free of stores.
                    tw.count(CounterId::Samples, drawn);
                });
            }
        }
        // Thread 0's state lives for this phase only: its traversal scratch
        // is freed before the root allocates the result, which would
        // otherwise sit above it in the allocator's heap and keep the freed
        // space resident across repeated solves. A world without a fault
        // plan neither loses nor admits a rank, so nothing rebuilds from
        // its ledger.
        sampler.reseed(cfg.seed, my_world, ADS_STREAM_OFFSET);
        let ledger = if plan.is_some() { SampleLedger::new(n) } else { SampleLedger::untracked() };
        let mut st =
            RankState::with_streams(n, my_world, vec![Stream { sampler, sink: () }], ledger);
        let (workers, audit) = (fw.as_ref(), &mut audit);
        let end = adaptive_rounds(
            g, cfg, comms, &mut st, workers, s_global, rounds, stop, elastic, audit, &w,
        );
        if let Some(fw) = &fw {
            fw.signal_termination();
        }
        end
    });
    #[expect(
        clippy::expect_used,
        reason = "the scope joins every epoch worker, and a worker panic is a bug to abort with"
    )]
    let Some((comms, s_global)) = end.expect("adaptive sampling scope") else {
        return RankOutcome::default();
    };

    let result = (comms.world.rank() == 0).then(|| root_result(&s_global, &prepared, w.recorder()));
    RankOutcome { result, seen: audit.seen, bytes: comms.bytes() }
}

/// The round loop of Algorithms 1 and 2 with shrink-and-continue recovery,
/// on rank state the caller owns: rounds `rounds` of sample, snapshot,
/// overlapped reduction, fold-and-`stop` on the root, overlapped `ibcast`
/// of the flag, until the flag is set or the rounds run out. `workers` is
/// the epoch framework of the rank's workers, if it has any: each snapshot
/// closes one of its epochs. `s_global` is the aggregated frame S the run
/// starts from (consulted on the root only, line 1); `stop` folds a reduced
/// frame into it and decides. Returns the communicators the run ended on
/// and S, or `None` when a communicator failure ended this rank's part in
/// the run.
#[expect(
    clippy::too_many_arguments,
    reason = "the one round loop of every driver and pool; each argument is a part it varies"
)]
pub(crate) fn adaptive_rounds<G: PathSource, S: SampleSink>(
    g: &G,
    cfg: &KadabraConfig,
    comms: Comms,
    st: &mut RankState<S>,
    workers: Option<&EpochFramework>,
    mut s_global: Vec<u64>,
    rounds: Range<u32>,
    mut stop: impl FnMut(&mut [u64], &[u64]) -> bool,
    elastic: Elastic,
    audit: &mut Audit<'_>,
    w: &EventWriter,
) -> Option<(Comms, Vec<u64>)> {
    let Comms { world: mut comm, mut hierarchy } = comms;
    let my_world = comm.world_rank();
    let RankState { streams, ledger, s_loc, .. } = st;
    let n = s_loc.len() - 1;
    let threads = streams.len();
    // A rank of T streams and W workers draws T quotas of a world of
    // P·(T + W) sampling threads.
    let lanes = threads + workers.map_or(0, |fw| fw.num_threads() - 1);
    let quota_at = |size: usize| cfg.n0(size * lanes) * threads as u64;
    // Thread 0's handle on the workers' framework only commands
    // transitions: thread 0 samples into `s_loc`, so its frames stay empty.
    let mut h0 = workers.map(|fw| fw.handle(0));

    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let mut n0 = quota_at(comm.size());
    let mut round = rounds.start;
    // Runs until the stop flag arrives or the rounds run out (`None`), or a
    // communicator failure ends this rank's part in the run (where, and the
    // error).
    let failure: Option<(&str, CommError)> = loop {
        if round >= rounds.end {
            break None;
        }
        w.set_epoch(round);
        audit.begin_round(my_world, round);

        // Joins fire at the *start* of the scheduled round, before its
        // sample batch; every member reads the same plan, so the grow is a
        // collective everyone enters.
        let joiners = match (elastic.grow_from, comm.fault_plan()) {
            (Some(from), Some(plan)) if round >= from => plan.join_at_round(u64::from(round)),
            _ => 0,
        };
        if joiners > 0 {
            match grow_and_rebalance(&comm, joiners, round, ledger, &s_global, audit, w) {
                Ok((grown, rebuilt)) => {
                    comm = grown;
                    s_global = rebuilt;
                    n0 = quota_at(comm.size());
                }
                Err(e) => break Some(("grow", e)),
            }
        }
        let steal_round = match comm.fault_plan() {
            Some(plan) if elastic.steal => steal_schedule(plan, &comm, n0),
            _ => None,
        };
        let quota = steal_round.as_ref().map_or(n0, |st| st.own_quota(comm.rank(), n0));

        // One reduction round, all failure paths typed.
        let round_result = (|| -> Result<bool, CommError> {
            // Lines 5-6: this rank's quota of local samples, drawn as one
            // batch per stream, then what it draws on the stragglers'
            // behalf.
            let sp = w.begin(SpanId::SampleBatch);
            for (t, stream) in streams.iter_mut().enumerate() {
                draw(g, stream, stream_share(quota, threads, t), s_loc);
            }
            if let Some(st) = &steal_round {
                audit.seen.samples_stolen += st.handshake(g, cfg, &comm, round, s_loc, w)?;
            }
            w.end(sp);
            // Lines 7-8: snapshot, so overlapped samples don't corrupt the
            // communication buffer.
            let mut snapshot = std::mem::replace(s_loc, vec![0u64; n + 1]);
            streams.iter_mut().for_each(|s| s.sink.snapshot());
            let mut overlapped = 0u64;
            // Algorithm 2, lines 14-18: command the epoch transition, overlap
            // the workers' catch-up, and add their frames of the closed
            // epoch into the snapshot.
            if let (Some(fw), Some(h)) = (workers, h0.as_mut()) {
                let e = h.epoch();
                fw.force_transition(h, e);
                let sp = w.begin(SpanId::TransitionWait);
                overlapped += match comm.fault_plan() {
                    None => overlap(g, &mut streams[0], s_loc, || Ok(fw.transition_done(e)))?,
                    // The framework has no Request to meter polls on, so the
                    // plan supplies the overlap, drawn as one batch; the
                    // residual wait samples nothing.
                    Some(plan) => {
                        let planned = plan.transition_overlap(my_world, e);
                        draw(g, &mut streams[0], planned, s_loc);
                        while !fw.transition_done(e) {
                            std::hint::spin_loop();
                        }
                        planned
                    }
                };
                w.end(sp);
                let sp = w.begin(SpanId::FrameAggregate);
                snapshot[n] += fw.aggregate_epoch(e, &mut snapshot[..n]);
                w.end(sp);
            }
            // Lines 10-11: non-blocking reduce, overlapped with sampling —
            // over the world, or under the hierarchy inside the node first
            // (Section IV-E: shared-memory RMA in the paper, semantically a
            // node-local reduce). Under a plan test() returns false a
            // plan-derived number of times, then resolves (or fails — also
            // at a plan-derived poll).
            audit.send(&snapshot);
            let first = hierarchy.as_ref().map_or(&comm, |h| &h.local);
            let sp = w.begin(SpanId::IreduceWait);
            let mut req = first.ireduce_sum_u64(0, &snapshot)?;
            overlapped += overlap(g, &mut streams[0], s_loc, || req.test())?;
            w.end(sp);
            w.count(CounterId::BytesReduced, snapshot.len() as u64 * 8);
            // Observed completion: the snapshot is now part of a
            // globally-consistent prefix — checkpoint it and free it (a
            // failed round never reaches this line, so its in-flight frame is
            // discarded everywhere, never double-counted).
            ledger.confirm(&snapshot);
            drop(snapshot);
            streams.iter_mut().for_each(|s| s.sink.confirm());
            let mut reduced = req.into_result().flatten();
            // Section IV-F: node leaders run Ibarrier (overlapped), then a
            // blocking Reduce — the strategy that outperformed MPI_Ireduce.
            if let (Some(h), Some(frame)) = (&hierarchy, &reduced) {
                let sp = w.begin(SpanId::IbarrierWait);
                let mut bar = h.leaders.ibarrier()?;
                overlapped += overlap(g, &mut streams[0], s_loc, || bar.test())?;
                w.end(sp);
                let sp = w.begin(SpanId::Reduce);
                let across_nodes = h.leaders.reduce_sum_u64(0, frame)?;
                w.end(sp);
                w.count(CounterId::BytesReduced, frame.len() as u64 * 8);
                reduced = across_nodes;
            }

            // Lines 12-14: the root folds and checks.
            let mut d = 0u64;
            if comm.rank() == 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "the root is the reduction's root (under the hierarchy its node's \
                              leader and the leaders' root, split keys being world ranks), so it \
                              received Some"
                )]
                let reduced = reduced.expect("root receives reduction");
                audit.absorb(&reduced);
                let sp = w.begin(SpanId::Check);
                d = u64::from(stop(&mut s_global, &reduced));
                w.end(sp);
            }
            audit.conserve(&comm, ledger, &s_global, round)?;

            // Lines 15-17: broadcast the termination flag, overlapped.
            let sp = w.begin(SpanId::BcastStop);
            let mut breq = comm.ibcast_u64(0, (comm.rank() == 0).then_some(d))?;
            overlapped += overlap(g, &mut streams[0], s_loc, || breq.test())?;
            w.end(sp);
            w.count(CounterId::Samples, quota + overlapped);
            w.count(CounterId::Epochs, 1);
            #[expect(clippy::unwrap_used, reason = "test() returned true above")]
            let stop = breq.into_result().unwrap() != 0;
            Ok(stop)
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
            // discarded (a no-op for a sink whose snapshot was confirmed
            // before the failure). The hierarchy is re-split over the
            // survivors, a collective members can die in too: then recover
            // again.
            Err(CommError::RankFailed { rank }) if rank != my_world => {
                streams.iter_mut().for_each(|s| s.sink.discard());
                let prev = comm.members().to_vec();
                let recovered = loop {
                    let (small, rebuilt) = match shrink_and_rebuild(&comm, ledger, w) {
                        Ok(t) => t,
                        Err(e) => break Err(e),
                    };
                    comm = small;
                    s_global = rebuilt;
                    match hierarchy.as_mut().map_or(Ok(()), |h| h.resplit(&comm)) {
                        Err(CommError::RankFailed { rank }) if rank != my_world => continue,
                        done => break done,
                    }
                };
                match recovered {
                    Ok(()) => {
                        audit.membership_changed(&prev, comm.members(), round);
                        n0 = quota_at(comm.size());
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
        return None;
    }
    Some((Comms { world: comm, hierarchy }, s_global))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::brandes;
    use kadabra_graph::components::largest_component;
    use kadabra_graph::generators::{gnm, grid, GnmConfig, GridConfig};
    use kadabra_graph::Graph;
    use kadabra_mpisim::FaultPlan;

    const FLAT: Algorithm = Algorithm::One { steal: false };

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
        // overlapped ones), but no more than one round past ω. Free-running,
        // the overlap is however long a descheduled peer keeps `test()`
        // false — unbounded on a loaded host — so the bound is asserted
        // where the overlap is the plan's: each rank draws at most
        // `max_delay_polls` samples per request, two requests per round.
        let g = grid(GridConfig { rows: 6, cols: 6, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        let ranks = 2;
        for plan in [FaultPlan::ideal(5), FaultPlan::ideal(6).with_collective_delay(1, 8)] {
            let r = flat_with_plan(&g, &cfg, ranks, plan.clone());
            // τ before the last round is below ω, and the last round adds
            // every rank's quota plus the overlap of the round before it.
            let round = ranks as u64 * (cfg.n0(ranks) + 2 * plan.max_delay_polls());
            assert!(r.samples < r.omega + round, "{} > ω {} + {round}", r.samples, r.omega);
            if plan.max_delay_polls() == 0 {
                assert_eq!(r.samples % (ranks as u64 * cfg.n0(ranks)), 0, "no overlap");
            }
        }
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
            let rank = ElasticRank::Founding(comm);
            rank_main(g, cfg, rank, ClusterShape::flat(ranks), FLAT, &tel, Audit::off())
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
            let rank = ElasticRank::Founding(comm);
            rank_main(&lcc, &cfg, rank, ClusterShape::flat(3), FLAT, &tel, Audit::off())
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
