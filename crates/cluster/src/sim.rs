//! The discrete-event simulation of the adaptive-sampling phase.
//!
//! The simulator executes the paper's Algorithm 2 **exactly** — per-thread
//! epochs, wait-free transitions at sample boundaries, per-process frame
//! aggregation, hierarchical node-local aggregation, leader
//! `Ibarrier`-then-blocking-`Reduce`, stopping check at the root, and an
//! overlapped termination broadcast — but in *virtual time*: each simulated
//! thread's sample durations are drawn from the measured distribution of
//! real sample costs, and communication follows the α-β network model.
//! Every sample is a **real** sample of the real graph, so the stopping
//! behaviour (epochs, τ, final scores) is exact, not approximated.
//!
//! Control-flow fidelity notes:
//! * A thread only reacts to coordination state at its own sample
//!   boundaries, mirroring the `while !req.test() { sample }` loops.
//! * Thread 0 of each process does not sample while aggregating frames,
//!   while blocked in the reduce, or (at the root) while evaluating the
//!   stopping condition — exactly the non-overlapped segments of Fig. 2b.
//! * Workers keep sampling until their process observes the termination
//!   broadcast; samples recorded after the last aggregated epoch are
//!   discarded, as in the real implementation.

use crate::calibrate::CostModel;
use crate::spec::ClusterSpec;
use kadabra_core::bounds::stopping_condition;
use kadabra_core::calibration::calibration_sample_count;
use kadabra_core::phases::scores_from_counts;
use kadabra_core::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_core::{ClusterShape, KadabraConfig, Prepared};
use kadabra_graph::Graph;
use kadabra_mpisim::{CrashPoint, FaultPlan};
use kadabra_telemetry::{CounterId, EventLog, MarkId, SpanId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Global-reduction strategy (Section IV-F ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceStrategy {
    /// Non-blocking barrier, then blocking reduce — the paper's final choice.
    IbarrierThenBlockingReduce,
    /// `MPI_Ireduce`, fully overlapped but slow to progress.
    Ireduce,
    /// Blocking reduce immediately after aggregation (no overlap at all).
    FullyBlocking,
}

/// One simulated run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Cluster shape: ranks, ranks per node, threads per rank.
    pub shape: ClusterShape,
    /// Global-reduction strategy.
    pub strategy: ReduceStrategy,
    /// Apply the NUMA sampling penalty (a process spanning both sockets —
    /// used for the single-node shared-memory baseline of Ref. \[24\]).
    pub numa_penalty: bool,
    /// Model cross-rank work stealing: plan-marked stragglers keep only
    /// `n0 / factor` of their per-thread round quota and the deficit moves
    /// to the fastest ranks. The model has no live counterpart: under a
    /// plan a live straggler is slow only in logical polls, never in wall
    /// time, so the drivers' steal handshake could show no win and was
    /// deleted (DESIGN.md §15.3). Without a plan (or without stragglers)
    /// this flag changes nothing.
    pub steal: bool,
}

/// Result of a simulated run: real scores plus virtual-time performance.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Final betweenness estimate (identical semantics to the real runs).
    pub scores: Vec<f64>,
    /// Samples in the final estimate (τ).
    pub samples: u64,
    /// Static cap ω.
    pub omega: u64,
    /// Epochs until termination.
    pub epochs: u64,
    /// Virtual wall time of the adaptive sampling phase.
    pub ads_ns: u64,
    /// Virtual wall time of the calibration phase.
    pub calibration_ns: u64,
    /// Measured (real, sequential) diameter-phase time.
    pub diameter_ns: u64,
    /// Root leader's total overlapped wait inside the non-blocking barrier
    /// (Table II column "B").
    pub barrier_wait_ns: u64,
    /// Total (non-overlapped) blocking-reduce time observed by the root.
    pub reduce_ns: u64,
    /// Root process's total overlapped epoch-transition wait.
    pub transition_ns: u64,
    /// Total stopping-condition evaluation time at the root.
    pub check_ns: u64,
    /// Total bytes moved by global aggregation (Table II column "Com.").
    pub comm_bytes: u64,
    /// Total sampling threads (P·T).
    pub total_threads: usize,
    /// Ranks lost to plan-scheduled crashes during the run.
    pub ranks_lost: u64,
    /// Virtual time spent in shrink-and-continue recovery (failure
    /// confirmation, communicator shrink, ledger all-reduce).
    pub recovery_ns: u64,
    /// Standby ranks admitted by plan-scheduled joins (elastic grows).
    pub ranks_joined: u64,
    /// Thread-samples helpers took on plan-marked stragglers' behalf under
    /// the steal model ([`SimConfig::steal`]).
    pub samples_stolen: u64,
    /// Virtual time spent in grow windows: the newcomers' local bootstrap
    /// (diameter recompute plus a sequential replay of the founding
    /// calibration streams) overlapped with the survivors' admission
    /// consensus, round-handoff broadcast and ledger all-reduce.
    pub rebalance_ns: u64,
}

impl SimReport {
    /// End-to-end virtual time (diameter + calibration + adaptive sampling).
    pub fn total_ns(&self) -> u64 {
        self.diameter_ns + self.calibration_ns + self.ads_ns
    }

    /// Convenience conversion.
    pub fn ads_time(&self) -> Duration {
        Duration::from_nanos(self.ads_ns)
    }

    /// Communication volume per epoch in MiB.
    pub fn comm_mib_per_epoch(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.comm_bytes as f64 / (1024.0 * 1024.0) / self.epochs as f64
        }
    }
}

// ---------------------------------------------------------------------
// Event machinery
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Thread `tid` finishes its current sample.
    Sample { tid: usize },
    /// Process `proc` finishes aggregating its epoch frames.
    AggDone { proc: usize },
    /// The round's global reduction completes.
    ReduceDone { round: usize },
}

struct QE {
    at: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QE {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QE {}
impl PartialOrd for QE {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QE {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Thread-0 control state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctrl {
    /// Taking the n0 samples of the current epoch.
    Sampling,
    /// Transition commanded; waiting (while sampling) for all threads.
    AwaitTransition,
    /// Busy folding the epoch's frames (no sampling).
    Aggregating,
    /// Waiting (while sampling) for node peers to finish aggregation.
    NodeWait,
    /// Leader inside the non-blocking barrier (sampling).
    AwaitBarrier,
    /// Leader blocked in the global reduce (no sampling).
    BlockedReduce,
    /// Waiting (while sampling) for the termination broadcast.
    AwaitBcast,
}

struct VThread {
    proc: usize,
    epoch: u32,
    stopped: bool,
}

struct VProc {
    node: usize,
    is_leader: bool,
    /// Current round (epoch being assembled).
    round: usize,
    ctrl: Ctrl,
    t0_round_samples: u64,
    commanded: u32,
    /// Per-parity frames shared by the process's threads (the DES is
    /// single-threaded, so per-thread frames can be merged without changing
    /// any observable quantity; the *cost* of aggregating T frames is still
    /// charged).
    frames: [ProcFrame; 2],
    terminated: bool,
}

#[derive(Default)]
struct ProcFrame {
    counts: Vec<u32>,
    tau: u64,
}

struct Round {
    pending: Vec<u64>,
    pending_tau: u64,
    node_drained: Vec<usize>,
    barrier_arrived: usize,
    barrier_last: u64,
    barrier_done: Option<u64>,
    root_barrier_arrival: u64,
    /// When the root leader arrived at (and, for blocking strategies,
    /// started blocking in) the global reduce.
    root_reduce_arrival: u64,
    reduce_arrived: usize,
    reduce_last: u64,
    reduce_done_at: Option<u64>,
    /// Termination flag, available to every process at `bcast_ready_at`.
    bcast: Option<(u64, bool)>,
}

impl Round {
    fn new(n: usize, nodes: usize) -> Self {
        Round {
            pending: vec![0u64; n],
            pending_tau: 0,
            node_drained: vec![0; nodes],
            barrier_arrived: 0,
            barrier_last: 0,
            barrier_done: None,
            root_barrier_arrival: 0,
            root_reduce_arrival: 0,
            reduce_arrived: 0,
            reduce_last: 0,
            reduce_done_at: None,
            bcast: None,
        }
    }
}

/// Runs the DES. `prepared` must come from [`kadabra_core::prepare`] on the
/// same graph and config (ω and the δ budgets are shared across all shapes,
/// exactly as a real cluster derives them from the same calibration data).
pub fn simulate(
    g: &Graph,
    cfg: &KadabraConfig,
    prepared: &Prepared,
    sim: &SimConfig,
    spec: &ClusterSpec,
    cost: &CostModel,
) -> SimReport {
    simulate_perturbed(g, cfg, prepared, sim, spec, cost, None)
}

/// [`simulate`] under a [`FaultPlan`]: the same knobs the chaos suite turns
/// on the simulated MPI runtime are mapped into the cost model, so DES
/// predictions stay comparable to perturbed `kadabra-mpisim` runs.
///
/// * a straggler rank ([`FaultPlan::rank_factors`]) multiplies every sample
///   duration of all its threads,
/// * a slow thread ([`FaultPlan::slow_threads`]) additionally multiplies that
///   one thread's sample durations by [`FaultPlan::slow_thread_factor`],
/// * the calibration makespan follows the slowest thread (that phase joins
///   on a blocking all-reduce),
/// * a scheduled rank crash ([`FaultPlan::crashes`]) is mapped onto a global
///   round (see `crash_schedule`) and sacrifices that round: its samples
///   are discarded everywhere (matching the real drivers' ledger recovery,
///   which only counts globally-reduced rounds), survivors pay a recovery
///   penalty — failure confirmation + communicator shrink + ledger
///   all-reduce — a dead leader's node promotes its next rank, and n0 is
///   re-derived for the shrunk world.
///
/// `plan: None` (or an ideal plan) reproduces [`simulate`] bit-for-bit.
/// `SimConfig` stays `Copy`; the plan travels as a separate argument.
pub fn simulate_perturbed(
    g: &Graph,
    cfg: &KadabraConfig,
    prepared: &Prepared,
    sim: &SimConfig,
    spec: &ClusterSpec,
    cost: &CostModel,
    plan: Option<&FaultPlan>,
) -> SimReport {
    simulate_traced(g, cfg, prepared, sim, spec, cost, plan, None)
}

/// Maps the plan's first scheduled crash onto `(victim process, global
/// round)` — the granularity the DES can honor. The simulated MPI runtime
/// fires crashes on a per-join logical clock; the DES advances in whole
/// rounds, so the mapping is deliberately coarse:
///
/// * [`CrashPoint::AtCollective`]`(s)`: Algorithm 2 costs a rank four setup
///   joins (two hierarchy splits, diameter broadcast, calibration
///   all-reduce) and two joins per adaptive round (local reduce, termination
///   broadcast), so the crash lands in round `(s − 4) / 2`.
/// * [`CrashPoint::AfterPolls`]`(k)`: a rank accrues about
///   `avg_delay × 2 collectives = lo + hi` injected polls per round (scaled
///   by its straggler factor); with no injected delay the fuse never ticks,
///   exactly as in the runtime.
///
/// The DES pins its root-side bookkeeping (span trace, wait columns) to
/// process 0, so a schedule naming rank 0 is remapped to rank 1 —
/// crash *timing* is rank-symmetric here, and root fail-over semantics are
/// covered by the real drivers' tests. A single remaining rank cannot
/// shrink, so `p_count == 1` never crashes.
fn crash_schedule(plan: Option<&FaultPlan>, p_count: usize) -> Option<(usize, usize)> {
    let plan = plan?;
    let &(rank, point) = plan.crashes.first()?;
    if p_count <= 1 {
        return None;
    }
    let victim = match rank % p_count {
        0 => 1,
        r => r,
    };
    let round = match point {
        CrashPoint::AtCollective(s) => s.saturating_sub(4) / 2,
        CrashPoint::AfterPolls(k) => {
            let (lo, hi) = plan.collective_delay_polls;
            let per_round = (lo + hi).saturating_mul(plan.rank_factor(victim));
            if per_round == 0 {
                return None;
            }
            k / per_round
        }
    };
    Some((victim, usize::try_from(round).unwrap_or(usize::MAX)))
}

/// [`simulate_perturbed`] that additionally records the root's virtual-time
/// phase spans, per-round collective markers and counters into an
/// [`EventLog`] — the same event schema the real drivers emit, so one sink
/// (Chrome trace, [`kadabra_telemetry::Summary`], `BENCH_*.json`) consumes
/// DES traces and real traces alike. Span times are virtual nanoseconds on
/// one timeline: diameter, then calibration, then the adaptive-sampling DES.
///
/// Recording is a pure observer: `log: None` reproduces
/// [`simulate_perturbed`] bit-for-bit.
#[expect(clippy::too_many_arguments, reason = "mirrors simulate_perturbed plus the sink")]
pub fn simulate_traced(
    g: &Graph,
    cfg: &KadabraConfig,
    prepared: &Prepared,
    sim: &SimConfig,
    spec: &ClusterSpec,
    cost: &CostModel,
    plan: Option<&FaultPlan>,
    mut log: Option<&mut EventLog>,
) -> SimReport {
    cfg.validate();
    sim.shape.validate();
    let n = g.num_nodes();
    let shape = sim.shape;
    let p_count = shape.ranks;
    let t_count = shape.threads_per_rank;
    let total_threads = shape.total_threads();
    let nodes = shape.nodes();
    let leaders: usize = nodes; // first rank of each node
    let mut n0 = cfg.n0(total_threads);
    let omega = prepared.omega;
    let frame_bytes = (n as u64 + 1) * 8;
    let numa_mul = if sim.numa_penalty { spec.numa_sampling_penalty } else { 1.0 };

    // Elastic membership: the plan's join points admit standby ranks at
    // round starts. Standbys are pre-allocated (inactive) here so that
    // activation is just flipping them on — their world ranks, and hence
    // their sampler stream ids, continue past the founding world exactly as
    // the real drivers' grown communicators append newcomers.
    let joiner_count = plan.map_or(0, FaultPlan::total_joiners);
    let max_procs = p_count + joiner_count;
    let max_nodes = max_procs.div_ceil(shape.ranks_per_node);

    // Per-thread sampling-cost multiplier from the fault plan: straggler
    // ranks slow every thread they host; slow threads compound on top.
    let tid_mul: Vec<f64> = (0..max_procs)
        .flat_map(|p| {
            (0..t_count).map(move |t| match plan {
                Some(pl) => {
                    let mut m = pl.rank_factor(p) as f64;
                    if pl.slow_threads.contains(&(p, t)) {
                        m *= pl.slow_thread_factor.max(1) as f64;
                    }
                    m
                }
                None => 1.0,
            })
        })
        .collect();
    let smul = |tid: usize| numa_mul * tid_mul[tid];
    // The calibration phase precedes every join point, so its makespan
    // follows the slowest *founding* thread only.
    let worst_mul = tid_mul[..total_threads].iter().copied().fold(1.0f64, f64::max);

    // Calibration phase (closed-form virtual time; the δ budgets themselves
    // come from `prepared` — same data on every rank after the all-reduce).
    // Its makespan follows the slowest thread: everybody joins the blocking
    // all-reduce behind the straggler.
    let tau0 = calibration_sample_count(cfg, omega);
    let per_thread = tau0.div_ceil(total_threads as u64);
    let calibration_ns = (per_thread as f64 * cost.mean_sample_ns() * numa_mul * worst_mul) as u64
        + spec.network.tree_collective_ns(p_count, frame_bytes)
        + cost.delta_fit_ns;

    // One virtual timeline for the whole run: diameter, then calibration,
    // then the adaptive-sampling DES (whose queue clock starts at 0).
    let vt_base = cost.diameter_ns + calibration_ns;
    if let Some(l) = log.as_deref_mut() {
        l.span(0, 0, SpanId::Diameter, 0, 0, cost.diameter_ns);
        l.span(0, 0, SpanId::Calibration, 0, cost.diameter_ns, calibration_ns);
    }

    // --- DES state -----------------------------------------------------
    let mut samplers: Vec<ThreadSampler> = (0..max_procs)
        .flat_map(|p| {
            (0..t_count).map(move |t| ThreadSampler::new(n, cfg.seed, p, ADS_STREAM_OFFSET + t))
        })
        .collect();
    let mut threads: Vec<VThread> = (0..max_procs)
        .flat_map(|p| (0..t_count).map(move |_| VThread { proc: p, epoch: 0, stopped: false }))
        .collect();
    let mut procs: Vec<VProc> = (0..max_procs)
        .map(|p| {
            let node = p / shape.ranks_per_node;
            VProc {
                node,
                // Standby ranks landing on a fresh node assume leadership at
                // activation, not here.
                is_leader: p < p_count && p % shape.ranks_per_node == 0,
                round: 0,
                ctrl: Ctrl::Sampling,
                t0_round_samples: 0,
                commanded: 0,
                frames: [
                    ProcFrame { counts: vec![0; n], tau: 0 },
                    ProcFrame { counts: vec![0; n], tau: 0 },
                ],
                terminated: false,
            }
        })
        .collect();
    // Crash bookkeeping: at most one plan-scheduled crash (mirroring the
    // crash-corpus generator), resolved to a (victim, round) coordinate.
    let crash = crash_schedule(plan, p_count);
    let mut active: Vec<bool> = (0..max_procs).map(|p| p < p_count).collect();
    let mut active_procs = p_count;
    let mut active_leaders = leaders;
    let procs_in_node = |active: &[bool], node: usize| -> usize {
        let lo = node * shape.ranks_per_node;
        let hi = ((node + 1) * shape.ranks_per_node).min(max_procs);
        (lo..hi).filter(|&p| active[p]).count()
    };

    // Per-proc per-thread round quota under the steal model. Stragglers
    // (plan `rank_factor > 1`) keep `n0 / factor`; the deficit is split over
    // the non-straggler helpers, remainder to the lowest helper indices —
    // the same deterministic schedule every rank derives locally in the
    // drivers, so no extra coordination is charged. Returns the quotas and
    // the thread-samples moved per round.
    let steal_quotas = |active: &[bool], n0: u64| -> (Vec<u64>, u64) {
        let mut quotas = vec![n0; max_procs];
        let (Some(pl), true) = (plan, sim.steal) else {
            return (quotas, 0);
        };
        let stragglers: Vec<usize> =
            (0..max_procs).filter(|&p| active[p] && pl.rank_factor(p) > 1).collect();
        let helpers: Vec<usize> =
            (0..max_procs).filter(|&p| active[p] && pl.rank_factor(p) <= 1).collect();
        if stragglers.is_empty() || helpers.is_empty() {
            return (quotas, 0);
        }
        let mut deficit = 0u64;
        for &p in &stragglers {
            let keep = (n0 / pl.rank_factor(p).max(1)).max(1).min(n0);
            quotas[p] = keep;
            deficit += n0 - keep;
        }
        let (chunk, rem) = (deficit / helpers.len() as u64, deficit % helpers.len() as u64);
        for (i, &p) in helpers.iter().enumerate() {
            quotas[p] = n0 + chunk + u64::from((i as u64) < rem);
        }
        (quotas, deficit * t_count as u64)
    };
    let (mut quotas, mut stolen_per_round) = steal_quotas(&active, n0);

    // Grow-window cost on the virtual timeline: the newcomers' local
    // bootstrap (diameter recompute plus a sequential replay of the founding
    // calibration streams) runs while the survivors block in the admission
    // consensus, the round-handoff broadcast and the ledger all-reduce
    // (DESIGN.md §15). Survivors cannot close a round before it completes.
    let tau0 = calibration_sample_count(cfg, omega);
    let replay_ns = (tau0 as f64 * cost.mean_sample_ns()) as u64;
    let join_delay = |members: usize| -> u64 {
        cost.diameter_ns
            + replay_ns
            + spec.network.barrier_ns(members)
            + 2 * spec.network.tree_collective_ns(members, frame_bytes)
    };
    let mut joins_remaining = joiner_count;
    let mut next_joiner = p_count;

    let mut rounds: Vec<Round> = vec![Round::new(n, max_nodes)];
    let mut s_total = vec![0u64; n];
    let mut tau_total: u64 = 0;

    let mut queue: BinaryHeap<Reverse<QE>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut dur_rng = CostModel::duration_rng(cfg.seed);
    let push = |queue: &mut BinaryHeap<Reverse<QE>>, seq: &mut u64, at: u64, ev: Ev| {
        *seq += 1;
        queue.push(Reverse(QE { at, seq: *seq, ev }));
    };

    let mut report = SimReport {
        scores: Vec::new(),
        samples: 0,
        omega,
        epochs: 0,
        ads_ns: 0,
        calibration_ns,
        diameter_ns: cost.diameter_ns,
        barrier_wait_ns: 0,
        reduce_ns: 0,
        transition_ns: 0,
        check_ns: 0,
        comm_bytes: 0,
        total_threads,
        ranks_lost: 0,
        recovery_ns: 0,
        ranks_joined: 0,
        samples_stolen: 0,
        rebalance_ns: 0,
    };

    // A round-0 join point admits its standbys before the first sample: the
    // grow window sits at the head of the adaptive phase and delays every
    // founding thread's first sample alongside the newcomers'.
    let mut ads_start = 0u64;
    if let Some(pl) = plan {
        let k = pl.join_at_round(0).min(joins_remaining);
        if k > 0 {
            for _ in 0..k {
                let p = next_joiner;
                next_joiner += 1;
                active[p] = true;
                active_procs += 1;
                if p.is_multiple_of(shape.ranks_per_node) {
                    procs[p].is_leader = true;
                    active_leaders += 1;
                }
            }
            joins_remaining -= k;
            report.ranks_joined += k as u64;
            n0 = cfg.n0(active_procs * t_count);
            (quotas, stolen_per_round) = steal_quotas(&active, n0);
            ads_start = join_delay(active_procs);
            report.rebalance_ns += ads_start;
            report.comm_bytes += active_procs as u64 * frame_bytes;
            if let Some(l) = log.as_deref_mut() {
                l.span(0, 0, SpanId::Rebalance, 0, vt_base, ads_start);
                l.count(0, 0, CounterId::RanksJoined, 0, vt_base, k as u64);
            }
        }
    }

    // Prime every active thread's first sample.
    for tid in (0..max_procs * t_count).filter(|t| active[t / t_count]) {
        let d = (cost.draw_sample_ns(&mut dur_rng) as f64 * smul(tid)) as u64;
        push(&mut queue, &mut seq, ads_start + d, Ev::Sample { tid });
    }
    let mut makespan = 0u64;
    // Root transition bookkeeping (started-at time for the wait columns).
    let mut root_transition_started = 0u64;
    let mut root_barrier_started = 0u64;
    // Root span bookkeeping for the trace (batch start, bcast-wait start).
    let mut root_batch_started = ads_start;
    let mut root_bcast_started = 0u64;

    while let Some(Reverse(QE { at: now, ev, .. })) = queue.pop() {
        match ev {
            Ev::Sample { tid } => {
                let proc_id = threads[tid].proc;
                if threads[tid].stopped {
                    continue;
                }
                if !active[proc_id] {
                    // The process died at a round boundary; its threads fall
                    // silent at their next sample boundary.
                    threads[tid].stopped = true;
                    makespan = makespan.max(now);
                    continue;
                }
                // The sample that just finished: take it for real and record
                // it into the thread's current-epoch frame.
                let parity = (threads[tid].epoch & 1) as usize;
                {
                    let frame = &mut procs[proc_id].frames[parity];
                    for &v in samplers[tid].sample(g) {
                        frame.counts[v as usize] += 1;
                    }
                    frame.tau += 1;
                }
                let is_t0 = tid % t_count == 0;
                if !is_t0 {
                    // Worker: join pending transitions, honour termination.
                    if procs[proc_id].commanded > threads[tid].epoch {
                        threads[tid].epoch += 1;
                    }
                    if procs[proc_id].terminated {
                        threads[tid].stopped = true;
                        makespan = makespan.max(now);
                    } else {
                        let d = (cost.draw_sample_ns(&mut dur_rng) as f64 * smul(tid)) as u64;
                        push(&mut queue, &mut seq, now + d, Ev::Sample { tid });
                    }
                    continue;
                }

                // Thread 0: control state machine at a sample boundary.
                let mut resample = true;
                match procs[proc_id].ctrl {
                    Ctrl::Sampling => {
                        procs[proc_id].t0_round_samples += 1;
                        if procs[proc_id].t0_round_samples >= quotas[proc_id] {
                            // forceTransition: advance self, command others.
                            threads[tid].epoch += 1;
                            procs[proc_id].commanded += 1;
                            procs[proc_id].ctrl = Ctrl::AwaitTransition;
                            if proc_id == 0 {
                                if let Some(l) = log.as_deref_mut() {
                                    let e = procs[proc_id].round as u32;
                                    l.span(
                                        0,
                                        0,
                                        SpanId::SampleBatch,
                                        e,
                                        vt_base + root_batch_started,
                                        now - root_batch_started,
                                    );
                                }
                                root_transition_started = now;
                            }
                        }
                    }
                    Ctrl::AwaitTransition => {
                        let e = procs[proc_id].round as u32;
                        let all_joined = (proc_id * t_count..(proc_id + 1) * t_count)
                            .all(|t| threads[t].epoch > e);
                        if all_joined {
                            if proc_id == 0 {
                                report.transition_ns += now - root_transition_started;
                            }
                            let agg_cost = spec.aggregate_ns(t_count as u64 * frame_bytes);
                            if proc_id == 0 {
                                if let Some(l) = log.as_deref_mut() {
                                    let e = procs[proc_id].round as u32;
                                    l.span(
                                        0,
                                        0,
                                        SpanId::TransitionWait,
                                        e,
                                        vt_base + root_transition_started,
                                        now - root_transition_started,
                                    );
                                    l.span(
                                        0,
                                        0,
                                        SpanId::FrameAggregate,
                                        e,
                                        vt_base + now,
                                        agg_cost,
                                    );
                                }
                            }
                            procs[proc_id].ctrl = Ctrl::Aggregating;
                            push(
                                &mut queue,
                                &mut seq,
                                now + agg_cost,
                                Ev::AggDone { proc: proc_id },
                            );
                            resample = false;
                        }
                    }
                    Ctrl::NodeWait => {
                        try_enter_global_phase(
                            proc_id,
                            now,
                            sim,
                            spec,
                            &mut procs,
                            &mut rounds,
                            &mut queue,
                            &mut seq,
                            p_count,
                            active_leaders,
                            frame_bytes,
                            &|node| procs_in_node(&active, node),
                            &mut root_barrier_started,
                            &mut root_bcast_started,
                            &mut resample,
                        );
                    }
                    Ctrl::AwaitBarrier => {
                        let round_idx = procs[proc_id].round;
                        if let Some(done) = rounds[round_idx].barrier_done {
                            if now >= done {
                                if proc_id == 0 {
                                    report.barrier_wait_ns += now - root_barrier_started;
                                    if let Some(l) = log.as_deref_mut() {
                                        l.span(
                                            0,
                                            0,
                                            SpanId::IbarrierWait,
                                            round_idx as u32,
                                            vt_base + root_barrier_started,
                                            now - root_barrier_started,
                                        );
                                    }
                                }
                                arrive_at_reduce(
                                    proc_id,
                                    now,
                                    sim,
                                    spec,
                                    &mut procs,
                                    &mut rounds,
                                    &mut queue,
                                    &mut seq,
                                    p_count,
                                    active_leaders,
                                    frame_bytes,
                                    /*blocking=*/ true,
                                );
                                resample = false;
                            }
                        }
                    }
                    Ctrl::AwaitBcast => {
                        let round_idx = procs[proc_id].round;
                        if let Some((ready_at, d)) = rounds[round_idx].bcast {
                            if now >= ready_at {
                                if proc_id == 0 {
                                    if let Some(l) = log.as_deref_mut() {
                                        l.span(
                                            0,
                                            0,
                                            SpanId::BcastStop,
                                            round_idx as u32,
                                            vt_base + root_bcast_started,
                                            now - root_bcast_started,
                                        );
                                    }
                                }
                                if d {
                                    procs[proc_id].terminated = true;
                                    threads[tid].stopped = true;
                                    makespan = makespan.max(now);
                                    resample = false;
                                } else {
                                    if proc_id == 0 {
                                        root_batch_started = now;
                                    }
                                    procs[proc_id].round += 1;
                                    procs[proc_id].t0_round_samples = 0;
                                    procs[proc_id].ctrl = Ctrl::Sampling;
                                }
                            }
                        }
                    }
                    Ctrl::Aggregating | Ctrl::BlockedReduce => {
                        unreachable!("thread 0 does not sample in busy/blocked states")
                    }
                }
                if resample {
                    let d = (cost.draw_sample_ns(&mut dur_rng) as f64 * smul(tid)) as u64;
                    push(&mut queue, &mut seq, now + d, Ev::Sample { tid });
                }
            }

            Ev::AggDone { proc: proc_id } => {
                // Drain the finished epoch's frame into the round accumulator.
                let round_idx = procs[proc_id].round;
                let parity = round_idx & 1;
                if rounds.len() <= round_idx + 1 {
                    rounds.push(Round::new(n, max_nodes));
                }
                {
                    let frame = &mut procs[proc_id].frames[parity];
                    let round = &mut rounds[round_idx];
                    for (acc, c) in round.pending.iter_mut().zip(frame.counts.iter_mut()) {
                        if *c != 0 {
                            *acc += *c as u64;
                            *c = 0;
                        }
                    }
                    round.pending_tau += frame.tau;
                    frame.tau = 0;
                }
                let node = procs[proc_id].node;
                rounds[round_idx].node_drained[node] += 1;

                let mut resample = true;
                if procs[proc_id].is_leader {
                    procs[proc_id].ctrl = Ctrl::NodeWait;
                    try_enter_global_phase(
                        proc_id,
                        now,
                        sim,
                        spec,
                        &mut procs,
                        &mut rounds,
                        &mut queue,
                        &mut seq,
                        p_count,
                        active_leaders,
                        frame_bytes,
                        &|node| procs_in_node(&active, node),
                        &mut root_barrier_started,
                        &mut root_bcast_started,
                        &mut resample,
                    );
                } else {
                    procs[proc_id].ctrl = Ctrl::AwaitBcast;
                }
                if resample {
                    let tid = proc_id * t_count;
                    let d = (cost.draw_sample_ns(&mut dur_rng) as f64 * smul(tid)) as u64;
                    push(&mut queue, &mut seq, now + d, Ev::Sample { tid });
                }
            }

            Ev::ReduceDone { round: round_idx } => {
                // Fold the round into the global state; root checks; the
                // termination flag is broadcast.
                let round = &mut rounds[round_idx];
                round.reduce_done_at = Some(now);
                // Root's blocked time in the reduce (zero for the fully
                // overlapped Ireduce strategy).
                if sim.strategy != ReduceStrategy::Ireduce {
                    report.reduce_ns += now - round.root_reduce_arrival;
                }
                // A plan-scheduled crash lands in this round: the collective
                // failed. Sacrifice the round — its samples are discarded
                // everywhere, matching the real drivers, whose recovery
                // ledger only carries globally-reduced rounds — then shrink
                // and continue with the survivors.
                if let Some((victim, crash_round)) = crash {
                    if round_idx == crash_round && active[victim] {
                        let members = active_procs as u64;
                        let reduce_arrival = round.root_reduce_arrival;
                        active[victim] = false;
                        active_procs -= 1;
                        report.ranks_lost += 1;
                        // A dead leader's node promotes its next surviving
                        // rank (the real drivers re-split by original world
                        // rank); an emptied node leaves the leader ring.
                        if procs[victim].is_leader {
                            procs[victim].is_leader = false;
                            let node = procs[victim].node;
                            let lo = node * shape.ranks_per_node;
                            let hi = ((node + 1) * shape.ranks_per_node).min(max_procs);
                            match (lo..hi).find(|&p| active[p]) {
                                Some(next) => procs[next].is_leader = true,
                                None => active_leaders -= 1,
                            }
                        }
                        // Survivors re-derive n0 — and the steal schedule —
                        // for the shrunk world.
                        n0 = cfg.n0(active_procs * t_count);
                        (quotas, stolen_per_round) = steal_quotas(&active, n0);
                        // Recovery penalty: shrink consensus (a barrier over
                        // the survivors) plus the ledger rebuild (an
                        // all-reduce ≈ reduce + broadcast of one frame).
                        let recovery_ns = spec.network.barrier_ns(active_procs)
                            + 2 * spec.network.tree_collective_ns(active_procs, frame_bytes);
                        report.recovery_ns += recovery_ns;
                        // The torn reduce still moved frames; the rebuild
                        // moves one ledger frame per survivor.
                        report.comm_bytes += (members + active_procs as u64) * frame_bytes;
                        if let Some(l) = log.as_deref_mut() {
                            let e = round_idx as u32;
                            if sim.strategy != ReduceStrategy::Ireduce {
                                l.span(
                                    0,
                                    0,
                                    SpanId::Reduce,
                                    e,
                                    vt_base + reduce_arrival,
                                    now - reduce_arrival,
                                );
                            }
                            l.span(0, 0, SpanId::Recovery, e, vt_base + now, recovery_ns);
                            l.count(0, 0, CounterId::RanksLost, e, vt_base + now, 1);
                            l.count(
                                0,
                                0,
                                CounterId::BytesReduced,
                                e,
                                vt_base + now,
                                (members + active_procs as u64) * frame_bytes,
                            );
                        }
                        // Never terminate on a sacrificed round: survivors
                        // resume sampling once recovery completes.
                        rounds[round_idx].bcast = Some((now + recovery_ns, false));
                        for (p, proc) in procs.iter_mut().enumerate() {
                            if !active[p] {
                                continue;
                            }
                            if proc.ctrl == Ctrl::BlockedReduce && proc.round == round_idx {
                                proc.ctrl = Ctrl::AwaitBcast;
                                let resume = now + recovery_ns;
                                if p == 0 {
                                    root_bcast_started = resume;
                                }
                                let tid = p * t_count;
                                let d_ns =
                                    (cost.draw_sample_ns(&mut dur_rng) as f64 * smul(tid)) as u64;
                                push(&mut queue, &mut seq, resume + d_ns, Ev::Sample { tid });
                            }
                        }
                        continue;
                    }
                }
                let round = &mut rounds[round_idx];
                let pending = std::mem::take(&mut round.pending);
                for (a, p) in s_total.iter_mut().zip(&pending) {
                    *a += p;
                }
                tau_total += round.pending_tau;
                report.epochs += 1;
                report.comm_bytes += active_procs as u64 * frame_bytes;
                report.samples_stolen += stolen_per_round;

                let check_cost = cost.check_ns(n);
                report.check_ns += check_cost;
                if let Some(l) = log.as_deref_mut() {
                    let e = round_idx as u32;
                    if sim.strategy != ReduceStrategy::Ireduce {
                        l.span(
                            0,
                            0,
                            SpanId::Reduce,
                            e,
                            vt_base + round.root_reduce_arrival,
                            now - round.root_reduce_arrival,
                        );
                    } else {
                        // The overlapped strategy has no blocked segment; the
                        // collective's own duration lands on IreduceWait.
                        l.span(
                            0,
                            0,
                            SpanId::IreduceWait,
                            e,
                            vt_base + round.reduce_last,
                            now - round.reduce_last,
                        );
                    }
                    l.span(0, 0, SpanId::Check, e, vt_base + now, check_cost);
                    l.mark(0, 0, MarkId::CollectiveComplete, e, vt_base + now, round_idx as u64);
                    l.count(0, 0, CounterId::Collectives, e, vt_base + now, 1);
                    l.count(0, 0, CounterId::Samples, e, vt_base + now, round.pending_tau);
                    l.count(0, 0, CounterId::Epochs, e, vt_base + now, 1);
                    l.count(
                        0,
                        0,
                        CounterId::BytesReduced,
                        e,
                        vt_base + now,
                        active_procs as u64 * frame_bytes,
                    );
                    if stolen_per_round > 0 {
                        l.count(0, 0, CounterId::SamplesStolen, e, vt_base + now, stolen_per_round);
                    }
                }
                let d = stopping_condition(
                    &s_total,
                    tau_total,
                    cfg.epsilon,
                    omega,
                    &prepared.calibration.delta_l,
                    &prepared.calibration.delta_u,
                );
                let mut bcast_ready =
                    now + check_cost + spec.network.tree_collective_ns(p_count, 16);
                // A join point at the start of the next round: admit its
                // standbys now. The grow window delays the termination
                // broadcast — no survivor can open the next round before the
                // handoff collectives complete — and the newcomers' threads
                // fire their first samples once it lifts.
                if !d {
                    if let Some(pl) = plan {
                        let next_round = round_idx + 1;
                        let k = pl.join_at_round(next_round as u64).min(joins_remaining);
                        if k > 0 {
                            let first = next_joiner;
                            for _ in 0..k {
                                let p = next_joiner;
                                next_joiner += 1;
                                active[p] = true;
                                active_procs += 1;
                                if p.is_multiple_of(shape.ranks_per_node) {
                                    procs[p].is_leader = true;
                                    active_leaders += 1;
                                }
                            }
                            joins_remaining -= k;
                            report.ranks_joined += k as u64;
                            // The grown world re-derives n0 and the steal
                            // schedule, exactly as the survivors do after
                            // `Communicator::grow`.
                            n0 = cfg.n0(active_procs * t_count);
                            (quotas, stolen_per_round) = steal_quotas(&active, n0);
                            let delay = join_delay(active_procs);
                            report.rebalance_ns += delay;
                            // The handoff moves one ledger frame per member.
                            report.comm_bytes += active_procs as u64 * frame_bytes;
                            if let Some(l) = log.as_deref_mut() {
                                let e = next_round as u32;
                                l.span(0, 0, SpanId::Rebalance, e, vt_base + bcast_ready, delay);
                                l.count(
                                    0,
                                    0,
                                    CounterId::RanksJoined,
                                    e,
                                    vt_base + bcast_ready,
                                    k as u64,
                                );
                            }
                            bcast_ready += delay;
                            for (off, proc) in procs[first..first + k].iter_mut().enumerate() {
                                let p = first + off;
                                proc.round = next_round;
                                proc.commanded = next_round as u32;
                                proc.ctrl = Ctrl::Sampling;
                                proc.t0_round_samples = 0;
                                for t in 0..t_count {
                                    let tid = p * t_count + t;
                                    threads[tid].epoch = next_round as u32;
                                    threads[tid].stopped = false;
                                    let d_ns = (cost.draw_sample_ns(&mut dur_rng) as f64
                                        * smul(tid))
                                        as u64;
                                    push(
                                        &mut queue,
                                        &mut seq,
                                        bcast_ready + d_ns,
                                        Ev::Sample { tid },
                                    );
                                }
                            }
                        }
                    }
                }
                rounds[round_idx].bcast = Some((bcast_ready, d));

                // Resume blocked leaders (Ibarrier / FullyBlocking paths).
                for (p, proc) in procs.iter_mut().enumerate() {
                    if proc.ctrl == Ctrl::BlockedReduce && proc.round == round_idx {
                        proc.ctrl = Ctrl::AwaitBcast;
                        // The root additionally spends the check before it
                        // can resume sampling.
                        let resume = if p == 0 { now + check_cost } else { now };
                        if p == 0 {
                            root_bcast_started = resume;
                        }
                        let tid = p * t_count;
                        let d_ns = (cost.draw_sample_ns(&mut dur_rng) as f64 * smul(tid)) as u64;
                        push(&mut queue, &mut seq, resume + d_ns, Ev::Sample { tid });
                    }
                }
            }
        }
    }

    report.samples = tau_total;
    report.scores = scores_from_counts(&s_total, tau_total.max(1));
    report.ads_ns = makespan;
    if let Some(l) = log {
        l.span(0, 0, SpanId::AdaptiveSampling, 0, vt_base, makespan);
    }
    report
}

/// Leader logic after node aggregation completes: enter the global phase
/// according to the reduce strategy. Shared by `NodeWait` boundaries and
/// `AggDone`.
#[expect(clippy::too_many_arguments, reason = "the DES state the global phase reads and advances")]
fn try_enter_global_phase(
    proc_id: usize,
    now: u64,
    sim: &SimConfig,
    spec: &ClusterSpec,
    procs: &mut [VProc],
    rounds: &mut [Round],
    queue: &mut BinaryHeap<Reverse<QE>>,
    seq: &mut u64,
    p_count: usize,
    leaders: usize,
    frame_bytes: u64,
    procs_in_node: &dyn Fn(usize) -> usize,
    root_barrier_started: &mut u64,
    root_bcast_started: &mut u64,
    resample: &mut bool,
) {
    let round_idx = procs[proc_id].round;
    let node = procs[proc_id].node;
    if rounds[round_idx].node_drained[node] < procs_in_node(node) {
        return; // peers still aggregating; keep sampling in NodeWait
    }
    match sim.strategy {
        ReduceStrategy::IbarrierThenBlockingReduce => {
            // Arrive at the barrier; completion = last arrival + log(L)·α.
            let round = &mut rounds[round_idx];
            round.barrier_arrived += 1;
            round.barrier_last = round.barrier_last.max(now);
            if proc_id == 0 {
                *root_barrier_started = now;
                round.root_barrier_arrival = now;
            }
            if round.barrier_arrived == leaders {
                round.barrier_done = Some(round.barrier_last + spec.network.barrier_ns(leaders));
            }
            procs[proc_id].ctrl = Ctrl::AwaitBarrier;
        }
        ReduceStrategy::Ireduce => {
            // Overlapped: deposit and keep sampling; completion is penalized.
            if proc_id == 0 {
                *root_bcast_started = now;
            }
            let net = &spec.network;
            let round = &mut rounds[round_idx];
            round.reduce_arrived += 1;
            round.reduce_last = round.reduce_last.max(now);
            if round.reduce_arrived == leaders {
                let dur = (net.tree_collective_ns(leaders, frame_bytes) as f64
                    * net.ireduce_progress_penalty) as u64;
                let done = round.reduce_last + dur;
                *seq += 1;
                queue.push(Reverse(QE {
                    at: done,
                    seq: *seq,
                    ev: Ev::ReduceDone { round: round_idx },
                }));
            }
            procs[proc_id].ctrl = Ctrl::AwaitBcast;
        }
        ReduceStrategy::FullyBlocking => {
            arrive_at_reduce(
                proc_id,
                now,
                sim,
                spec,
                procs,
                rounds,
                queue,
                seq,
                p_count,
                leaders,
                frame_bytes,
                true,
            );
            *resample = false;
        }
    }
}

/// Leader arrives at the blocking global reduce.
#[expect(clippy::too_many_arguments, reason = "shares try_enter_global_phase's signature")]
fn arrive_at_reduce(
    proc_id: usize,
    now: u64,
    _sim: &SimConfig,
    spec: &ClusterSpec,
    procs: &mut [VProc],
    rounds: &mut [Round],
    queue: &mut BinaryHeap<Reverse<QE>>,
    seq: &mut u64,
    _p_count: usize,
    leaders: usize,
    frame_bytes: u64,
    _blocking: bool,
) {
    let round_idx = procs[proc_id].round;
    let round = &mut rounds[round_idx];
    round.reduce_arrived += 1;
    round.reduce_last = round.reduce_last.max(now);
    if proc_id == 0 {
        round.root_reduce_arrival = now;
    }
    procs[proc_id].ctrl = Ctrl::BlockedReduce;
    if round.reduce_arrived == leaders {
        let done = round.reduce_last + spec.network.tree_collective_ns(leaders, frame_bytes);
        *seq += 1;
        queue.push(Reverse(QE { at: done, seq: *seq, ev: Ev::ReduceDone { round: round_idx } }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_core::prepare;
    use kadabra_graph::generators::{grid, GridConfig};

    fn setup() -> (kadabra_graph::Graph, KadabraConfig, Prepared, CostModel) {
        let g = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.08, 0.1);
        let prepared = prepare(&g, &cfg);
        let cost = CostModel::synthetic(100_000); // 0.1 ms per sample
        (g, cfg, prepared, cost)
    }

    fn shape(ranks: usize, rpn: usize, tpr: usize) -> ClusterShape {
        ClusterShape { ranks, ranks_per_node: rpn, threads_per_rank: tpr }
    }

    #[test]
    fn single_proc_single_thread_terminates() {
        let (g, cfg, prepared, cost) = setup();
        let sim = SimConfig {
            shape: shape(1, 1, 1),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let r = simulate(&g, &cfg, &prepared, &sim, &ClusterSpec::default(), &cost);
        assert!(r.samples > 0);
        assert!(r.epochs >= 1);
        assert!(r.ads_ns > 0);
        assert_eq!(r.scores.len(), 64);
    }

    #[test]
    fn simulated_scores_respect_epsilon() {
        let (g, cfg, prepared, cost) = setup();
        let exact = kadabra_baselines_brandes(&g);
        for ranks in [1, 4] {
            let sim = SimConfig {
                shape: shape(ranks, 2, 2),
                strategy: ReduceStrategy::IbarrierThenBlockingReduce,
                numa_penalty: false,
                steal: false,
            };
            let r = simulate(&g, &cfg, &prepared, &sim, &ClusterSpec::default(), &cost);
            let worst =
                r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
            assert!(worst <= cfg.epsilon, "ranks={ranks}: max error {worst}");
        }
    }

    // Local shim to avoid a dev-dependency cycle: exact betweenness of the
    // tiny test grid via kadabra-core's own sequential run at very small eps
    // would be circular, so compute Brandes inline.
    fn kadabra_baselines_brandes(g: &kadabra_graph::Graph) -> Vec<f64> {
        use kadabra_graph::bfs::sigma_bfs;
        let n = g.num_nodes();
        let mut bc = vec![0.0f64; n];
        for s in 0..n as u32 {
            let res = sigma_bfs(g, s);
            let mut delta = vec![0.0f64; n];
            for &w in res.order.iter().rev() {
                let dw = res.dist[w as usize];
                let coeff = (1.0 + delta[w as usize]) / res.sigma[w as usize] as f64;
                for &v in g.neighbors(w) {
                    if res.dist[v as usize] + 1 == dw {
                        delta[v as usize] += res.sigma[v as usize] as f64 * coeff;
                    }
                }
                if w != s {
                    bc[w as usize] += delta[w as usize];
                }
            }
        }
        let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
        bc.iter().map(|b| b * norm).collect()
    }

    #[test]
    fn more_ranks_shrink_virtual_ads_time() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let mut prev = u64::MAX;
        for ranks in [1, 2, 4, 8] {
            let sim = SimConfig {
                shape: shape(ranks, 2, 4),
                strategy: ReduceStrategy::IbarrierThenBlockingReduce,
                numa_penalty: false,
                steal: false,
            };
            let r = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
            assert!(
                r.ads_ns < prev,
                "ads time must shrink with ranks: {} !< {prev} at ranks={ranks}",
                r.ads_ns
            );
            prev = r.ads_ns;
        }
    }

    #[test]
    fn numa_penalty_slows_sampling() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let base = SimConfig {
            shape: shape(1, 1, 4),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let penalized = SimConfig { numa_penalty: true, steal: false, ..base };
        let r0 = simulate(&g, &cfg, &prepared, &base, &spec, &cost);
        let r1 = simulate(&g, &cfg, &prepared, &penalized, &spec, &cost);
        assert!(
            r1.ads_ns > r0.ads_ns,
            "NUMA penalty must slow the run: {} !> {}",
            r1.ads_ns,
            r0.ads_ns
        );
    }

    #[test]
    fn strategies_all_terminate_with_identical_samples_semantics() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        for strategy in [
            ReduceStrategy::IbarrierThenBlockingReduce,
            ReduceStrategy::Ireduce,
            ReduceStrategy::FullyBlocking,
        ] {
            let sim =
                SimConfig { shape: shape(4, 2, 2), strategy, numa_penalty: false, steal: false };
            let r = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
            assert!(r.samples > 0, "{strategy:?}");
            assert!(r.epochs >= 1, "{strategy:?}");
        }
    }

    #[test]
    fn deterministic() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(3, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let a = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        let b = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.ads_ns, b.ads_ns);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn ideal_fault_plan_reproduces_the_unperturbed_run() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(3, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let base = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        let ideal = FaultPlan::ideal(9);
        let r = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&ideal));
        assert_eq!(base.scores, r.scores);
        assert_eq!(base.ads_ns, r.ads_ns);
        assert_eq!(base.calibration_ns, r.calibration_ns);
        assert_eq!(base.epochs, r.epochs);
    }

    #[test]
    fn straggler_rank_stretches_virtual_time() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(4, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let base = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        let plan = FaultPlan::ideal(0).with_straggler(2, 6);
        let slow = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        // The DES joins every round behind the straggler's aggregation, so
        // both phases of virtual time must stretch.
        assert!(
            slow.ads_ns > base.ads_ns,
            "straggler must slow ads: {} !> {}",
            slow.ads_ns,
            base.ads_ns
        );
        assert!(slow.calibration_ns > base.calibration_ns);
        // The statistical outcome still meets the guarantee: stretching one
        // rank's sampling changes timing, not the stopping rule's soundness.
        assert!(slow.samples > 0);
        assert!(slow.epochs >= 1);
    }

    #[test]
    fn slow_thread_is_milder_than_a_full_straggler_rank() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(2, 2, 4),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let thread_plan = FaultPlan::ideal(0).with_slow_thread(1, 2, 6);
        let rank_plan = FaultPlan::ideal(0).with_straggler(1, 6);
        let one = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&thread_plan));
        let all = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&rank_plan));
        let base = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        assert!(one.ads_ns > base.ads_ns, "{} !> {}", one.ads_ns, base.ads_ns);
        assert!(all.ads_ns > one.ads_ns, "{} !> {}", all.ads_ns, one.ads_ns);
    }

    #[test]
    fn traced_run_matches_the_report_and_does_not_perturb_it() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        for strategy in [
            ReduceStrategy::IbarrierThenBlockingReduce,
            ReduceStrategy::Ireduce,
            ReduceStrategy::FullyBlocking,
        ] {
            let sim =
                SimConfig { shape: shape(4, 2, 2), strategy, numa_penalty: false, steal: false };
            let base = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
            let mut log = EventLog::new();
            let traced =
                simulate_traced(&g, &cfg, &prepared, &sim, &spec, &cost, None, Some(&mut log));
            // Recording is a pure observer.
            assert_eq!(base.scores, traced.scores, "{strategy:?}");
            assert_eq!(base.ads_ns, traced.ads_ns, "{strategy:?}");
            // The virtual-time trace agrees with the report's columns: the
            // same schema the real drivers emit, fed by the DES clock.
            let s = log.summary();
            assert_eq!(s.span_total(SpanId::Check), traced.check_ns, "{strategy:?}");
            assert_eq!(s.span_total(SpanId::TransitionWait), traced.transition_ns);
            assert_eq!(s.span_total(SpanId::IbarrierWait), traced.barrier_wait_ns);
            if strategy != ReduceStrategy::Ireduce {
                assert_eq!(s.span_total(SpanId::Reduce), traced.reduce_ns, "{strategy:?}");
            }
            assert_eq!(s.counter(CounterId::Samples), traced.samples, "{strategy:?}");
            assert_eq!(s.counter(CounterId::Epochs), traced.epochs);
            assert_eq!(s.counter(CounterId::BytesReduced), traced.comm_bytes);
            assert_eq!(s.span_total(SpanId::Diameter), traced.diameter_ns);
            assert_eq!(s.span_total(SpanId::Calibration), traced.calibration_ns);
            assert_eq!(s.span_total(SpanId::AdaptiveSampling), traced.ads_ns);
            let overlap = s.reduction_overlap();
            assert!((0.0..=1.0).contains(&overlap), "{strategy:?}: overlap {overlap}");
        }
    }

    #[test]
    fn crashed_rank_shrinks_the_cluster_and_still_terminates() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(4, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        // Collective join 6 maps to round (6 − 4) / 2 = 1.
        let plan = FaultPlan::ideal(0).with_crash_at_collective(2, 6);
        let r = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        assert_eq!(r.ranks_lost, 1, "the scheduled crash must fire");
        assert!(r.recovery_ns > 0, "recovery must cost virtual time");
        assert!(r.samples > 0);
        assert!(r.epochs >= 1, "the run must fold at least one healthy round");
        let exact = kadabra_baselines_brandes(&g);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} after recovery");
        // Bit-reproducible from (plan, seed), like every other DES run.
        let again = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        assert_eq!(r.scores, again.scores);
        assert_eq!(r.ads_ns, again.ads_ns);
        assert_eq!(r.recovery_ns, again.recovery_ns);
        // A healthy plan loses nothing and books no recovery.
        let healthy = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        assert_eq!(healthy.ranks_lost, 0);
        assert_eq!(healthy.recovery_ns, 0);
    }

    #[test]
    fn crash_recovery_lands_in_the_event_trace() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(4, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let plan = FaultPlan::ideal(0).with_crash_at_collective(3, 4);
        let base = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        let mut log = EventLog::new();
        let traced =
            simulate_traced(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan), Some(&mut log));
        // Recording stays a pure observer through a crash.
        assert_eq!(base.scores, traced.scores);
        assert_eq!(base.ads_ns, traced.ads_ns);
        // The recovery columns follow the one-schema rule like every other.
        let s = log.summary();
        assert_eq!(s.span_total(SpanId::Recovery), traced.recovery_ns);
        assert_eq!(s.counter(CounterId::RanksLost), traced.ranks_lost);
        assert_eq!(s.counter(CounterId::BytesReduced), traced.comm_bytes);
        assert_eq!(s.counter(CounterId::Samples), traced.samples, "discarded rounds stay out");
    }

    #[test]
    fn crash_schedule_mapping_is_coarse_but_sound() {
        // AtCollective: past the four setup joins, two joins per round.
        let p = FaultPlan::ideal(1).with_crash_at_collective(2, 9);
        assert_eq!(crash_schedule(Some(&p), 4), Some((2, 2)));
        // Rank 0 is remapped (the DES pins root bookkeeping to proc 0).
        let p = FaultPlan::ideal(1).with_crash_at_collective(0, 4);
        assert_eq!(crash_schedule(Some(&p), 4), Some((1, 0)));
        // AfterPolls without injected delay never fires, as in the runtime.
        let p = FaultPlan::ideal(1).with_crash_after_polls(2, 12);
        assert_eq!(crash_schedule(Some(&p), 4), None);
        let p = FaultPlan::ideal(1).with_collective_delay(1, 5).with_crash_after_polls(2, 12);
        assert_eq!(crash_schedule(Some(&p), 4), Some((2, 2)));
        // A sole rank cannot shrink; crash-free plans schedule nothing.
        let p = FaultPlan::ideal(1).with_crash_at_collective(0, 9);
        assert_eq!(crash_schedule(Some(&p), 1), None);
        assert_eq!(crash_schedule(Some(&FaultPlan::ideal(1)), 4), None);
        assert_eq!(crash_schedule(None, 4), None);
    }

    #[test]
    fn planned_join_grows_the_cluster_and_predicts_elastic_speedup() {
        let g = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        let prepared = kadabra_core::prepare(&g, &cfg);
        let cost = CostModel::synthetic(100_000);
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(2, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let static_run = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        let plan = FaultPlan::ideal(0).with_join(1, 2);
        let grown = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        assert_eq!(grown.ranks_joined, 2, "the join point must admit both standbys");
        assert!(grown.rebalance_ns > 0, "the grow window must cost virtual time");
        // The tentpole prediction: doubling the world mid-run beats the
        // static continuation even after paying the newcomers' bootstrap.
        assert!(
            grown.ads_ns < static_run.ads_ns,
            "elastic run must be faster: {} !< {}",
            grown.ads_ns,
            static_run.ads_ns
        );
        // The statistical guarantee survives the membership change.
        let exact = kadabra_baselines_brandes(&g);
        let worst =
            grown.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} across a grow");
        // Bit-reproducible from (plan, seed), like every other DES run.
        let again = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        assert_eq!(grown.scores, again.scores);
        assert_eq!(grown.ads_ns, again.ads_ns);
        assert_eq!(grown.rebalance_ns, again.rebalance_ns);
        // Join-free plans stay bit-identical to the unperturbed run.
        let ideal = FaultPlan::ideal(7);
        let r = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&ideal));
        assert_eq!(r.scores, static_run.scores);
        assert_eq!(r.ads_ns, static_run.ads_ns);
        assert_eq!(r.ranks_joined, 0);
        assert_eq!(r.rebalance_ns, 0);
        // At ε 0.035 the adaptive phase runs well past the join round, so
        // the doubled world has rounds left to pay back the bootstrap: the
        // grown run must finish at least 1.2× sooner (it read 1.41×).
        let cfg = KadabraConfig { epsilon: 0.035, delta: 0.1, seed: 42, ..Default::default() };
        let prepared = kadabra_core::prepare(&g, &cfg);
        let static_run = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
        let plan = FaultPlan::ideal(42).with_join(1, 2);
        let grown = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        assert_eq!(grown.ranks_joined, 2);
        let speedup = static_run.ads_ns as f64 / grown.ads_ns as f64;
        assert!(speedup >= 1.2, "growing at round 1 sped the run up only {speedup:.2}x");
    }

    #[test]
    fn steal_decouples_round_latency_from_straggler_factor() {
        let (g, cfg, prepared, cost) = setup();
        let spec = ClusterSpec::default();
        let base = SimConfig {
            shape: shape(4, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let stealing = SimConfig { steal: true, ..base };
        let run = |sim: &SimConfig, factor: u64| {
            let plan = FaultPlan::ideal(0).with_straggler(1, factor);
            simulate_perturbed(&g, &cfg, &prepared, sim, &spec, &cost, Some(&plan))
        };
        let (nosteal4, nosteal16) = (run(&base, 4), run(&base, 16));
        let (steal4, steal16) = (run(&stealing, 4), run(&stealing, 16));
        // Stealing moves work and books it; the static runs move nothing.
        assert!(steal4.samples_stolen > 0);
        assert!(steal16.samples_stolen > steal4.samples_stolen);
        assert_eq!(nosteal4.samples_stolen, 0);
        // Stealing beats waiting behind the straggler at every factor.
        assert!(steal4.ads_ns < nosteal4.ads_ns);
        assert!(steal16.ads_ns < nosteal16.ads_ns);
        // The acceptance criterion: without steal, round latency tracks the
        // straggler factor (4× the factor ≈ 4× the run); with steal the
        // straggler keeps only n0/factor, so the factor nearly cancels and
        // the run time plateaus.
        let growth_nosteal = nosteal16.ads_ns as f64 / nosteal4.ads_ns as f64;
        let growth_steal = steal16.ads_ns as f64 / steal4.ads_ns as f64;
        assert!(growth_nosteal > 2.0, "static latency must track the factor: {growth_nosteal}");
        assert!(growth_steal < 1.3, "stolen latency must plateau: {growth_steal}");
        // ε still holds under redistribution, bit-reproducibly.
        let exact = kadabra_baselines_brandes(&g);
        let worst =
            steal16.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst} under steal");
        let again = run(&stealing, 16);
        assert_eq!(steal16.scores, again.scores);
        assert_eq!(steal16.ads_ns, again.ads_ns);
        assert_eq!(steal16.samples_stolen, again.samples_stolen);
        // The flag is inert without stragglers: same bits as the plain run.
        let plain = simulate(&g, &cfg, &prepared, &base, &spec, &cost);
        let inert = simulate_perturbed(
            &g,
            &cfg,
            &prepared,
            &stealing,
            &spec,
            &cost,
            Some(&FaultPlan::ideal(3)),
        );
        assert_eq!(plain.scores, inert.scores);
        assert_eq!(plain.ads_ns, inert.ads_ns);
        assert_eq!(inert.samples_stolen, 0);
    }

    #[test]
    fn grow_and_steal_compose_and_land_in_the_event_trace() {
        // A tighter ε keeps the run going past both join rounds.
        let g = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.0, seed: 0 });
        let cfg = KadabraConfig::new(0.05, 0.1);
        let prepared = kadabra_core::prepare(&g, &cfg);
        let cost = CostModel::synthetic(100_000);
        let spec = ClusterSpec::default();
        let sim = SimConfig {
            shape: shape(3, 2, 2),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: true,
        };
        let plan = FaultPlan::ideal(0).with_straggler(1, 6).with_join(1, 1).with_join(1, 1);
        let base = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan));
        assert_eq!(base.ranks_joined, 2, "both join points must fire");
        assert!(base.samples_stolen > 0, "the straggler must shed quota");
        assert!(base.rebalance_ns > 0);
        assert!(base.samples > 0 && base.epochs >= 1);
        // Recording is a pure observer through grows and steals, and the new
        // columns follow the one-schema rule like every other.
        let mut log = EventLog::new();
        let traced =
            simulate_traced(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&plan), Some(&mut log));
        assert_eq!(base.scores, traced.scores);
        assert_eq!(base.ads_ns, traced.ads_ns);
        let s = log.summary();
        assert_eq!(s.span_total(SpanId::Rebalance), traced.rebalance_ns);
        assert_eq!(s.counter(CounterId::RanksJoined), traced.ranks_joined);
        assert_eq!(s.counter(CounterId::SamplesStolen), traced.samples_stolen);
        assert_eq!(s.counter(CounterId::Samples), traced.samples);
    }

    #[test]
    fn comm_bytes_match_frame_accounting() {
        let (g, cfg, prepared, cost) = setup();
        let sim = SimConfig {
            shape: shape(4, 2, 1),
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let r = simulate(&g, &cfg, &prepared, &sim, &ClusterSpec::default(), &cost);
        assert_eq!(r.comm_bytes, r.epochs * 4 * (64 + 1) * 8);
    }
}
