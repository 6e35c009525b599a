//! Chaos-observed variants of Algorithms 1 and 2: the paper's MPI drivers
//! executed under a deterministic [`FaultPlan`], instrumented with the
//! invariant probes the chaos conformance suite asserts on.
//!
//! # What "observed" changes
//!
//! The plain drivers ([`crate::kadabra_mpi_flat`],
//! [`crate::kadabra_epoch_mpi`]) let every overlap loop run free: how many
//! samples a rank squeezes in while a non-blocking collective progresses
//! depends on OS scheduling, so two runs produce different (all correct)
//! scores. The observed variants close that door so perturbed runs are
//! **bit-reproducible** from `(plan, seed)`:
//!
//! * every non-blocking request polls deterministically (the engine's
//!   logical clock — see `kadabra_mpisim`'s `fault` module),
//! * epoch-framework workers take an exact plan-derived per-epoch sample
//!   quota instead of free-running,
//! * thread 0 overlaps each transition wait with a plan-derived sample
//!   count, then spin-waits without sampling.
//!
//! The algorithms' structure — what is communicated, when rounds end, how
//! the stopping rule sees aggregated state — is unchanged; only the
//! *degrees of freedom the paper already treats as adversarial* (who is
//! slow, by how much) move from the OS into the plan. Plans may also
//! schedule **rank crashes** (`FaultPlan::with_crash_at_collective` /
//! `with_crash_after_polls`): the observed drivers then exercise the full
//! shrink-and-continue recovery of DESIGN.md §10 — still bit-reproducibly,
//! because the crash coordinates, the failure detection, and every
//! post-recovery schedule are functions of the plan.
//!
//! # Probes
//!
//! With [`ChaosOptions::probe`], every rank reports its global round to a
//! shared [`CrossEpochProbe`], which audits the paper's Section IV-C claim
//! (cross-process epoch gap ≤ 1 past every completed reduction point);
//! ranks lost to crashes are retired from the audit when the survivors
//! shrink. With [`ChaosOptions::conservation`], every round runs one extra
//! all-reduce of `[Σc̃, τ]` pairs — the frames just sent *and* the
//! cumulative recovery ledgers — and the root asserts both that its fold
//! absorbed exactly what was sent and that its global state equals the sum
//! of all live ledgers: no sample is lost, double-counted, or resurrected
//! anywhere in the reduce chain **or across crash recoveries**. On
//! violation the panic message carries the plan summary, which is all that
//! is needed to replay the failure.

use crate::config::{ClusterShape, KadabraConfig};
use crate::phases::{
    calibration_samples_for_thread, diameter_phase, fold_and_check, scores_from_counts,
};
use crate::recovery::{shrink_and_rebuild, SampleLedger};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use crate::shared::{phase_timings_from, sampling_stats_from};
use crate::{bounds, calibration::Calibration, epoch_mpi::hierarchical_comms};
use kadabra_epoch::{CrossEpochProbe, EpochFramework};
use kadabra_graph::Graph;
use kadabra_mpisim::{CommError, Communicator, FaultPlan, Universe};
use kadabra_telemetry::{CounterId, SpanId, Summary, Telemetry};
use std::sync::Arc;

/// Event capacity per `(rank, thread)` recorder when a chaos run traces.
const CHAOS_TRACE_CAPACITY: usize = 1 << 14;

/// Configuration of a chaos-observed run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// The deterministic fault plan the simulated world runs under.
    pub plan: FaultPlan,
    /// Audit the cross-process epoch-distance invariant every round.
    pub probe: bool,
    /// Run the per-round aggregated-sample conservation check.
    pub conservation: bool,
    /// Buffer a deterministic event trace (logical clock only — no wall
    /// readings) in addition to the always-on phase totals. Toggling this
    /// must not change the computation; `tests/determinism_matrix.rs`
    /// asserts scores are bit-identical either way.
    pub telemetry: bool,
}

impl ChaosOptions {
    /// Everything on, under `plan` — what the conformance suite uses.
    pub fn all(plan: FaultPlan) -> Self {
        ChaosOptions { plan, probe: true, conservation: true, telemetry: false }
    }

    /// Enables the deterministic event trace.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

/// The registry a chaos run records into: logical-clock-only (wall readings
/// would differ between reruns of the same plan), buffered only when the
/// caller asked for a trace.
fn telemetry_for(opts: &ChaosOptions) -> Telemetry {
    if opts.telemetry {
        Telemetry::deterministic(CHAOS_TRACE_CAPACITY)
    } else {
        Telemetry::deterministic(0)
    }
}

/// Outcome of a chaos-observed run: the algorithm's result plus what the
/// probes saw.
#[derive(Debug)]
pub struct ChaosReport {
    /// The surviving root's betweenness result, exactly as the plain driver
    /// returns it (rank 0's, unless a crash promoted a new root).
    pub result: BetweennessResult,
    /// Largest cross-process round gap any completion event observed
    /// (0 when the probe was disabled).
    pub max_epoch_gap: u32,
    /// Completion events the epoch probe audited.
    pub probe_observations: u64,
    /// Audits that violated the gap-≤-1 invariant (must be 0).
    pub probe_violations: u64,
    /// Rounds the conservation check covered.
    pub conservation_rounds: u64,
    /// Ranks excluded by communicator shrinks, as seen by the surviving
    /// root (0 for a crash-free plan).
    pub ranks_lost: u64,
    /// Shrink-and-rebuild recoveries the surviving root performed.
    pub recoveries: u64,
    /// The plan's one-line reproduction handle (print this on failure).
    pub plan_summary: String,
    /// Telemetry phase breakdown of the run. Chaos runs record on the
    /// logical clock only, so the breakdown (tick durations, sample /
    /// epoch / byte counters) is itself bit-reproducible from the plan.
    pub phases: Summary,
}

impl ChaosReport {
    /// Panics unless every enabled probe came back clean — the single
    /// assertion a chaos test needs after a perturbed run.
    pub fn assert_invariants(&self) {
        assert_eq!(
            self.probe_violations, 0,
            "epoch-distance invariant violated (max gap {}) [{}]",
            self.max_epoch_gap, self.plan_summary
        );
        assert!(
            self.max_epoch_gap <= 1,
            "cross-process epoch gap {} > 1 [{}]",
            self.max_epoch_gap,
            self.plan_summary
        );
    }
}

/// What one observed rank hands back to the driver entry point.
struct ObservedOutcome {
    result: Option<BetweennessResult>,
    rounds: u64,
    ranks_lost: u64,
    recoveries: u64,
    is_leader: bool,
    local_bytes: u64,
    leader_bytes: u64,
    world_bytes: u64,
}

impl ObservedOutcome {
    /// The outcome of a rank whose scheduled crash fired.
    fn dead() -> Self {
        ObservedOutcome {
            result: None,
            rounds: 0,
            ranks_lost: 0,
            recoveries: 0,
            is_leader: false,
            local_bytes: 0,
            leader_bytes: 0,
            world_bytes: 0,
        }
    }
}

/// Panic shared by both observed drivers for setup-phase communicator
/// failures that are not this rank's own crash (crash corpora schedule
/// crashes past the setup collectives).
fn setup_panic(e: CommError) -> ! {
    panic!("rank failure during setup phases (schedule crashes in the adaptive phase): {e}")
}

// ---------------------------------------------------------------------------
// Algorithm 1, observed
// ---------------------------------------------------------------------------

/// Runs **Algorithm 1** (`kadabra_mpi_flat`) under a fault plan, with
/// probes. Bit-reproducible: identical `(g, cfg, ranks, opts)` give
/// identical scores — including runs whose plan crashes ranks mid-flight.
pub fn kadabra_mpi_flat_observed(
    g: &Graph,
    cfg: &KadabraConfig,
    ranks: usize,
    opts: &ChaosOptions,
) -> ChaosReport {
    cfg.validate();
    assert!(ranks >= 1);
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
    let probe = opts.probe.then(|| Arc::new(CrossEpochProbe::new(ranks)));
    let tel = telemetry_for(opts);
    let outcomes = Universe::run_with_plan(ranks, opts.plan.clone(), |comm| {
        flat_rank_main(g, cfg, comm, opts, probe.as_deref(), &tel)
    });
    let root = outcomes
        .into_iter()
        .find(|o| o.result.is_some())
        // xtask: allow(unwrap) — exactly one rank (the surviving root)
        // returns Some.
        .expect("the surviving root produces the result");
    finish_report(root, probe, opts, &tel)
}

/// Per-rank body of observed Algorithm 1. Mirrors `mpi::rank_main`
/// (including shrink-and-continue recovery); the deviations are commented.
fn flat_rank_main(
    g: &Graph,
    cfg: &KadabraConfig,
    comm: Communicator,
    opts: &ChaosOptions,
    probe: Option<&CrossEpochProbe>,
    tel: &Telemetry,
) -> ObservedOutcome {
    let n = g.num_nodes();
    let my_world = comm.world_rank();
    let ranks = comm.size();
    let w = tel.writer(my_world as u32, 0);
    comm.set_tracer(w.clone());

    let sp = w.begin(SpanId::Diameter);
    let vd_bcast = if comm.rank() == 0 {
        let (vd, _) = diameter_phase(g, cfg);
        comm.bcast_u64(0, Some(vd as u64))
    } else {
        comm.bcast_u64(0, None)
    };
    let vd = match vd_bcast {
        Ok(v) => v as u32,
        Err(e) if e.failed_rank() == Some(my_world) => return ObservedOutcome::dead(),
        Err(e) => setup_panic(e),
    };
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let sp = w.begin(SpanId::Calibration);
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, 0);
    let mut counts = vec![0u64; n + 1];
    let taken =
        calibration_samples_for_thread(g, &mut sampler, &mut counts[..n], cfg, omega, ranks);
    counts[n] = taken;
    let total = match comm.allreduce_sum_u64(&counts) {
        Ok(t) => t,
        Err(e) if e.failed_rank() == Some(my_world) => return ObservedOutcome::dead(),
        Err(e) => setup_panic(e),
    };
    let calibration = Calibration::from_counts(&total[..n], total[n], cfg);
    w.end(sp);

    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let mut comm = comm;
    let mut n0 = cfg.n0(ranks);
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET);
    let mut s_loc = vec![0u64; n + 1];
    let mut s_global = vec![0u64; n + 1];
    let mut ledger = SampleLedger::new(n);
    let mut rounds = 0u64;
    let mut ranks_lost = 0u64;
    let mut recoveries = 0u64;
    let mut dead = false;

    let sample_into = |frame: &mut Vec<u64>, sampler: &mut ThreadSampler| {
        for &v in sampler.sample(g) {
            frame[v as usize] += 1;
        }
        frame[n] += 1;
    };

    let mut round = 0u32;
    loop {
        w.set_epoch(round);
        // Probe: the store must precede this round's first collective join
        // (see the probe's happens-before argument).
        if let Some(p) = probe {
            p.begin_round(my_world, round);
        }
        let round_result = (|| -> Result<bool, CommError> {
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
            let snapshot = std::mem::replace(&mut s_loc, vec![0u64; n + 1]);
            let mut overlapped = 0u64;
            // Deterministic overlap: under the plan, test() returns false a
            // plan-derived number of times, then resolves (or fails — also
            // at a plan-derived poll).
            let sp = w.begin(SpanId::IreduceWait);
            let mut req = comm.ireduce_sum_u64(0, &snapshot)?;
            while !req.test()? {
                sample_into(&mut s_loc, &mut sampler);
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::BytesReduced, snapshot.len() as u64 * 8);
            // Observed completion: checkpoint the frame (see mpi::rank_main).
            ledger.confirm(&snapshot);

            let mut d = 0u64;
            let mut folded = [0u64; 2]; // root: [Σc̃, τ] absorbed this round
            if comm.rank() == 0 {
                // xtask: allow(unwrap) — the request completed (test() was
                // true) and this rank is the reduction root, so both layers
                // are Some.
                let reduced = req.into_result().unwrap().expect("root receives reduction");
                folded = [reduced[..n].iter().sum(), reduced[n]];
                let sp = w.begin(SpanId::Check);
                let stop =
                    fold_and_check(&mut s_global, &reduced, cfg.epsilon, omega, &calibration);
                w.end(sp);
                d = u64::from(stop);
            }

            // Conservation: what all ranks sent this round must equal what
            // the root's fold absorbed, and — the recovery invariant — the
            // root's global state must equal the sum of all live ledgers.
            if opts.conservation {
                let sent = [
                    snapshot[..n].iter().sum::<u64>(),
                    snapshot[n],
                    ledger.frame()[..n].iter().sum::<u64>(),
                    ledger.frame()[n],
                ];
                let totals = comm.allreduce_sum_u64(&sent)?;
                if comm.rank() == 0 {
                    assert_eq!(
                        [totals[0], totals[1]],
                        folded,
                        "sample conservation violated at round {round} [{}]",
                        opts.plan.summary()
                    );
                    assert_eq!(
                        [totals[2], totals[3]],
                        [s_global[..n].iter().sum::<u64>(), s_global[n]],
                        "ledger conservation violated at round {round} [{}]",
                        opts.plan.summary()
                    );
                }
                rounds += 1;
            }

            let sp = w.begin(SpanId::BcastStop);
            let mut breq = comm.ibcast_u64(0, (comm.rank() == 0).then_some(d))?;
            while !breq.test()? {
                sample_into(&mut s_loc, &mut sampler);
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::Samples, n0 + overlapped);
            w.count(CounterId::Epochs, 1);
            // xtask: allow(unwrap) — test() returned true above.
            Ok(breq.into_result().unwrap() != 0)
        })();

        match round_result {
            Ok(stop) => {
                // The round's full reduction/broadcast chain resolved:
                // audit the cross-process gap.
                if let Some(p) = probe {
                    p.complete_round(my_world, round);
                }
                if stop {
                    break;
                }
                round += 1;
            }
            Err(CommError::RankFailed { rank }) if rank == my_world => {
                dead = true;
                break;
            }
            Err(CommError::RankFailed { .. }) => {
                let prev_members = comm.members().to_vec();
                match shrink_and_rebuild(&comm, &ledger, &w) {
                    Ok((small, rebuilt)) => {
                        recoveries += 1;
                        ranks_lost += (prev_members.len() - small.size()) as u64;
                        if let Some(p) = probe {
                            for m in prev_members.iter().filter(|m| !small.members().contains(m)) {
                                p.retire(*m);
                            }
                        }
                        comm = small;
                        s_global = rebuilt;
                        n0 = cfg.n0(comm.size());
                        round += 1; // the failed round's frames are discarded
                    }
                    Err(e) if e.failed_rank() == Some(my_world) => {
                        dead = true;
                        break;
                    }
                    Err(e) => panic!("unrecoverable communicator failure during recovery: {e}"),
                }
            }
            Err(e) => panic!("unrecoverable communicator failure: {e}"),
        }
    }
    w.end(sp_ads);
    if dead {
        return ObservedOutcome::dead();
    }

    let result = (comm.rank() == 0).then(|| {
        let tau = s_global[n];
        let rec = w.recorder();
        let mut stats = sampling_stats_from(rec);
        stats.samples = tau;
        stats.comm_bytes = comm.bytes_transferred();
        BetweennessResult {
            scores: scores_from_counts(&s_global[..n], tau),
            samples: tau,
            omega,
            vertex_diameter: vd,
            timings: phase_timings_from(rec),
            stats,
        }
    });
    ObservedOutcome {
        result,
        rounds,
        ranks_lost,
        recoveries,
        is_leader: false,
        local_bytes: 0,
        leader_bytes: 0,
        world_bytes: 0,
    }
}

// ---------------------------------------------------------------------------
// Algorithm 2, observed
// ---------------------------------------------------------------------------

/// Runs **Algorithm 2** (`kadabra_epoch_mpi`) under a fault plan, with
/// probes. Bit-reproducible: identical `(g, cfg, shape, opts)` give
/// identical scores — including worker-thread sample placement, which the
/// plain driver leaves to the scheduler, and crash recovery schedules.
pub fn kadabra_epoch_mpi_observed(
    g: &Graph,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    opts: &ChaosOptions,
) -> ChaosReport {
    cfg.validate();
    shape.validate();
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
    let probe = opts.probe.then(|| Arc::new(CrossEpochProbe::new(shape.ranks)));
    let tel = telemetry_for(opts);
    let outcomes = Universe::run_with_plan(shape.ranks, opts.plan.clone(), |comm| {
        epoch_rank_main(g, cfg, shape, comm, opts, probe.as_deref(), &tel)
    });
    // Byte accounting as in the plain driver: node-local engines once per
    // node (via the node's final leader), shared engines by their maximum
    // (identical at every surviving member).
    let comm_bytes: u64 =
        outcomes.iter().filter(|o| o.is_leader).map(|o| o.local_bytes).sum::<u64>()
            + outcomes.iter().map(|o| o.leader_bytes).fold(0, u64::max)
            + outcomes.iter().map(|o| o.world_bytes).fold(0, u64::max);
    let mut root = outcomes
        .into_iter()
        .find(|o| o.result.is_some())
        // xtask: allow(unwrap) — exactly one rank (the surviving root)
        // returns Some.
        .expect("the surviving root produces the result");
    if let Some(r) = root.result.as_mut() {
        r.stats.comm_bytes = comm_bytes;
    }
    finish_report(root, probe, opts, &tel)
}

/// Per-rank body of observed Algorithm 2. Mirrors `epoch_mpi::rank_main`
/// (including recovery with hierarchy re-splitting); the deviations
/// (deterministic worker quotas, deterministic transition overlap, probes)
/// are commented.
fn epoch_rank_main(
    g: &Graph,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    world: Communicator,
    opts: &ChaosOptions,
    probe: Option<&CrossEpochProbe>,
    tel: &Telemetry,
) -> ObservedOutcome {
    let n = g.num_nodes();
    let my_world = world.world_rank();
    let threads = shape.threads_per_rank;
    let plan = &opts.plan;
    let w = tel.writer(my_world as u32, 0);
    // Attach before splitting so the derived communicators inherit it.
    world.set_tracer(w.clone());

    let (local, is_leader, leaders) = match hierarchical_comms(&world, shape) {
        Ok(t) => t,
        Err(e) if e.failed_rank() == Some(my_world) => return ObservedOutcome::dead(),
        Err(e) => setup_panic(e),
    };

    let sp = w.begin(SpanId::Diameter);
    let vd_bcast = if world.rank() == 0 {
        let (vd, _) = diameter_phase(g, cfg);
        world.bcast_u64(0, Some(vd as u64))
    } else {
        world.bcast_u64(0, None)
    };
    let vd = match vd_bcast {
        Ok(v) => v as u32,
        Err(e) if e.failed_rank() == Some(my_world) => return ObservedOutcome::dead(),
        Err(e) => setup_panic(e),
    };
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let sp_calib = w.begin(SpanId::Calibration);
    let total_threads = shape.total_threads();
    let mut calib = vec![0u64; n + 1];
    crossbeam::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move |_| {
                    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, t);
                    let mut counts = vec![0u64; n];
                    let taken = calibration_samples_for_thread(
                        g,
                        &mut sampler,
                        &mut counts,
                        cfg,
                        omega,
                        total_threads,
                    );
                    (counts, taken)
                })
            })
            .collect();
        for h in handles {
            // xtask: allow(unwrap) — a sampler-thread panic is a bug; abort
            // the computation with its message.
            let (counts, taken) = h.join().expect("calibration worker");
            for (a, c) in calib.iter_mut().zip(counts) {
                *a += c;
            }
            calib[n] += taken;
        }
    })
    // xtask: allow(unwrap) — children are joined above; see worker waiver.
    .expect("calibration scope");
    let total = match world.allreduce_sum_u64(&calib) {
        Ok(t) => t,
        Err(e) if e.failed_rank() == Some(my_world) => return ObservedOutcome::dead(),
        Err(e) => setup_panic(e),
    };
    let calibration = Calibration::from_counts(&total[..n], total[n], cfg);
    w.end(sp_calib);

    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let fw = EpochFramework::new(n, threads);
    let mut world = world;
    let mut local = local;
    let mut leaders = leaders;
    let mut is_leader = is_leader;
    let mut n0 = cfg.n0(total_threads);
    let mut s_global = vec![0u64; n + 1];
    let mut ledger = SampleLedger::new(n);
    let mut rounds = 0u64;
    let mut ranks_lost = 0u64;
    let mut recoveries = 0u64;
    let mut local_bytes_acc = 0u64;
    let mut leader_bytes_acc = 0u64;
    let mut dead = false;
    // Worker quotas are derived from the launch-time n0; thread 0's own
    // batch rescales after a shrink, which is enough to keep the schedule a
    // pure function of the plan.
    let quota_n0 = n0;

    crossbeam::scope(|s| {
        // Workers: instead of free-running (sample count per epoch decided
        // by the scheduler), each takes an exact plan-derived quota for its
        // current epoch, then spin-waits for the transition command. The
        // content of every aggregated frame is thus a pure function of the
        // plan. The quota includes the plan's "slow thread" knob: a slow
        // thread contributes fewer samples per epoch, skewing frames the
        // way a de-scheduled thread would.
        for t in 1..threads {
            let fw = &fw;
            let tw = tel.writer(my_world as u32, t as u32);
            s.spawn(move |_| {
                let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET + t);
                let mut h = fw.handle(t);
                let mut epoch = 0u32;
                let mut drawn = 0u64;
                'run: loop {
                    let quota = plan.worker_quota(my_world, t, epoch, quota_n0);
                    sampler.sample_batch(g, quota, |interior| h.record_sample(interior));
                    drawn += quota;
                    loop {
                        if fw.check_transition(&mut h) {
                            break;
                        }
                        if fw.should_terminate() {
                            break 'run;
                        }
                        std::hint::spin_loop();
                    }
                    epoch += 1;
                }
                // One flush at exit keeps the hot loop free of stores.
                tw.count(CounterId::Samples, drawn);
            });
        }

        // Thread 0 (Algorithm 2, lines 10-31).
        let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET);
        let mut h = fw.handle(0);
        let mut epoch = 0u32;
        loop {
            w.set_epoch(epoch);
            if let Some(p) = probe {
                p.begin_round(my_world, epoch);
            }
            let round_result = (|| -> Result<bool, CommError> {
                let sp = w.begin(SpanId::SampleBatch);
                sampler.sample_batch(g, n0, |interior| h.record_sample(interior));
                w.end(sp);
                let mut overlapped = 0u64;
                fw.force_transition(&mut h, epoch);
                // Deterministic transition overlap: the framework has no
                // Request to meter polls on, so the plan supplies the
                // overlap sample count directly; the residual wait samples
                // nothing.
                let sp = w.begin(SpanId::TransitionWait);
                let planned_overlap = plan.transition_overlap(my_world, epoch);
                sampler.sample_batch(g, planned_overlap, |interior| h.record_sample(interior));
                overlapped += planned_overlap;
                while !fw.transition_done(epoch) {
                    std::hint::spin_loop();
                }
                w.end(sp);

                let sp = w.begin(SpanId::FrameAggregate);
                let mut epoch_frame = vec![0u64; n + 1];
                let tau_epoch = fw.aggregate_epoch(epoch, &mut epoch_frame[..n]);
                epoch_frame[n] = tau_epoch;
                w.end(sp);
                w.count(CounterId::BytesReduced, epoch_frame.len() as u64 * 8);

                let sp = w.begin(SpanId::IreduceWait);
                let mut req = local.ireduce_sum_u64(0, &epoch_frame)?;
                while !req.test()? {
                    let interior = sampler.sample(g);
                    h.record_sample(interior);
                    overlapped += 1;
                }
                w.end(sp);
                // The node reduce completed: checkpoint this rank's frame
                // (see epoch_mpi::rank_main).
                ledger.confirm(&epoch_frame);
                // xtask: allow(unwrap) — test() returned true, so the
                // request completed and its result is present.
                let node_frame = req.into_result().unwrap();

                let mut d = 0u64;
                let mut folded = [0u64; 2]; // root: [Σc̃, τ] absorbed
                if is_leader {
                    let sp = w.begin(SpanId::IbarrierWait);
                    let mut bar = leaders.ibarrier()?;
                    while !bar.test()? {
                        let interior = sampler.sample(g);
                        h.record_sample(interior);
                        overlapped += 1;
                    }
                    w.end(sp);
                    // xtask: allow(unwrap) — this rank is its node's local
                    // root, so the local reduce delivered Some to it.
                    let frame = node_frame.expect("leader holds node frame");
                    let sp = w.begin(SpanId::Reduce);
                    let reduced = leaders.reduce_sum_u64(0, &frame)?;
                    w.end(sp);
                    w.count(CounterId::BytesReduced, frame.len() as u64 * 8);
                    if world.rank() == 0 {
                        // xtask: allow(unwrap) — the root is the leader
                        // root, so the reduction delivered Some to it.
                        let reduced = reduced.expect("leader root receives reduction");
                        folded = [reduced[..n].iter().sum(), reduced[n]];
                        let sp = w.begin(SpanId::Check);
                        let stop = fold_and_check(
                            &mut s_global,
                            &reduced,
                            cfg.epsilon,
                            omega,
                            &calibration,
                        );
                        w.end(sp);
                        d = u64::from(stop);
                    }
                }

                // Conservation across the two-level reduction, plus the
                // recovery-ledger invariant (see flat_rank_main).
                if opts.conservation {
                    let sent = [
                        epoch_frame[..n].iter().sum::<u64>(),
                        epoch_frame[n],
                        ledger.frame()[..n].iter().sum::<u64>(),
                        ledger.frame()[n],
                    ];
                    let totals = world.allreduce_sum_u64(&sent)?;
                    if world.rank() == 0 {
                        assert_eq!(
                            [totals[0], totals[1]],
                            folded,
                            "sample conservation violated at epoch {epoch} [{}]",
                            plan.summary()
                        );
                        assert_eq!(
                            [totals[2], totals[3]],
                            [s_global[..n].iter().sum::<u64>(), s_global[n]],
                            "ledger conservation violated at epoch {epoch} [{}]",
                            plan.summary()
                        );
                    }
                    rounds += 1;
                }

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

            match round_result {
                Ok(stop) => {
                    if let Some(p) = probe {
                        p.complete_round(my_world, epoch);
                    }
                    if stop {
                        fw.signal_termination();
                        break;
                    }
                    epoch += 1;
                }
                Err(CommError::RankFailed { rank }) if rank == my_world => {
                    dead = true;
                    fw.signal_termination();
                    break;
                }
                Err(CommError::RankFailed { .. }) => {
                    loop {
                        let prev_members = world.members().to_vec();
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
                            Ok(()) => {
                                recoveries += 1;
                                ranks_lost += (prev_members.len() - world.size()) as u64;
                                if let Some(p) = probe {
                                    for m in
                                        prev_members.iter().filter(|m| !world.members().contains(m))
                                    {
                                        p.retire(*m);
                                    }
                                }
                                epoch += 1; // the failed round is discarded
                                break;
                            }
                            Err(CommError::RankFailed { rank }) if rank != my_world => continue,
                            Err(e) if e.failed_rank() == Some(my_world) => {
                                dead = true;
                                fw.signal_termination();
                                break;
                            }
                            Err(e) => {
                                panic!("unrecoverable communicator failure during recovery: {e}")
                            }
                        }
                    }
                    if dead {
                        break;
                    }
                }
                Err(e) => panic!("unrecoverable communicator failure: {e}"),
            }
        }
    })
    // xtask: allow(unwrap) — children are joined above; see worker waiver.
    .expect("adaptive sampling scope");
    w.end(sp_ads);
    if dead {
        return ObservedOutcome::dead();
    }

    let result = (world.rank() == 0).then(|| {
        let tau = s_global[n];
        let rec = w.recorder();
        let mut stats = sampling_stats_from(rec);
        stats.samples = tau;
        BetweennessResult {
            scores: scores_from_counts(&s_global[..n], tau),
            samples: tau,
            omega,
            vertex_diameter: vd,
            timings: phase_timings_from(rec),
            stats,
        }
    });
    ObservedOutcome {
        result,
        rounds,
        ranks_lost,
        recoveries,
        is_leader,
        local_bytes: local_bytes_acc + local.bytes_transferred(),
        leader_bytes: leader_bytes_acc + leaders.bytes_transferred(),
        world_bytes: world.bytes_transferred(),
    }
}

/// Assembles the [`ChaosReport`] from the surviving root's outcome, the
/// shared probe and the telemetry registry.
fn finish_report(
    root: ObservedOutcome,
    probe: Option<Arc<CrossEpochProbe>>,
    opts: &ChaosOptions,
    tel: &Telemetry,
) -> ChaosReport {
    let (max_epoch_gap, probe_observations, probe_violations) = match &probe {
        Some(p) => (p.max_gap(), p.observations(), p.violations()),
        None => (0, 0, 0),
    };
    ChaosReport {
        // xtask: allow(unwrap) — finish_report is only called with the
        // outcome selected for holding Some.
        result: root.result.expect("root outcome holds the result"),
        max_epoch_gap,
        probe_observations,
        probe_violations,
        conservation_rounds: root.rounds,
        ranks_lost: root.ranks_lost,
        recoveries: root.recoveries,
        plan_summary: opts.plan.summary(),
        phases: tel.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};

    fn small_graph() -> Graph {
        grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 })
    }

    #[test]
    fn flat_observed_is_bit_reproducible() {
        let g = small_graph();
        let cfg = KadabraConfig::new(0.1, 0.1);
        let opts = ChaosOptions::all(FaultPlan::from_seed(3));
        let a = kadabra_mpi_flat_observed(&g, &cfg, 3, &opts);
        let b = kadabra_mpi_flat_observed(&g, &cfg, 3, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
        assert_eq!(a.result.samples, b.result.samples);
        a.assert_invariants();
        assert!(a.probe_observations > 0);
        assert!(a.conservation_rounds > 0);
        assert_eq!(a.ranks_lost, 0);
    }

    #[test]
    fn epoch_observed_is_bit_reproducible() {
        let g = small_graph();
        let cfg = KadabraConfig::new(0.1, 0.1);
        let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
        let opts = ChaosOptions::all(FaultPlan::from_seed(7));
        let a = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        let b = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
        assert_eq!(a.result.samples, b.result.samples);
        a.assert_invariants();
    }

    #[test]
    fn different_plans_perturb_the_schedule() {
        // Different seeds must actually change the execution (sample totals
        // differ), otherwise the chaos corpus explores nothing. ε is tight
        // enough for several rounds, so overlapped samples reach the
        // aggregated totals.
        let g = small_graph();
        let cfg = KadabraConfig::new(0.04, 0.1);
        let a = kadabra_mpi_flat_observed(
            &g,
            &cfg,
            3,
            &ChaosOptions::all(FaultPlan::ideal(0).with_collective_delay(0, 3)),
        );
        let b = kadabra_mpi_flat_observed(
            &g,
            &cfg,
            3,
            &ChaosOptions::all(FaultPlan::ideal(0).with_collective_delay(50, 90)),
        );
        assert_ne!(
            a.result.samples, b.result.samples,
            "plans with very different delays produced identical schedules"
        );
    }

    #[test]
    fn probes_can_be_disabled() {
        let g = small_graph();
        let cfg = KadabraConfig::new(0.1, 0.1);
        let opts = ChaosOptions {
            plan: FaultPlan::ideal(1),
            probe: false,
            conservation: false,
            telemetry: false,
        };
        let r = kadabra_mpi_flat_observed(&g, &cfg, 2, &opts);
        assert_eq!(r.probe_observations, 0);
        assert_eq!(r.conservation_rounds, 0);
        assert!(r.result.samples > 0);
    }

    #[test]
    fn flat_observed_crash_recovery_keeps_every_invariant() {
        // One rank crashed mid-adaptive-phase: the run must shrink, keep
        // the epoch-gap and conservation invariants clean over the
        // survivors, and stay bit-reproducible from (plan, seed).
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let opts = ChaosOptions::all(FaultPlan::ideal(11).with_crash_at_collective(2, 6));
        let a = kadabra_mpi_flat_observed(&g, &cfg, 4, &opts);
        a.assert_invariants();
        assert_eq!(a.ranks_lost, 1, "[{}]", a.plan_summary);
        assert_eq!(a.recoveries, 1, "[{}]", a.plan_summary);
        assert!(a.conservation_rounds > 0);
        let b = kadabra_mpi_flat_observed(&g, &cfg, 4, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
        assert_eq!(a.result.samples, b.result.samples);
    }

    #[test]
    fn epoch_observed_crash_recovery_keeps_every_invariant() {
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
        let opts = ChaosOptions::all(FaultPlan::ideal(19).with_crash_at_collective(3, 9));
        let a = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        a.assert_invariants();
        assert_eq!(a.ranks_lost, 1, "[{}]", a.plan_summary);
        assert!(a.recoveries >= 1, "[{}]", a.plan_summary);
        let b = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
        assert_eq!(a.result.samples, b.result.samples);
    }
}
