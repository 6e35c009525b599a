//! Elastic scale-out variant of observed Algorithm 1: communicator grow,
//! ledger rebalancing, and cross-rank work stealing under a deterministic
//! [`FaultPlan`].
//!
//! # Grow and rebalance (DESIGN.md §15)
//!
//! The chaos drivers ([`crate::chaos`]) let capacity fall: a crash shrinks
//! the communicator and survivors rebuild global state from their
//! [`SampleLedger`]s. This module turns the dial the other way. A plan's
//! [`kadabra_mpisim::JoinPoint`]s schedule membership *growth*: at the start of the listed
//! global round, every member calls [`Communicator::grow`], standby ranks
//! parked by [`Universe::run_elastic`] are admitted, and the grown world
//! runs a two-step rebalance in lockstep with the newcomers' bootstrap:
//!
//! 1. **round handoff** — the root broadcasts the current round, so
//!    newcomers enter the adaptive loop exactly where the survivors are;
//! 2. **ledger rebuild** — one all-reduce of every member's cumulative
//!    ledger frame (newcomers contribute zeros) reconstructs `[Σc̃, τ]`;
//!    the root asserts the rebuilt state equals its pre-grow global state,
//!    so the ε-guarantee's sample accounting survives the membership change.
//!
//! Everyone then re-derives `n0` upward for the new world size and
//! newcomers take over their deterministic slice of the remaining budget —
//! their sampler streams are keyed by world rank, fixed at launch, so the
//! post-grow schedule is a pure function of `(plan, seed)`. The
//! [`CrossEpochProbe`] audits the epoch-gap invariant *across* the join:
//! standbys start excluded ([`CrossEpochProbe::with_standbys`]) and are
//! [`CrossEpochProbe::admit`]ed in-round.
//!
//! # Work stealing
//!
//! With [`ElasticOptions::steal`], ranks the plan marks as stragglers
//! (`rank_factor > 1`) keep only `n0 / factor` of their per-round quota;
//! the deficit is pre-partitioned across the non-straggler ranks, claimed
//! through the deterministic [`Communicator::steal_claim`] /
//! [`Communicator::steal_grant`] handshake, and drawn by the helpers from
//! the *straggler's* dedicated steal streams — so the estimate stays a pure
//! function of `(plan, seed)` while round latency stops tracking the
//! slowest rank's straggler factor (the quota a straggler must produce
//! before joining the round's reduction shrinks by its own factor).

use crate::config::KadabraConfig;
use crate::phases::{
    calibration_samples_for_thread, diameter_phase, fold_and_check, scores_from_counts,
};
use crate::recovery::{shrink_and_rebuild, SampleLedger};
use crate::result::BetweennessResult;
use crate::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use crate::shared::{phase_timings_from, sampling_stats_from};
use crate::{bounds, calibration::Calibration};
use kadabra_epoch::CrossEpochProbe;
use kadabra_graph::Graph;
use kadabra_mpisim::{CommError, Communicator, ElasticRank, FaultPlan, StandbyRank, Universe};
use kadabra_telemetry::{CounterId, EventWriter, SpanId, Summary, Telemetry};
use std::sync::Arc;

/// Event capacity per `(rank, thread)` recorder when an elastic run traces.
const ELASTIC_TRACE_CAPACITY: usize = 1 << 14;

/// Base of the steal-stream thread coordinate space: disjoint from
/// calibration threads (small), adaptive streams ([`ADS_STREAM_OFFSET`] +
/// small), so stolen samples never collide with any rank's own streams.
const STEAL_STREAM_BASE: usize = 1 << 21;

/// Steal-stream stride per round (bounds helpers per round at 1024).
const STEAL_ROUND_STRIDE: usize = 1024;

/// Configuration of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// The deterministic fault plan (join schedule, stragglers, delays).
    pub plan: FaultPlan,
    /// Audit the cross-process epoch-distance invariant every round,
    /// including across membership changes.
    pub probe: bool,
    /// Run the per-round conservation check plus the cross-grow
    /// `[Σc̃, τ]` conservation audit.
    pub conservation: bool,
    /// Buffer a deterministic event trace. Toggling this must not change
    /// the computation (asserted by `tests/determinism_matrix.rs`).
    pub telemetry: bool,
    /// Redistribute straggler quota through the steal protocol.
    pub steal: bool,
}

impl ElasticOptions {
    /// Everything on, under `plan` — what the elastic acceptance suite uses.
    pub fn all(plan: FaultPlan) -> Self {
        ElasticOptions { plan, probe: true, conservation: true, telemetry: false, steal: true }
    }

    /// Enables the deterministic event trace.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Disables work stealing (stragglers keep their full quota).
    pub fn without_steal(mut self) -> Self {
        self.steal = false;
        self
    }
}

fn telemetry_for(opts: &ElasticOptions) -> Telemetry {
    if opts.telemetry {
        Telemetry::deterministic(ELASTIC_TRACE_CAPACITY)
    } else {
        Telemetry::deterministic(0)
    }
}

/// Outcome of an elastic run: the algorithm's result plus what the probes
/// and the elastic machinery saw.
#[derive(Debug)]
pub struct ElasticReport {
    /// The root's betweenness result, exactly as the plain driver returns
    /// it.
    pub result: BetweennessResult,
    /// Largest cross-process round gap observed (0 when probing was off).
    pub max_epoch_gap: u32,
    /// Completion events the epoch probe audited.
    pub probe_observations: u64,
    /// Audits that violated the gap-≤-1 invariant (must be 0).
    pub probe_violations: u64,
    /// Rounds the conservation check covered.
    pub conservation_rounds: u64,
    /// Standby ranks admitted by grows, as seen by the root.
    pub ranks_joined: u64,
    /// Samples helpers drew on stragglers' behalf, summed over all ranks.
    pub samples_stolen: u64,
    /// The plan's one-line reproduction handle (print this on failure).
    pub plan_summary: String,
    /// Telemetry phase breakdown (logical clock only — bit-reproducible).
    pub phases: Summary,
}

impl ElasticReport {
    /// Panics unless every enabled probe came back clean.
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

/// What one elastic rank hands back to the driver entry point.
struct ElasticOutcome {
    result: Option<BetweennessResult>,
    rounds: u64,
    ranks_joined: u64,
    samples_stolen: u64,
}

impl ElasticOutcome {
    /// The outcome of a crashed rank, or of a standby the world never grew
    /// to admit.
    fn dead() -> Self {
        ElasticOutcome { result: None, rounds: 0, ranks_joined: 0, samples_stolen: 0 }
    }
}

/// Runs **Algorithm 1** elastically: `founding` ranks start the run,
/// `standby` more park until the plan's [`kadabra_mpisim::JoinPoint`]s grow them in.
/// Bit-reproducible: identical `(g, cfg, founding, standby, opts)` give
/// identical scores — including runs that grow mid-adaptive-phase and runs
/// whose stragglers are relieved by work stealing.
pub fn kadabra_mpi_flat_elastic(
    g: &Graph,
    cfg: &KadabraConfig,
    founding: usize,
    standby: usize,
    opts: &ElasticOptions,
) -> ElasticReport {
    cfg.validate();
    assert!(founding >= 1);
    assert!(g.num_nodes() >= 2, "KADABRA requires at least two vertices");
    let probe =
        opts.probe.then(|| Arc::new(CrossEpochProbe::with_standbys(founding + standby, founding)));
    let tel = telemetry_for(opts);
    let outcomes = Universe::run_elastic(founding, standby, opts.plan.clone(), |role| match role {
        ElasticRank::Founding(comm) => {
            elastic_founder_main(g, cfg, comm, opts, probe.as_deref(), &tel)
        }
        ElasticRank::Standby(s) => {
            elastic_newcomer_main(g, cfg, s, opts, probe.as_deref(), &tel, founding)
        }
    });
    let samples_stolen = outcomes.iter().map(|o| o.samples_stolen).sum();
    let root = outcomes
        .into_iter()
        .find(|o| o.result.is_some())
        // xtask: allow(unwrap) — exactly one rank (the root) returns Some.
        .expect("the root produces the result");
    let (max_epoch_gap, probe_observations, probe_violations) = match &probe {
        Some(p) => (p.max_gap(), p.observations(), p.violations()),
        None => (0, 0, 0),
    };
    ElasticReport {
        // xtask: allow(unwrap) — selected for holding Some above.
        result: root.result.expect("root outcome holds the result"),
        max_epoch_gap,
        probe_observations,
        probe_violations,
        conservation_rounds: root.rounds,
        ranks_joined: root.ranks_joined,
        samples_stolen,
        plan_summary: opts.plan.summary(),
        phases: tel.summary(),
    }
}

/// Loop context shared by founders and newcomers.
struct LoopCtx<'a> {
    g: &'a Graph,
    cfg: &'a KadabraConfig,
    opts: &'a ElasticOptions,
    probe: Option<&'a CrossEpochProbe>,
    omega: u64,
    calibration: &'a Calibration,
}

/// Per-rank body of a founding member: the flat observed setup (diameter
/// broadcast + calibration all-reduce over the founding world), then the
/// elastic adaptive loop from round 0.
fn elastic_founder_main(
    g: &Graph,
    cfg: &KadabraConfig,
    comm: Communicator,
    opts: &ElasticOptions,
    probe: Option<&CrossEpochProbe>,
    tel: &Telemetry,
) -> ElasticOutcome {
    let n = g.num_nodes();
    let my_world = comm.world_rank();
    let founding = comm.size();
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
        Err(e) if e.failed_rank() == Some(my_world) => return ElasticOutcome::dead(),
        Err(e) => elastic_setup_panic(e),
    };
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let sp = w.begin(SpanId::Calibration);
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, 0);
    let mut counts = vec![0u64; n + 1];
    let taken =
        calibration_samples_for_thread(g, &mut sampler, &mut counts[..n], cfg, omega, founding);
    counts[n] = taken;
    let total = match comm.allreduce_sum_u64(&counts) {
        Ok(t) => t,
        Err(e) if e.failed_rank() == Some(my_world) => return ElasticOutcome::dead(),
        Err(e) => elastic_setup_panic(e),
    };
    let calibration = Calibration::from_counts(&total[..n], total[n], cfg);
    w.end(sp);

    let ctx = LoopCtx { g, cfg, opts, probe, omega, calibration: &calibration };
    elastic_adaptive_loop(&ctx, comm, &w, 0, 0, vd, vec![0u64; n + 1], SampleLedger::new(n))
}

/// Per-rank body of a standby: park until admitted, then bootstrap — the
/// deterministic local recomputations (diameter, calibration replay) plus
/// the two lockstep rebalance collectives the survivors run inside their
/// grow block — and enter the shared loop at the handed-off round.
fn elastic_newcomer_main(
    g: &Graph,
    cfg: &KadabraConfig,
    standby: StandbyRank,
    opts: &ElasticOptions,
    probe: Option<&CrossEpochProbe>,
    tel: &Telemetry,
    founding: usize,
) -> ElasticOutcome {
    let my_world = standby.world_rank();
    // Never admitted (the plan scheduled no join, or the run stopped
    // first): indistinguishable from a dead rank, by design.
    let Ok(comm) = standby.wait_admission() else { return ElasticOutcome::dead() };
    let n = g.num_nodes();
    let w = tel.writer(my_world as u32, 0);
    comm.set_tracer(w.clone());

    // Diameter: deterministic, so the newcomer recomputes locally what the
    // founders broadcast at launch — no collective needed.
    let sp = w.begin(SpanId::Diameter);
    let (vd, _) = diameter_phase(g, cfg);
    w.end(sp);
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    // Calibration: replay every founding rank's calibration stream. The
    // streams are keyed by (seed, rank, thread 0), so the replay
    // reconstructs the founding all-reduce total exactly.
    let sp = w.begin(SpanId::Calibration);
    let mut total = vec![0u64; n + 1];
    for r in 0..founding {
        let mut sampler = ThreadSampler::new(n, cfg.seed, r, 0);
        let mut counts = vec![0u64; n];
        let taken =
            calibration_samples_for_thread(g, &mut sampler, &mut counts, cfg, omega, founding);
        for (a, c) in total.iter_mut().zip(counts) {
            *a += c;
        }
        total[n] += taken;
    }
    let calibration = Calibration::from_counts(&total[..n], total[n], cfg);
    w.end(sp);

    // Lockstep with the survivors' grow block: round handoff, then the
    // ledger-rebuild all-reduce (a fresh ledger contributes zeros).
    let ledger = SampleLedger::new(n);
    let sp = w.begin(SpanId::Rebalance);
    let handoff = (|| -> Result<(u32, Vec<u64>), CommError> {
        let round = comm.bcast_u64(0, None)? as u32;
        let rebuilt = comm.allreduce_sum_u64(ledger.frame())?;
        Ok((round, rebuilt))
    })();
    w.end(sp);
    let (round, s_global) = match handoff {
        Ok(t) => t,
        Err(e) if e.failed_rank() == Some(my_world) => return ElasticOutcome::dead(),
        Err(e) => elastic_setup_panic(e),
    };

    let ctx = LoopCtx { g, cfg, opts, probe, omega, calibration: &calibration };
    // join_eligible_from = round + 1: the grow that admitted this rank is
    // already behind it; only *later* join points concern it.
    elastic_adaptive_loop(&ctx, comm, &w, round, round + 1, vd, s_global, ledger)
}

/// Panic for setup/bootstrap-phase communicator failures that are not this
/// rank's own crash (elastic corpora schedule joins past the setup
/// collectives and are crash-free).
fn elastic_setup_panic(e: CommError) -> ! {
    panic!("rank failure during elastic setup/bootstrap phases: {e}")
}

/// The deterministic per-round steal schedule, computed identically by
/// every member from shared `(plan, n0, members)` state.
struct StealRound {
    /// Straggler communicator ranks, ascending.
    stragglers: Vec<usize>,
    /// Helper communicator ranks, ascending.
    helpers: Vec<usize>,
    /// `chunks[si][hi]`: samples helper `hi` takes from straggler `si`.
    chunks: Vec<Vec<u64>>,
}

fn steal_schedule(plan: &FaultPlan, comm: &Communicator, n0: u64) -> Option<StealRound> {
    let members = comm.members();
    let stragglers: Vec<usize> =
        (0..comm.size()).filter(|&r| plan.rank_factor(members[r]) > 1).collect();
    let helpers: Vec<usize> =
        (0..comm.size()).filter(|&r| plan.rank_factor(members[r]) <= 1).collect();
    if stragglers.is_empty() || helpers.is_empty() {
        return None;
    }
    let chunks = stragglers
        .iter()
        .map(|&s| {
            let deficit = n0 - straggler_keep(plan.rank_factor(members[s]), n0);
            let base = deficit / helpers.len() as u64;
            let rem = usize::try_from(deficit % helpers.len() as u64).unwrap_or(0);
            (0..helpers.len()).map(|i| base + u64::from(i < rem)).collect()
        })
        .collect();
    Some(StealRound { stragglers, helpers, chunks })
}

/// How much of its own round quota a straggler with latency `factor` keeps:
/// inversely proportional, at least one sample (its reduction contribution
/// must stay non-degenerate).
fn straggler_keep(factor: u64, n0: u64) -> u64 {
    (n0 / factor.max(1)).max(1).min(n0)
}

/// The elastic adaptive loop, shared by founders (entering at round 0) and
/// newcomers (entering at the handed-off round with the admitting join
/// behind them). Mirrors `chaos::flat_rank_main`'s loop; the elastic
/// deviations (grow block, steal schedule) are commented.
#[allow(clippy::too_many_arguments)]
fn elastic_adaptive_loop(
    ctx: &LoopCtx<'_>,
    mut comm: Communicator,
    w: &EventWriter,
    entry_round: u32,
    join_eligible_from: u32,
    vd: u32,
    mut s_global: Vec<u64>,
    mut ledger: SampleLedger,
) -> ElasticOutcome {
    let g = ctx.g;
    let cfg = ctx.cfg;
    let plan = &ctx.opts.plan;
    let n = g.num_nodes();
    let my_world = comm.world_rank();

    let sp_ads = w.begin(SpanId::AdaptiveSampling);
    let mut n0 = cfg.n0(comm.size());
    let mut sampler = ThreadSampler::new(n, cfg.seed, my_world, ADS_STREAM_OFFSET);
    let mut s_loc = vec![0u64; n + 1];
    let mut rounds = 0u64;
    let mut ranks_joined = 0u64;
    let mut samples_stolen = 0u64;
    let mut dead = false;

    let sample_into = |frame: &mut Vec<u64>, sampler: &mut ThreadSampler| {
        for &v in sampler.sample(g) {
            frame[v as usize] += 1;
        }
        frame[n] += 1;
    };

    let mut round = entry_round;
    loop {
        w.set_epoch(round);
        if let Some(p) = ctx.probe {
            p.begin_round(my_world, round);
        }

        // --- Elastic grow at the round boundary -------------------------
        // Joins fire at the *start* of the scheduled round, before its
        // sample batch; every member reads the same plan, so the grow is a
        // collective everyone enters. Newcomers skip the join that admitted
        // them (join_eligible_from) but participate in later ones.
        if round >= join_eligible_from {
            let k = plan.join_at_round(u64::from(round));
            if k > 0 {
                let grow_result = (|| -> Result<(), CommError> {
                    let sp = w.begin(SpanId::Rebalance);
                    let old_members = comm.members().to_vec();
                    let grown = comm.grow(k)?;
                    // Rebalance, in lockstep with the newcomers' bootstrap:
                    // round handoff + ledger rebuild.
                    grown.bcast_u64(0, (grown.rank() == 0).then_some(u64::from(round)))?;
                    let rebuilt = grown.allreduce_sum_u64(ledger.frame())?;
                    if grown.rank() == 0 && ctx.opts.conservation {
                        // The cross-grow conservation audit: admitting ranks
                        // must neither lose nor mint samples.
                        assert_eq!(
                            [rebuilt[..n].iter().sum::<u64>(), rebuilt[n]],
                            [s_global[..n].iter().sum::<u64>(), s_global[n]],
                            "[Σc̃, τ] not conserved across grow at round {round} [{}]",
                            plan.summary()
                        );
                    }
                    if let Some(p) = ctx.probe {
                        for m in grown.members() {
                            if !old_members.contains(m) {
                                p.admit(*m, round);
                            }
                        }
                    }
                    ranks_joined += (grown.size() - old_members.len()) as u64;
                    s_global = rebuilt;
                    n0 = cfg.n0(grown.size());
                    comm = grown;
                    w.end(sp);
                    Ok(())
                })();
                match grow_result {
                    Ok(()) => {}
                    Err(e) if e.failed_rank() == Some(my_world) => {
                        dead = true;
                        break;
                    }
                    Err(e) => panic!("rank failure during elastic grow: {e}"),
                }
            }
        }

        // --- Deterministic steal schedule -------------------------------
        let steal = ctx.opts.steal.then(|| steal_schedule(plan, &comm, n0)).flatten();
        let my_quota = match &steal {
            Some(st) if st.stragglers.contains(&comm.rank()) => {
                straggler_keep(plan.rank_factor(my_world), n0)
            }
            _ => n0,
        };

        let round_result = (|| -> Result<bool, CommError> {
            let sp = w.begin(SpanId::SampleBatch);
            {
                let frame = &mut s_loc;
                sampler.sample_batch(g, my_quota, |interior| {
                    for &v in interior {
                        frame[v as usize] += 1;
                    }
                    frame[n] += 1;
                });
            }
            // Steal handshake: stragglers grant their pre-partitioned
            // deficit in helper order; helpers claim in straggler order and
            // draw the stolen samples from the straggler's dedicated steal
            // streams into their own frame. Claim sends are buffered, so no
            // interleaving of the two loops can deadlock.
            if let Some(st) = &steal {
                if let Some(si) = st.stragglers.iter().position(|&s| s == comm.rank()) {
                    for (hi, &h) in st.helpers.iter().enumerate() {
                        let c = st.chunks[si][hi];
                        if c == 0 {
                            continue;
                        }
                        let granted = comm.steal_grant(h)?;
                        assert_eq!(
                            granted,
                            (u64::from(round), hi as u64, c),
                            "steal schedule divergence at straggler {si} [{}]",
                            plan.summary()
                        );
                    }
                } else if let Some(hi) = st.helpers.iter().position(|&h| h == comm.rank()) {
                    for (si, &s) in st.stragglers.iter().enumerate() {
                        let c = st.chunks[si][hi];
                        if c == 0 {
                            continue;
                        }
                        comm.steal_claim(s, u64::from(round), hi as u64, c)?;
                        let s_world = comm.members()[s];
                        let stream = STEAL_STREAM_BASE + round as usize * STEAL_ROUND_STRIDE + hi;
                        let mut stolen = ThreadSampler::new(n, cfg.seed, s_world, stream);
                        let frame = &mut s_loc;
                        stolen.sample_batch(g, c, |interior| {
                            for &v in interior {
                                frame[v as usize] += 1;
                            }
                            frame[n] += 1;
                        });
                        w.count(CounterId::SamplesStolen, c);
                        samples_stolen += c;
                    }
                }
            }
            w.end(sp);

            let snapshot = std::mem::replace(&mut s_loc, vec![0u64; n + 1]);
            let mut overlapped = 0u64;
            let sp = w.begin(SpanId::IreduceWait);
            let mut req = comm.ireduce_sum_u64(0, &snapshot)?;
            while !req.test()? {
                sample_into(&mut s_loc, &mut sampler);
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::BytesReduced, snapshot.len() as u64 * 8);
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
                let stop = fold_and_check(
                    &mut s_global,
                    &reduced,
                    cfg.epsilon,
                    ctx.omega,
                    ctx.calibration,
                );
                w.end(sp);
                d = u64::from(stop);
            }

            if ctx.opts.conservation {
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
                        plan.summary()
                    );
                    assert_eq!(
                        [totals[2], totals[3]],
                        [s_global[..n].iter().sum::<u64>(), s_global[n]],
                        "ledger conservation violated at round {round} [{}]",
                        plan.summary()
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
            w.count(CounterId::Samples, my_quota + overlapped);
            w.count(CounterId::Epochs, 1);
            // xtask: allow(unwrap) — test() returned true above.
            Ok(breq.into_result().unwrap() != 0)
        })();

        match round_result {
            Ok(stop) => {
                if let Some(p) = ctx.probe {
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
                // Crash recovery, exactly as in the chaos driver: shrink,
                // rebuild the ledgers, rescale n0 downward.
                let prev_members = comm.members().to_vec();
                match shrink_and_rebuild(&comm, &ledger, w) {
                    Ok((small, rebuilt)) => {
                        if let Some(p) = ctx.probe {
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
        return ElasticOutcome::dead();
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
            omega: ctx.omega,
            vertex_diameter: vd,
            timings: phase_timings_from(rec),
            stats,
        }
    });
    ElasticOutcome { result, rounds, ranks_joined, samples_stolen }
}

/// The join schedule of a plan projected onto a standby pool: the number of
/// standbys a run with `standby` parked ranks will actually admit.
pub fn planned_admissions(plan: &FaultPlan, standby: usize) -> usize {
    plan.total_joiners().min(standby)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};

    fn small_graph() -> Graph {
        grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 })
    }

    #[test]
    fn elastic_without_joins_matches_structure_of_chaos_run() {
        // A plan with no join points never grows: the elastic driver must
        // behave like the plain observed one (standbys report dead).
        let g = small_graph();
        let cfg = KadabraConfig::new(0.1, 0.1);
        let opts = ElasticOptions::all(FaultPlan::ideal(2));
        let r = kadabra_mpi_flat_elastic(&g, &cfg, 2, 2, &opts);
        r.assert_invariants();
        assert_eq!(r.ranks_joined, 0);
        assert_eq!(r.samples_stolen, 0);
        assert!(r.result.samples > 0);
    }

    #[test]
    fn grow_mid_run_is_bit_reproducible_and_conserves() {
        // The acceptance scenario: grow 2 ranks mid-adaptive-phase; the run
        // must stay bit-reproducible from (plan, seed) with the probe and
        // the cross-grow conservation audit clean.
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let opts = ElasticOptions::all(FaultPlan::ideal(13).with_join(1, 2));
        let a = kadabra_mpi_flat_elastic(&g, &cfg, 2, 2, &opts);
        a.assert_invariants();
        assert_eq!(a.ranks_joined, 2, "[{}]", a.plan_summary);
        assert!(a.conservation_rounds > 0);
        assert!(a.probe_observations > 0);
        let b = kadabra_mpi_flat_elastic(&g, &cfg, 2, 2, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
        assert_eq!(a.result.samples, b.result.samples);
    }

    #[test]
    fn seeded_join_corpus_admits_and_stays_clean() {
        // from_seed_with_grows schedules exactly one join within the pool
        // size; several seeds must all run clean and reproducibly.
        let g = small_graph();
        let cfg = KadabraConfig::new(0.08, 0.1);
        for seed in 0..4 {
            let plan = FaultPlan::from_seed_with_grows(seed, 2);
            let expect = planned_admissions(&plan, 2) as u64;
            let opts = ElasticOptions::all(plan);
            let r = kadabra_mpi_flat_elastic(&g, &cfg, 3, 2, &opts);
            r.assert_invariants();
            // The join may be scheduled past the stopping round on an easy
            // instance; when the run reaches it, it must admit in full.
            assert!(
                r.ranks_joined == expect || r.ranks_joined == 0,
                "partial admission: {} of {expect} [{}]",
                r.ranks_joined,
                r.plan_summary
            );
        }
    }

    #[test]
    fn straggler_steal_redistributes_quota_reproducibly() {
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let plan = FaultPlan::ideal(29).with_straggler(1, 8);
        let opts = ElasticOptions::all(plan.clone());
        let a = kadabra_mpi_flat_elastic(&g, &cfg, 3, 0, &opts);
        a.assert_invariants();
        assert!(a.samples_stolen > 0, "straggler deficit never stolen [{}]", a.plan_summary);
        let b = kadabra_mpi_flat_elastic(&g, &cfg, 3, 0, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
        assert_eq!(a.result.samples, b.result.samples);
        // Stealing redistributes *who* draws, not *how much* arrives: the
        // conservation audit inside the run already asserted every round;
        // with stealing disabled the run still converges cleanly.
        let c = kadabra_mpi_flat_elastic(&g, &cfg, 3, 0, &opts.clone().without_steal());
        c.assert_invariants();
        assert_eq!(c.samples_stolen, 0);
    }

    #[test]
    fn grow_and_steal_compose() {
        // A straggler plan *and* a mid-run join: newcomers are immediately
        // enrolled as helpers in the steal schedule of later rounds.
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let plan = FaultPlan::ideal(31).with_straggler(0, 6).with_join(1, 1);
        let opts = ElasticOptions::all(plan);
        let a = kadabra_mpi_flat_elastic(&g, &cfg, 2, 1, &opts);
        a.assert_invariants();
        assert_eq!(a.ranks_joined, 1, "[{}]", a.plan_summary);
        assert!(a.samples_stolen > 0, "[{}]", a.plan_summary);
        let b = kadabra_mpi_flat_elastic(&g, &cfg, 2, 1, &opts);
        assert_eq!(a.result.scores, b.result.scores, "[{}]", a.plan_summary);
    }

    #[test]
    fn n0_rescales_upward_on_grow() {
        // The ledger-rebalance contract: after adding ranks, the per-rank
        // round quota is cfg.n0(new_size) — smaller per rank, same or more
        // in total. Asserted indirectly: cfg.n0 is monotone non-increasing
        // in P, so the grown world's quota must not exceed the founders'.
        let cfg = KadabraConfig::new(0.05, 0.1);
        assert!(cfg.n0(4) <= cfg.n0(2));
        assert!(cfg.n0(6) <= cfg.n0(4));
    }
}
