//! Algorithms 1 and 2 executed under a deterministic [`FaultPlan`], with
//! the invariant probes the chaos conformance suite asserts on.
//!
//! # What "observed" changes
//!
//! Nothing in the algorithms: [`kadabra_mpi_flat_observed`] and
//! [`kadabra_epoch_mpi_observed`] run the rank body of [`crate::mpi`] — the
//! same one the plain drivers of both algorithms run — in a world
//! launched with `Universe::run_with_plan`, and hand it an `Audit` that is
//! switched on. The plain drivers let every overlap loop run free: how
//! many samples a rank squeezes in while a non-blocking collective
//! progresses depends on OS scheduling, so two runs produce different (all
//! correct) scores. Under a plan that door is closed, and perturbed runs
//! are **bit-reproducible** from `(plan, seed)`:
//!
//! * every non-blocking request polls deterministically (the engine's
//!   logical clock — see `kadabra_mpisim`'s `fault` module),
//! * a rank with epoch workers, seeing `world.fault_plan()`, gives them an
//!   exact plan-derived per-epoch sample quota instead of letting them
//!   free-run, and overlaps each transition wait with a plan-derived sample
//!   count before spin-waiting without sampling.
//!
//! Only the *degrees of freedom the paper already treats as adversarial*
//! (who is slow, by how much) move from the OS into the plan. Plans may
//! also schedule **rank crashes** (`FaultPlan::with_crash_at_collective` /
//! `with_crash_after_polls`); the body's shrink-and-continue recovery
//! (DESIGN.md §10) then runs just as reproducibly, because the crash
//! coordinates, the failure detection and every post-recovery schedule are
//! functions of the plan.
//!
//! # The audit
//!
//! With [`ChaosOptions::probe`], every rank reports its global round to a
//! shared [`CrossEpochProbe`], which audits the paper's Section IV-C claim
//! (cross-process epoch gap ≤ 1 past every completed reduction point);
//! ranks lost to crashes are retired from the audit when the survivors
//! shrink, ranks admitted by a grow enter it in-round. With
//! [`ChaosOptions::conservation`], every round runs one extra all-reduce of
//! `[Σc̃, τ]` pairs — the frames just sent *and* the cumulative recovery
//! ledgers — and the root asserts both that its fold absorbed exactly what
//! was sent and that its global state equals the sum of all live ledgers:
//! no sample is lost, double-counted, or resurrected anywhere in the reduce
//! chain **or across membership changes**. On violation the panic message
//! carries the plan summary, which is all that is needed to replay the
//! failure.

use crate::config::{ClusterShape, KadabraConfig};
use crate::frame::SparseFrame;
use crate::mpi::{self, Algorithm};
use crate::recovery::{plan_summary, SampleLedger};
use crate::result::BetweennessResult;
use kadabra_epoch::CrossEpochProbe;
use kadabra_graph::KadabraGraph;
use kadabra_mpisim::{CommError, Communicator, FaultPlan, Universe};
use kadabra_telemetry::{Summary, Telemetry};

/// Event capacity per `(rank, thread)` recorder when a run under a plan
/// traces.
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

/// Outcome of a run under a plan: the algorithm's result plus what the
/// audit saw.
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
    /// Standby ranks admitted by grows, as seen by the root.
    pub ranks_joined: u64,
    /// The plan's one-line reproduction handle (print this on failure).
    pub plan_summary: String,
    /// Telemetry phase breakdown of the run. Runs under a plan record on
    /// the logical clock only, so the breakdown (tick durations, sample /
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

/// What one rank's [`Audit`] counted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Seen {
    /// Rounds the conservation check covered.
    pub(crate) rounds: u64,
    pub(crate) ranks_lost: u64,
    pub(crate) recoveries: u64,
    pub(crate) ranks_joined: u64,
}

/// What one rank of either algorithm hands back to its entry point. The
/// default is the outcome of a rank whose scheduled crash fired, or of a
/// standby the world never grew to admit.
#[derive(Default)]
pub(crate) struct RankOutcome {
    /// `Some` at the rank that holds the final global state (rank 0, or the
    /// recovered root after crashes).
    pub(crate) result: Option<BetweennessResult>,
    pub(crate) seen: Seen,
    /// `[node-local, leaders, world]` bytes its communicators moved, as
    /// `mpi::root_outcome` sums them (node-local: only at a node leader).
    pub(crate) bytes: [u64; 3],
}

/// `[Σc̃, τ]` of a dense state frame.
fn mass(frame: &[u64]) -> [u64; 2] {
    let n = frame.len() - 1;
    [frame[..n].iter().sum(), frame[n]]
}

/// One rank's view of the run-wide audit, called by the rank body at fixed
/// points of a round. The plain drivers run with [`Audit::off`]:
/// every call is then a branch on `None`/`false`, no collective is added
/// and nothing is summed.
pub(crate) struct Audit<'a> {
    probe: Option<&'a CrossEpochProbe>,
    conservation: bool,
    /// `[Σc̃, τ]` of the frame this rank sent into this round's reduction.
    sent: [u64; 2],
    /// Root only: `[Σc̃, τ]` of the frame its fold absorbed this round.
    absorbed: [u64; 2],
    pub(crate) seen: Seen,
}

impl<'a> Audit<'a> {
    pub(crate) fn new(probe: Option<&'a CrossEpochProbe>, conservation: bool) -> Self {
        Audit { probe, conservation, sent: [0; 2], absorbed: [0; 2], seen: Seen::default() }
    }

    pub(crate) fn off() -> Self {
        Audit::new(None, false)
    }

    /// Must precede the round's first collective join (see the probe's
    /// happens-before argument).
    pub(crate) fn begin_round(&self, world_rank: usize, round: u32) {
        if let Some(p) = self.probe {
            p.begin_round(world_rank, round);
        }
    }

    /// The round's full reduction/broadcast chain resolved: audit the
    /// cross-process gap.
    pub(crate) fn complete_round(&self, world_rank: usize, round: u32) {
        if let Some(p) = self.probe {
            p.complete_round(world_rank, round);
        }
    }

    /// The communicator went from `prev` to `now` (world ranks) at `round`:
    /// ranks that left were lost to one recovery and retire from the gap
    /// audit, ranks that arrived were admitted by a grow and enter it.
    pub(crate) fn membership_changed(&mut self, prev: &[usize], now: &[usize], round: u32) {
        let mut lost = 0u64;
        for &m in prev.iter().filter(|m| !now.contains(m)) {
            if let Some(p) = self.probe {
                p.retire(m);
            }
            lost += 1;
        }
        for &m in now.iter().filter(|m| !prev.contains(m)) {
            if let Some(p) = self.probe {
                p.admit(m, round);
            }
            self.seen.ranks_joined += 1;
        }
        self.seen.ranks_lost += lost;
        self.seen.recoveries += u64::from(lost > 0);
    }

    /// Every rank, as its frame of an `n`-vertex graph enters the
    /// reduction: remembers what it sent, so the frame can be reused once
    /// confirmed.
    pub(crate) fn send(&mut self, frame: &SparseFrame, n: usize) {
        if self.conservation {
            self.sent = frame.mass(n);
        }
    }

    /// Root, before folding: remembers what the fold is about to absorb.
    pub(crate) fn absorb(&mut self, reduced: &SparseFrame, n: usize) {
        if self.conservation {
            self.absorbed = reduced.mass(n);
        }
    }

    /// The per-round conservation check, a collective over `world`: what
    /// all ranks sent this round must equal what the root's fold absorbed,
    /// and — the recovery invariant — the root's global state must equal
    /// the sum of all live ledgers.
    pub(crate) fn conserve(
        &mut self,
        world: &Communicator,
        ledger: &SampleLedger,
        s_global: &[u64],
        round: u32,
    ) -> Result<(), CommError> {
        if !self.conservation {
            return Ok(());
        }
        let [sent_c, sent_tau] = self.sent;
        let [ledger_c, ledger_tau] = mass(ledger.frame());
        let totals = world.allreduce_sum_u64(&[sent_c, sent_tau, ledger_c, ledger_tau])?;
        if world.rank() == 0 {
            assert_eq!(
                [totals[0], totals[1]],
                self.absorbed,
                "sample conservation violated at round {round} [{}]",
                plan_summary(world)
            );
            assert_eq!(
                [totals[2], totals[3]],
                mass(s_global),
                "ledger conservation violated at round {round} [{}]",
                plan_summary(world)
            );
        }
        self.seen.rounds += 1;
        Ok(())
    }

    /// Root of a grown world: admitting ranks must neither lose nor mint
    /// samples, so the state `rebuilt` from every member's ledger equals
    /// the pre-grow global state.
    pub(crate) fn conserve_grow(
        &self,
        grown: &Communicator,
        rebuilt: &[u64],
        s_global: &[u64],
        round: u32,
    ) {
        if self.conservation && grown.rank() == 0 {
            assert_eq!(
                mass(rebuilt),
                mass(s_global),
                "[Σc̃, τ] not conserved across grow at round {round} [{}]",
                plan_summary(grown)
            );
        }
    }
}

/// Runs **Algorithm 1** (`kadabra_mpi_flat`) under a fault plan, with
/// probes: `ranks` ranks start the run, and `standby` more park until the
/// plan's [`kadabra_mpisim::JoinPoint`]s grow them in ([`crate::elastic`]).
/// Bit-reproducible: identical `(g, cfg, ranks, standby, opts)` give
/// identical scores — including runs whose plan crashes ranks mid-flight
/// and runs that grow mid-adaptive-phase.
pub fn kadabra_mpi_flat_observed<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    ranks: usize,
    standby: usize,
    opts: &ChaosOptions,
) -> ChaosReport {
    observed(g, cfg, ClusterShape::flat(ranks), standby, Algorithm::One, opts)
}

/// Runs **Algorithm 2** (`kadabra_epoch_mpi`) under a fault plan, with
/// probes. Bit-reproducible: identical `(g, cfg, shape, opts)` give
/// identical scores — including worker-thread sample placement, which the
/// plain driver leaves to the scheduler, and crash recovery schedules.
pub fn kadabra_epoch_mpi_observed<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    opts: &ChaosOptions,
) -> ChaosReport {
    observed(g, cfg, shape, 0, Algorithm::Two, opts)
}

/// Runs the rank body in a world of `shape`, with `standby` more ranks
/// parked for the plan's joins, launched under `opts.plan` with the audit
/// `opts` asks for.
fn observed<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    shape: ClusterShape,
    standby: usize,
    algorithm: Algorithm,
    opts: &ChaosOptions,
) -> ChaosReport {
    mpi::validate(g, cfg, shape);
    let probe =
        opts.probe.then(|| CrossEpochProbe::with_standbys(shape.ranks + standby, shape.ranks));
    let tel = Telemetry::deterministic(if opts.telemetry { CHAOS_TRACE_CAPACITY } else { 0 });
    let plan = &opts.plan;
    let outcomes = Universe::run_elastic(shape.ranks, standby, plan.clone(), |rank| {
        let audit = Audit::new(probe.as_ref(), opts.conservation);
        mpi::rank_main(g, cfg, rank, shape, algorithm, &tel, audit)
    });
    let root = mpi::root_outcome(outcomes);
    let (max_epoch_gap, probe_observations, probe_violations) =
        probe.as_ref().map_or((0, 0, 0), |p| (p.max_gap(), p.observations(), p.violations()));
    #[expect(clippy::expect_used, reason = "root_outcome selected it for holding Some")]
    let result = root.result.expect("root outcome holds the result");
    ChaosReport {
        result,
        max_epoch_gap,
        probe_observations,
        probe_violations,
        conservation_rounds: root.seen.rounds,
        ranks_lost: root.seen.ranks_lost,
        recoveries: root.seen.recoveries,
        ranks_joined: root.seen.ranks_joined,
        plan_summary: plan.summary(),
        phases: tel.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};
    use kadabra_graph::Graph;

    fn small_graph() -> Graph {
        grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 })
    }

    #[test]
    fn flat_observed_is_bit_reproducible() {
        let g = small_graph();
        let cfg = KadabraConfig::new(0.1, 0.1);
        let opts = ChaosOptions::all(FaultPlan::from_seed(3));
        let a = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &opts);
        let b = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &opts);
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
            0,
            &ChaosOptions::all(FaultPlan::ideal(0).with_collective_delay(0, 3)),
        );
        let b = kadabra_mpi_flat_observed(
            &g,
            &cfg,
            3,
            0,
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
        let r = kadabra_mpi_flat_observed(&g, &cfg, 2, 0, &opts);
        assert_eq!(r.probe_observations, 0);
        assert_eq!(r.conservation_rounds, 0);
        assert!(r.result.samples > 0);
    }

    #[test]
    #[should_panic(expected = "during set-up, round 0 [seed 42, plan FaultPlan { seed: 5,")]
    fn a_peer_lost_during_set_up_is_fatal_and_names_the_replay_tuple() {
        // Rank 1 dies instead of joining collective 0, the diameter
        // broadcast. Nothing recovers from that (crash schedules belong in
        // the adaptive phase), so rank 0 must stop with everything needed
        // to replay it: phase, round, sampling seed and plan.
        let cfg = KadabraConfig { seed: 42, ..KadabraConfig::new(0.1, 0.1) };
        let plan = FaultPlan::ideal(5).with_crash_at_collective(1, 0);
        kadabra_mpi_flat_observed(&small_graph(), &cfg, 2, 0, &ChaosOptions::all(plan));
    }

    #[test]
    #[should_panic(expected = "unrecoverable communicator failure during set-up, round 0 [seed 42")]
    fn a_peer_lost_at_the_calibration_all_reduce_is_fatal() {
        // Rank 1 dies instead of joining collective 1, Algorithm 1's
        // calibration all-reduce right after the diameter broadcast. The
        // survivor's all-reduce fails, and that error must reach
        // `own_crash_or_fatal`: a swallowed one leaves no counts to fit.
        let cfg = KadabraConfig { seed: 42, ..KadabraConfig::new(0.1, 0.1) };
        let plan = FaultPlan::ideal(5).with_crash_at_collective(1, 1);
        kadabra_mpi_flat_observed(&small_graph(), &cfg, 2, 0, &ChaosOptions::all(plan));
    }

    #[test]
    fn flat_observed_crash_recovery_keeps_every_invariant() {
        // One rank crashed mid-adaptive-phase: the run must shrink, keep
        // the epoch-gap and conservation invariants clean over the
        // survivors, and stay bit-reproducible from (plan, seed).
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let opts = ChaosOptions::all(FaultPlan::ideal(11).with_crash_at_collective(2, 6));
        let a = kadabra_mpi_flat_observed(&g, &cfg, 4, 0, &opts);
        a.assert_invariants();
        assert_eq!(a.ranks_lost, 1, "[{}]", a.plan_summary);
        assert_eq!(a.recoveries, 1, "[{}]", a.plan_summary);
        assert!(a.conservation_rounds > 0);
        let b = kadabra_mpi_flat_observed(&g, &cfg, 4, 0, &opts);
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
