//! Elastic scale-out of Algorithm 1: communicator grow, ledger
//! rebalancing, and cross-rank work stealing under a deterministic
//! [`FaultPlan`]. The round loop is `mpi::adaptive_rounds` — the one round
//! loop of both algorithms — and this module holds the two protocols it
//! calls at a round boundary and inside a round's sample batch.
//!
//! # Grow and rebalance (DESIGN.md §15)
//!
//! A crash shrinks the communicator and survivors rebuild global state from
//! their [`SampleLedger`]s; this turns the dial the other way. A plan's
//! [`kadabra_mpisim::JoinPoint`]s schedule membership *growth*: at the
//! start of the listed global round, every member calls
//! [`Communicator::grow`], standby ranks parked by
//! [`kadabra_mpisim::Universe::run_elastic`] are admitted, and the grown
//! world runs a two-step rebalance (`grow_and_rebalance`) in lockstep with
//! the newcomers' bootstrap (`bootstrap_newcomer`):
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
//! [`kadabra_epoch::CrossEpochProbe`] audits the epoch-gap invariant
//! *across* the join: standbys start excluded
//! ([`kadabra_epoch::CrossEpochProbe::with_standbys`]) and are
//! admitted in-round.
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

use crate::chaos::{observed, Audit, ChaosOptions, ChaosReport};
use crate::config::{ClusterShape, KadabraConfig};
use crate::frame::Frame;
use crate::mpi::Algorithm;
use crate::phases::{prepare_for_pool, Prepared};
use crate::recovery::{plan_summary, SampleLedger};
use crate::sampler::ThreadSampler;
use kadabra_graph::{KadabraGraph, PathSource};
use kadabra_mpisim::{CommError, Communicator, FaultPlan};
use kadabra_telemetry::{CounterId, EventWriter, SpanId};

/// Base of the steal-stream thread coordinate space: disjoint from
/// calibration threads (small), adaptive streams
/// ([`crate::sampler::ADS_STREAM_OFFSET`] + small), so stolen samples never
/// collide with any rank's own streams.
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

/// Runs **Algorithm 1** elastically: `founding` ranks start the run,
/// `standby` more park until the plan's [`kadabra_mpisim::JoinPoint`]s grow them in.
/// Bit-reproducible: identical `(g, cfg, founding, standby, opts)` give
/// identical scores — including runs that grow mid-adaptive-phase and runs
/// whose stragglers are relieved by work stealing.
pub fn kadabra_mpi_flat_elastic<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    founding: usize,
    standby: usize,
    opts: &ElasticOptions,
) -> ChaosReport {
    let ElasticOptions { ref plan, probe, conservation, telemetry, steal } = *opts;
    let chaos = ChaosOptions { plan: plan.clone(), probe, conservation, telemetry };
    observed(g, cfg, ClusterShape::flat(founding), standby, Algorithm::One { steal }, &chaos)
}

/// The incumbents' side of a grow by `joiners` ranks at the start of
/// `round`: admit, then rebalance in lockstep with [`bootstrap_newcomer`] —
/// round handoff, ledger rebuild. Returns the grown communicator and the
/// rebuilt global state.
pub(crate) fn grow_and_rebalance(
    comm: &Communicator,
    joiners: usize,
    round: u32,
    ledger: &SampleLedger,
    s_global: &[u64],
    audit: &mut Audit<'_>,
    w: &EventWriter,
) -> Result<(Communicator, Vec<u64>), CommError> {
    let sp = w.begin(SpanId::Rebalance);
    let grown = comm.grow(joiners)?;
    grown.bcast_u64(0, (grown.rank() == 0).then_some(u64::from(round)))?;
    let rebuilt = grown.allreduce_sum_u64(ledger.frame())?;
    audit.conserve_grow(&grown, &rebuilt, s_global, round);
    audit.membership_changed(comm.members(), grown.members(), round);
    w.end(sp);
    Ok((grown, rebuilt))
}

/// The newcomer's side of the grow that admitted it into `comm`: the
/// deterministic local recomputation of what the `founding` ranks derived
/// collectively at launch (no collective needed), then the two lockstep
/// rebalance collectives — having confirmed nothing, it contributes zeros
/// to the ledger rebuild. Returns the
/// set-up, the round to enter the loop at and the global state.
pub(crate) fn bootstrap_newcomer<G: KadabraGraph>(
    g: &G,
    cfg: &KadabraConfig,
    comm: &Communicator,
    founding: usize,
    w: &EventWriter,
) -> Result<(Prepared, u32, Frame), CommError> {
    let sp = w.begin(SpanId::Rebalance);
    let prepared = prepare_for_pool(g, cfg, founding, 1);
    let round = comm.bcast_u64(0, None)? as u32;
    let rebuilt = comm.allreduce_sum_u64(&vec![0u64; g.num_nodes() + 1])?;
    w.end(sp);
    Ok((prepared, round, Frame::from_dense(rebuilt)))
}

/// The deterministic per-round steal schedule, computed identically by
/// every member from shared `(plan, n0, members)` state.
pub(crate) struct StealRound {
    /// Straggler communicator ranks, ascending.
    stragglers: Vec<usize>,
    /// Helper communicator ranks, ascending.
    helpers: Vec<usize>,
    /// `keep[si]`: what straggler `si` draws of its own round quota.
    keep: Vec<u64>,
    /// `chunks[si][hi]`: samples helper `hi` takes from straggler `si`.
    chunks: Vec<Vec<u64>>,
}

pub(crate) fn steal_schedule(plan: &FaultPlan, comm: &Communicator, n0: u64) -> Option<StealRound> {
    let members = comm.members();
    let (stragglers, helpers): (Vec<usize>, Vec<usize>) =
        (0..comm.size()).partition(|&r| plan.rank_factor(members[r]) > 1);
    if stragglers.is_empty() || helpers.is_empty() {
        return None;
    }
    let keep: Vec<u64> =
        stragglers.iter().map(|&s| straggler_keep(plan.rank_factor(members[s]), n0)).collect();
    let chunks = keep
        .iter()
        .map(|&kept| {
            let deficit = n0 - kept;
            let base = deficit / helpers.len() as u64;
            let rem = usize::try_from(deficit % helpers.len() as u64).unwrap_or(0);
            (0..helpers.len()).map(|i| base + u64::from(i < rem)).collect()
        })
        .collect();
    Some(StealRound { stragglers, helpers, keep, chunks })
}

/// How much of its own round quota a straggler with latency `factor` keeps:
/// inversely proportional, at least one sample (its reduction contribution
/// must stay non-degenerate).
fn straggler_keep(factor: u64, n0: u64) -> u64 {
    (n0 / factor.max(1)).max(1).min(n0)
}

impl StealRound {
    /// The round quota communicator rank `rank` draws from its own stream.
    pub(crate) fn own_quota(&self, rank: usize, n0: u64) -> u64 {
        self.stragglers.iter().position(|&s| s == rank).map_or(n0, |si| self.keep[si])
    }

    /// This rank's side of the round's steal handshake: stragglers grant
    /// their pre-partitioned deficit in helper order; helpers claim in
    /// straggler order and draw the stolen samples from the straggler's
    /// dedicated steal streams into their own `frame`. Claim sends are
    /// buffered, so no interleaving of the two loops can deadlock. Returns
    /// the samples this rank drew on stragglers' behalf.
    pub(crate) fn handshake<G: PathSource>(
        &self,
        g: &G,
        cfg: &KadabraConfig,
        comm: &Communicator,
        round: u32,
        frame: &mut Frame,
        w: &EventWriter,
    ) -> Result<u64, CommError> {
        let mut stolen = 0u64;
        if let Some(si) = self.stragglers.iter().position(|&s| s == comm.rank()) {
            for (hi, &h) in self.helpers.iter().enumerate() {
                let c = self.chunks[si][hi];
                if c == 0 {
                    continue;
                }
                let granted = comm.steal_grant(h)?;
                assert_eq!(
                    granted,
                    (u64::from(round), hi as u64, c),
                    "steal schedule divergence at straggler {si} [{}]",
                    plan_summary(comm)
                );
            }
        } else if let Some(hi) = self.helpers.iter().position(|&h| h == comm.rank()) {
            for (si, &s) in self.stragglers.iter().enumerate() {
                let c = self.chunks[si][hi];
                if c == 0 {
                    continue;
                }
                comm.steal_claim(s, u64::from(round), hi as u64, c)?;
                let stream = STEAL_STREAM_BASE + round as usize * STEAL_ROUND_STRIDE + hi;
                let mut sampler =
                    ThreadSampler::new(g.num_nodes(), cfg.seed, comm.members()[s], stream);
                sampler.sample_batch(g, c, |interior| frame.count_path(interior));
                w.count(CounterId::SamplesStolen, c);
                stolen += c;
            }
        }
        Ok(stolen)
    }
}

/// The join schedule of a plan projected onto a standby pool: the number of
/// standbys a run with `standby` parked ranks will actually admit.
pub fn planned_admissions(plan: &FaultPlan, standby: usize) -> usize {
    plan.total_joiners().min(standby)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{kadabra_mpi_flat_observed, ChaosOptions};
    use kadabra_graph::generators::{grid, GridConfig};
    use kadabra_graph::Graph;

    fn small_graph() -> Graph {
        grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 })
    }

    #[test]
    fn elastic_without_joins_matches_structure_of_chaos_run() {
        // Without joins and without stealing the elastic entry point is the
        // observed one — same body, same plan, same audit — so the two must
        // agree to the bit, standbys or not (they report dead), through
        // stragglers and through a crash that fires.
        let g = small_graph();
        let cfg = KadabraConfig::new(0.05, 0.1);
        let plans = [
            (FaultPlan::ideal(2), 2),
            (FaultPlan::from_seed(9), 3),
            (FaultPlan::from_seed(4), 4),
            (FaultPlan::ideal(29).with_straggler(1, 8), 3),
            (FaultPlan::from_seed_with_crashes(2, 4), 4),
            (FaultPlan::ideal(21).with_crash_at_collective(1, 2), 3),
        ];
        let mut recovered = false;
        for (plan, ranks) in plans {
            let observed =
                kadabra_mpi_flat_observed(&g, &cfg, ranks, &ChaosOptions::all(plan.clone()));
            let opts = ElasticOptions::all(plan).without_steal();
            let elastic = kadabra_mpi_flat_elastic(&g, &cfg, ranks, 2, &opts);
            elastic.assert_invariants();
            let summary = &elastic.plan_summary;
            assert_eq!(elastic.result.scores, observed.result.scores, "[{summary}]");
            assert_eq!(elastic.result.samples, observed.result.samples, "[{summary}]");
            assert_eq!(
                (elastic.ranks_lost, elastic.recoveries, elastic.conservation_rounds),
                (observed.ranks_lost, observed.recoveries, observed.conservation_rounds),
                "[{summary}]"
            );
            assert_eq!((elastic.ranks_joined, elastic.samples_stolen), (0, 0), "[{summary}]");
            recovered |= elastic.recoveries > 0;
        }
        assert!(recovered, "no crash of the corpus fired");
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
