//! Elastic scale-out of Algorithm 1: communicator grow and ledger
//! rebalancing under a deterministic [`FaultPlan`]. The round loop is
//! `mpi::adaptive_rounds` — the one round loop of both algorithms — and
//! this module holds the protocol it calls at a round boundary. A run
//! grows through [`crate::kadabra_mpi_flat_observed`] with standby ranks.
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

use crate::chaos::Audit;
use crate::config::KadabraConfig;
use crate::frame::Frame;
use crate::phases::{prepare_for_pool, Prepared};
use crate::recovery::SampleLedger;
use kadabra_graph::KadabraGraph;
use kadabra_mpisim::{CommError, Communicator, FaultPlan};
use kadabra_telemetry::{EventWriter, SpanId};

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
    fn idle_standbys_leave_the_run_bit_identical() {
        // Standbys the plan never admits report dead and take no part in a
        // collective, so the run with two of them parked must agree to the
        // bit with the run without, through stragglers and through a crash
        // that fires.
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
            let opts = ChaosOptions::all(plan);
            let alone = kadabra_mpi_flat_observed(&g, &cfg, ranks, 0, &opts);
            let parked = kadabra_mpi_flat_observed(&g, &cfg, ranks, 2, &opts);
            parked.assert_invariants();
            let summary = &parked.plan_summary;
            assert_eq!(parked.result.scores, alone.result.scores, "[{summary}]");
            assert_eq!(parked.result.samples, alone.result.samples, "[{summary}]");
            assert_eq!(
                (parked.ranks_lost, parked.recoveries, parked.conservation_rounds),
                (alone.ranks_lost, alone.recoveries, alone.conservation_rounds),
                "[{summary}]"
            );
            assert_eq!(parked.ranks_joined, 0, "[{summary}]");
            recovered |= parked.recoveries > 0;
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
        let opts = ChaosOptions::all(FaultPlan::ideal(13).with_join(1, 2));
        let a = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &opts);
        a.assert_invariants();
        assert_eq!(a.ranks_joined, 2, "[{}]", a.plan_summary);
        assert!(a.conservation_rounds > 0);
        assert!(a.probe_observations > 0);
        let b = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &opts);
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
            let r = kadabra_mpi_flat_observed(&g, &cfg, 3, 2, &ChaosOptions::all(plan));
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
