//! Property tests of rank-crash recovery: for *random* crash schedules over
//! a (P, T, seed, crash-point) grid, shrink-and-continue must preserve the
//! `[Σc̃, τ]` conservation invariant (asserted inside the observed drivers
//! every round, against both the reduction chain and the recovery ledger)
//! and stay bit-reproducible from `(plan, seed)`.
//!
//! Cases are few but each spins a full simulated cluster twice; the value is
//! in the randomized crash coordinates, not the case count.

use kadabra_core::{
    kadabra_epoch_mpi_observed, kadabra_mpi_flat_observed, ChaosOptions, ClusterShape,
    KadabraConfig,
};
use kadabra_graph::components::largest_component;
use kadabra_graph::generators::{gnm, GnmConfig};
use kadabra_graph::Graph;
use kadabra_mpisim::FaultPlan;
use proptest::prelude::*;

fn small_graph() -> Graph {
    let (lcc, _) = largest_component(&gnm(GnmConfig { n: 40, m: 100, seed: 4 }));
    lcc
}

/// A random crash schedule layered on a delay plan. `AtCollective`
/// coordinates start past each driver's setup joins (crashes during setup
/// are outside the recovery contract); `AfterPolls` fuses rely on the
/// plan's injected delays to tick, and simply never fire if the run ends
/// first — both outcomes must satisfy the invariants.
fn crash_plan(
    seed: u64,
    victim: usize,
    at_collective: bool,
    coord: u64,
    setup_joins: u64,
) -> FaultPlan {
    let base = FaultPlan::ideal(seed).with_collective_delay(1, 6);
    if at_collective {
        base.with_crash_at_collective(victim, setup_joins + coord)
    } else {
        base.with_crash_after_polls(victim, 1 + coord * 3)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Algorithm 1 under a random crash schedule: the per-round conservation
    /// check (which cross-audits sent totals, the recovery ledger, and the
    /// folded global state) must stay clean, and the whole run — including
    /// any shrink — must replay bit-for-bit from `(plan, seed)`.
    #[test]
    fn flat_recovery_conserves_samples_for_random_crash_schedules(
        ranks in 2usize..=4,
        seed in 0u64..512,
        victim_raw in 0usize..8,
        at_collective in any::<bool>(),
        coord in 0u64..8,
    ) {
        let g = small_graph();
        let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed: seed ^ 0xACE, ..Default::default() };
        // Flat setup is two blocking joins (diameter bcast, calibration
        // all-reduce); join 2 is the first adaptive reduction.
        let plan = crash_plan(seed, victim_raw % ranks, at_collective, coord, 2);
        let opts = ChaosOptions::all(plan);
        let a = kadabra_mpi_flat_observed(&g, &cfg, ranks, 0, &opts);
        a.assert_invariants();
        prop_assert!(a.conservation_rounds > 0, "[{}]", a.plan_summary);
        let b = kadabra_mpi_flat_observed(&g, &cfg, ranks, 0, &opts);
        prop_assert_eq!(&a.result.scores, &b.result.scores, "scores diverged [{}]", a.plan_summary);
        prop_assert_eq!(a.result.samples, b.result.samples);
        prop_assert_eq!(a.ranks_lost, b.ranks_lost, "recovery path diverged [{}]", a.plan_summary);
        prop_assert_eq!(a.recoveries, b.recoveries);
    }

    /// Algorithm 2 (hierarchical shapes, multi-threaded ranks) under a
    /// random crash schedule: same contract, plus the epoch-gap probe.
    #[test]
    fn epoch_recovery_conserves_samples_for_random_crash_schedules(
        ranks in 2usize..=4,
        ranks_per_node in 1usize..=2,
        threads in 1usize..=2,
        seed in 0u64..512,
        victim_raw in 0usize..8,
        at_collective in any::<bool>(),
        coord in 0u64..8,
    ) {
        let g = small_graph();
        let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed: seed ^ 0xBEE, ..Default::default() };
        let shape = ClusterShape { ranks, ranks_per_node, threads_per_rank: threads };
        // Epoch setup is four joins (two hierarchy splits, diameter bcast,
        // calibration all-reduce); join 4 is the first adaptive collective.
        let plan = crash_plan(seed, victim_raw % ranks, at_collective, coord, 4);
        let opts = ChaosOptions::all(plan);
        let a = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        a.assert_invariants();
        prop_assert!(a.conservation_rounds > 0, "[{}]", a.plan_summary);
        let b = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        prop_assert_eq!(&a.result.scores, &b.result.scores, "scores diverged [{}]", a.plan_summary);
        prop_assert_eq!(a.result.samples, b.result.samples);
        prop_assert_eq!(a.ranks_lost, b.ranks_lost, "recovery path diverged [{}]", a.plan_summary);
        prop_assert_eq!(a.recoveries, b.recoveries);
    }
}
