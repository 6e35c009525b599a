//! Chaos conformance suite: Algorithms 1 and 2 executed under deterministic
//! fault plans must still honor the paper's (ε, δ) guarantee against exact
//! Brandes, conserve every aggregated sample through the reduction chain,
//! and keep the cross-process epoch gap ≤ 1 past every completed reduction.
//!
//! Every test here prints-by-panic a plan summary on failure; feeding the
//! same `(plan, seed)` back into the observed driver replays the run
//! bit-for-bit (see `DESIGN.md`, §8).

use kadabra_mpi::baselines::brandes;
use kadabra_mpi::core::{
    kadabra_epoch_mpi_observed, kadabra_mpi_flat_observed, ChaosOptions, ClusterShape,
    KadabraConfig,
};
use kadabra_mpi::graph::components::largest_component;
use kadabra_mpi::graph::generators::{gnm, GnmConfig};
use kadabra_mpi::graph::Graph;
use kadabra_mpi::mpisim::FaultPlan;

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

fn test_graph() -> Graph {
    let (lcc, _) = largest_component(&gnm(GnmConfig { n: 60, m: 160, seed: 14 }));
    lcc
}

/// How many corpus plans the differential sweeps cover. The CI chaos job
/// raises this via `KADABRA_CHAOS_PLANS`; the default keeps `cargo test`
/// fast.
fn corpus_size() -> u64 {
    std::env::var("KADABRA_CHAOS_PLANS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// How many crash-corpus plans the rank-failure sweeps cover. The CI chaos
/// job raises this via `KADABRA_CHAOS_CRASHES` (`cargo xtask chaos
/// --crashes N`).
fn crash_corpus_size() -> u64 {
    std::env::var("KADABRA_CHAOS_CRASHES").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// How many grow-corpus plans the elastic sweeps cover. The CI
/// chaos-elastic job raises this via `KADABRA_CHAOS_GROWS` (`cargo xtask
/// chaos --grows N`).
fn grow_corpus_size() -> u64 {
    std::env::var("KADABRA_CHAOS_GROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// One straggler rank under wide collective delays, Algorithm 2 on P=4
/// ranks × T=2 threads. Scores
/// must land within ε of Brandes, the epoch-gap probe must never see a
/// cross-process gap > 1 after the first completed reduction, and the same
/// `(plan, seed)` must reproduce identical scores on a second run.
#[test]
fn straggler_meets_guarantee_and_reproduces() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 2020, ..Default::default() };
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
    let plan = FaultPlan::ideal(77).with_straggler(2, 8).with_collective_delay(1, 25);
    let opts = ChaosOptions::all(plan);

    let first = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
    first.assert_invariants();
    assert!(first.probe_observations > 0, "probe saw no completed reductions");
    assert!(first.conservation_rounds > 0, "conservation check never ran");
    let err = max_abs_diff(&first.result.scores, &exact);
    assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", first.plan_summary);

    let second = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
    assert_eq!(
        first.result.scores, second.result.scores,
        "same (plan, seed) must reproduce bit-identical scores [{}]",
        first.plan_summary
    );
    assert_eq!(first.result.samples, second.result.samples);
}

/// Differential corpus sweep over Algorithm 1: every generated plan must
/// leave the ε guarantee intact and keep the conservation ledger balanced.
#[test]
fn flat_corpus_respects_epsilon_and_conserves_samples() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 501, ..Default::default() };
    for seed in 0..corpus_size() {
        let opts = ChaosOptions::all(FaultPlan::from_seed(seed));
        let report = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &opts);
        report.assert_invariants();
        assert!(report.conservation_rounds > 0, "[{}]", report.plan_summary);
        let err = max_abs_diff(&report.result.scores, &exact);
        assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", report.plan_summary);
    }
}

/// Differential corpus sweep over Algorithm 2 on a hierarchical shape.
#[test]
fn epoch_corpus_respects_epsilon_and_gap_invariant() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 502, ..Default::default() };
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
    for seed in 0..corpus_size() {
        let opts = ChaosOptions::all(FaultPlan::from_seed(seed));
        let report = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        report.assert_invariants();
        assert!(report.probe_observations > 0, "[{}]", report.plan_summary);
        let err = max_abs_diff(&report.result.scores, &exact);
        assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", report.plan_summary);
    }
}

/// The rank-crash acceptance scenario from the issue: Algorithm 2 on P=4
/// ranks × T=2 threads with one rank killed mid-adaptive-phase. The
/// survivors must shrink the communicator, resume from the checkpointed
/// sample ledger, terminate, and still land within ε of Brandes — and the
/// whole recovery must replay bit-for-bit from the same `(plan, seed)`.
#[test]
fn crash_mid_adaptive_shrinks_resumes_and_meets_guarantee() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 2021, ..Default::default() };
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
    // Join 4 is rank 3's first adaptive-phase collective (after the two
    // hierarchy splits, the diameter broadcast, and the calibration
    // all-reduce), so the crash lands squarely in the sampling loop.
    let plan = FaultPlan::ideal(41).with_crash_at_collective(3, 4);
    let opts = ChaosOptions::all(plan);

    let first = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
    first.assert_invariants();
    assert!(first.recoveries >= 1, "crash never triggered recovery [{}]", first.plan_summary);
    assert_eq!(first.ranks_lost, 1, "[{}]", first.plan_summary);
    assert!(first.conservation_rounds > 0, "[{}]", first.plan_summary);
    let err = max_abs_diff(&first.result.scores, &exact);
    assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", first.plan_summary);

    let second = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
    assert_eq!(
        first.result.scores, second.result.scores,
        "same (plan, seed) must reproduce the recovery bit-for-bit [{}]",
        first.plan_summary
    );
    assert_eq!(first.result.samples, second.result.samples);
    assert_eq!(first.ranks_lost, second.ranks_lost);
}

/// The crash-during-reduction case: injected completion delays make the
/// victim poll its in-flight `Ireduce` request, and the plan kills it on a
/// cumulative poll count — so it dies with a reduction half-joined. The
/// survivors' ledger-based recovery must discard the torn round everywhere
/// and still meet the guarantee, reproducibly.
#[test]
fn crash_during_reduction_recovers_and_meets_guarantee() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 2022, ..Default::default() };
    // Delay ≥ 2 guarantees the victim polls its round-0 `Ireduce` at least
    // twice, so the poll-2 fuse provably fires with that reduction in
    // flight (blocking setup collectives never tick the fuse).
    let plan = FaultPlan::ideal(53).with_collective_delay(2, 8).with_crash_after_polls(2, 2);
    let opts = ChaosOptions::all(plan);

    let first = kadabra_mpi_flat_observed(&g, &cfg, 4, 0, &opts);
    first.assert_invariants();
    assert!(first.recoveries >= 1, "crash never triggered recovery [{}]", first.plan_summary);
    assert_eq!(first.ranks_lost, 1, "[{}]", first.plan_summary);
    let err = max_abs_diff(&first.result.scores, &exact);
    assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", first.plan_summary);

    let second = kadabra_mpi_flat_observed(&g, &cfg, 4, 0, &opts);
    assert_eq!(
        first.result.scores, second.result.scores,
        "same (plan, seed) must reproduce the recovery bit-for-bit [{}]",
        first.plan_summary
    );
    assert_eq!(first.recoveries, second.recoveries);
}

/// Crash-corpus sweep over Algorithm 1: every generated plan schedules one
/// rank crash on top of randomized delays. Whether or not the crash fires
/// before termination, the ε guarantee and both conservation invariants
/// must hold.
#[test]
fn flat_crash_corpus_respects_epsilon_and_conserves_samples() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 601, ..Default::default() };
    for seed in 0..crash_corpus_size() {
        let opts = ChaosOptions::all(FaultPlan::from_seed_with_crashes(seed, 4));
        let report = kadabra_mpi_flat_observed(&g, &cfg, 4, 0, &opts);
        report.assert_invariants();
        assert!(report.conservation_rounds > 0, "[{}]", report.plan_summary);
        let err = max_abs_diff(&report.result.scores, &exact);
        assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", report.plan_summary);
    }
}

/// Crash-corpus sweep over Algorithm 2 on the hierarchical shape.
#[test]
fn epoch_crash_corpus_respects_epsilon_and_gap_invariant() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 602, ..Default::default() };
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
    for seed in 0..crash_corpus_size() {
        let opts = ChaosOptions::all(FaultPlan::from_seed_with_crashes(seed, 4));
        let report = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
        report.assert_invariants();
        assert!(report.probe_observations > 0, "[{}]", report.plan_summary);
        let err = max_abs_diff(&report.result.scores, &exact);
        assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", report.plan_summary);
    }
}

/// The elastic acceptance scenario: adding 2 standby ranks
/// mid-adaptive-phase to a P=4 world. The grown run must finish, land
/// within ε of Brandes, conserve `[Σc̃, τ]` across the membership change
/// (asserted inside the driver's grow block), and replay bit-for-bit from
/// the same `(plan, seed)`.
#[test]
fn grow_mid_adaptive_meets_guarantee_and_reproduces() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 2023, ..Default::default() };
    let plan = FaultPlan::ideal(85).with_join(1, 2);
    let opts = ChaosOptions::all(plan);

    let first = kadabra_mpi_flat_observed(&g, &cfg, 4, 2, &opts);
    first.assert_invariants();
    assert_eq!(first.ranks_joined, 2, "join never admitted [{}]", first.plan_summary);
    assert!(first.conservation_rounds > 0, "[{}]", first.plan_summary);
    let err = max_abs_diff(&first.result.scores, &exact);
    assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", first.plan_summary);

    let second = kadabra_mpi_flat_observed(&g, &cfg, 4, 2, &opts);
    assert_eq!(
        first.result.scores, second.result.scores,
        "same (plan, seed) must reproduce the grown run bit-for-bit [{}]",
        first.plan_summary
    );
    assert_eq!(first.result.samples, second.result.samples);
    assert_eq!(first.ranks_joined, second.ranks_joined);
}

/// Grow-corpus sweep: every generated plan schedules one mid-phase join on
/// top of randomized delays. Whether or not the run survives long enough
/// for the join to fire, the ε guarantee and the conservation invariants
/// must hold, and admission is all-or-nothing per plan.
#[test]
fn grow_corpus_respects_epsilon_and_conserves_samples() {
    let g = test_graph();
    let exact = brandes(&g);
    let cfg = KadabraConfig { epsilon: 0.06, delta: 0.1, seed: 701, ..Default::default() };
    for seed in 0..grow_corpus_size() {
        let plan = FaultPlan::from_seed_with_grows(seed, 2);
        let expected = plan.total_joiners() as u64;
        let report = kadabra_mpi_flat_observed(&g, &cfg, 3, 2, &ChaosOptions::all(plan));
        report.assert_invariants();
        assert!(report.conservation_rounds > 0, "[{}]", report.plan_summary);
        assert!(
            report.ranks_joined == 0 || report.ranks_joined == expected,
            "partial admission: {} of {} [{}]",
            report.ranks_joined,
            expected,
            report.plan_summary
        );
        let err = max_abs_diff(&report.result.scores, &exact);
        assert!(err <= cfg.epsilon, "max error {err} > eps [{}]", report.plan_summary);
    }
}

/// An unperturbed (ideal) plan is itself part of the corpus: the observed
/// driver with everything-zero injection must satisfy the same invariants,
/// proving the probes do not rely on faults to stay quiet.
#[test]
fn ideal_plan_is_a_clean_baseline() {
    let g = test_graph();
    let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed: 77, ..Default::default() };
    let report = kadabra_mpi_flat_observed(&g, &cfg, 2, 0, &ChaosOptions::all(FaultPlan::ideal(0)));
    report.assert_invariants();
    assert!(report.probe_observations > 0);
}
