//! **Elasticity benchmark** backing `cargo xtask bench --smoke`: quantifies
//! the two headline claims of the elastic scale-out work (DESIGN.md §15) on
//! the DES virtual timeline, plus one live grow of Algorithm 1 under a plan.
//!
//! 1. *Rank join pays for itself*: a run that doubles its world at round 1
//!    (paying the newcomers' bootstrap — diameter replay, calibration
//!    replay, admission barrier) must finish the adaptive phase at least
//!    [`MIN_GROW_SPEEDUP`]× faster than the static continuation.
//! 2. *Steal decouples round latency from the straggler factor*: without
//!    stealing, quadrupling a straggler's factor must stretch the run by
//!    more than [`MIN_NOSTEAL_GROWTH`]×; with stealing the same change must
//!    stay under [`MAX_STEAL_GROWTH`]× (the straggler keeps only
//!    `n0/factor`, so the factor nearly cancels). The steal model is the
//!    DES's alone: the drivers have no live counterpart (DESIGN.md §15).
//! 3. *The guarantee survives a live grow*: `kadabra_mpi_flat_observed`
//!    with two standbys admits both mid-run and still lands within ε of
//!    Brandes.
//!
//! Emits `BENCH_elastic.json` (`kadabra-bench/v1` plus `speedup`,
//! `ranks_joined`, `samples_stolen` (DES rows), and `oracle_gap` extra
//! columns) and
//! exits nonzero when any gate fails — so `cargo xtask bench --smoke` (and
//! the CI job wrapping it) fails loudly rather than emitting a degraded
//! artifact.
//!
//! Run: `cargo run --release -p kadabra-bench --bin bench_elastic`
//! (`KADABRA_RESULTS_DIR` picks the output directory; xtask points it at
//! the repo root.)

use kadabra_baselines::brandes;
use kadabra_bench::{des_run_labelled, emit, seed, BenchArtifact};
use kadabra_cluster::{
    simulate, simulate_perturbed, ClusterSpec, CostModel, ReduceStrategy, SimConfig,
};
use kadabra_core::{kadabra_mpi_flat_observed, prepare, ChaosOptions, ClusterShape, KadabraConfig};
use kadabra_graph::components::largest_component;
use kadabra_graph::generators::{gnm, grid, GnmConfig, GridConfig};
use kadabra_mpisim::FaultPlan;
use std::time::Instant;

/// Acceptance floor: virtual-time speedup of the grown run over the static
/// continuation (ISSUE 9's 1.2× criterion).
const MIN_GROW_SPEEDUP: f64 = 1.2;

/// Without stealing, a 4× hotter straggler must stretch the run this much…
const MIN_NOSTEAL_GROWTH: f64 = 2.0;

/// …and with stealing the same change must plateau under this.
const MAX_STEAL_GROWTH: f64 = 1.3;

fn main() {
    let seed = seed();
    // Tight enough that the adaptive phase runs well past the join round, so
    // the doubled world has rounds left to pay back the newcomers' bootstrap.
    let eps = 0.035;
    let g = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.0, seed: 0 });
    let cfg = KadabraConfig { epsilon: eps, delta: 0.1, seed, ..Default::default() };
    let prepared = prepare(&g, &cfg);
    let cost = CostModel::synthetic(100_000); // 0.1 ms per sample
    let spec = ClusterSpec::default();
    println!("bench elastic: grid-8x8 ({} vertices), eps = {eps}", g.num_nodes());

    let mut bench = BenchArtifact::new("elastic", 1.0, eps, seed);

    // Gate 1: mid-run join beats the static continuation on virtual time.
    let sim = SimConfig {
        shape: ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 },
        strategy: ReduceStrategy::IbarrierThenBlockingReduce,
        numa_penalty: false,
        steal: false,
    };
    let static_run = simulate(&g, &cfg, &prepared, &sim, &spec, &cost);
    let join_plan = FaultPlan::ideal(seed).with_join(1, 2);
    let grown = simulate_perturbed(&g, &cfg, &prepared, &sim, &spec, &cost, Some(&join_plan));
    let grow_speedup = static_run.ads_ns as f64 / grown.ads_ns.max(1) as f64;
    println!(
        "  grow: static {:.1} ms -> grown {:.1} ms ({:.2}x, {} ranks joined, \
         rebalance {:.2} ms)",
        static_run.ads_ns as f64 / 1e6,
        grown.ads_ns as f64 / 1e6,
        grow_speedup,
        grown.ranks_joined,
        grown.rebalance_ns as f64 / 1e6
    );
    bench.push(des_run_labelled("grid-8x8", "des-static", 2, 2, &static_run));
    let mut row = des_run_labelled("grid-8x8", "des-grown", 2, 2, &grown);
    row.extras.push(("speedup".to_string(), grow_speedup));
    bench.push(row);

    // Gate 2: steal flattens the straggler-factor curve.
    let shape4 = SimConfig {
        shape: ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 },
        ..sim
    };
    let stealing4 = SimConfig { steal: true, ..shape4 };
    let run = |sim: &SimConfig, factor: u64| {
        let plan = FaultPlan::ideal(seed).with_straggler(1, factor);
        simulate_perturbed(&g, &cfg, &prepared, sim, &spec, &cost, Some(&plan))
    };
    let (nosteal4, nosteal16) = (run(&shape4, 4), run(&shape4, 16));
    let (steal4, steal16) = (run(&stealing4, 4), run(&stealing4, 16));
    let growth_nosteal = nosteal16.ads_ns as f64 / nosteal4.ads_ns.max(1) as f64;
    let growth_steal = steal16.ads_ns as f64 / steal4.ads_ns.max(1) as f64;
    println!(
        "  steal: factor 4 -> 16 stretches {growth_nosteal:.2}x without steal, \
         {growth_steal:.2}x with steal ({} samples stolen at 16x)",
        steal16.samples_stolen
    );
    for (label, r) in [
        ("des-straggler4", &nosteal4),
        ("des-straggler16", &nosteal16),
        ("des-steal4", &steal4),
        ("des-steal16", &steal16),
    ] {
        bench.push(des_run_labelled("grid-8x8", label, 4, 2, r));
    }

    // Gate 3: Algorithm 1 grows mid-run and keeps ε.
    let (live_g, _) = largest_component(&gnm(GnmConfig { n: 80, m: 220, seed }));
    let live_cfg = KadabraConfig { epsilon: eps, delta: 0.1, seed, ..Default::default() };
    let opts = ChaosOptions::all(FaultPlan::ideal(seed ^ 0xE1A5).with_join(1, 2));
    let t0 = Instant::now();
    let live = kadabra_mpi_flat_observed(&live_g, &live_cfg, 2, 2, &opts);
    let live_ns = t0.elapsed().as_nanos() as u64;
    live.assert_invariants();
    let exact = brandes(&live_g);
    let oracle_gap =
        live.result.scores.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    println!(
        "  live: {} ranks joined, oracle gap {oracle_gap:.4}, {:.1} ms",
        live.ranks_joined,
        live_ns as f64 / 1e6
    );
    let mut row = kadabra_bench::live_run("gnm-80", "elastic-grow", 2, 2, &live.result);
    // The run traces nothing, so the result carries no
    // recorded phase timings — stamp the measured end-to-end wall time.
    row.wall_ns = live_ns;
    row.samples_per_sec =
        if live_ns > 0 { live.result.samples as f64 / (live_ns as f64 / 1e9) } else { 0.0 };
    row.extras.push(("ranks_joined".to_string(), live.ranks_joined as f64));
    row.extras.push(("oracle_gap".to_string(), oracle_gap));
    bench.push(row);

    emit(&bench);

    assert_eq!(grown.ranks_joined, 2, "the DES join point must admit both standbys");
    assert!(
        grow_speedup >= MIN_GROW_SPEEDUP,
        "grow speedup {grow_speedup:.2}x below the {MIN_GROW_SPEEDUP}x floor"
    );
    assert!(
        growth_nosteal > MIN_NOSTEAL_GROWTH,
        "static latency must track the straggler factor: {growth_nosteal:.2}x"
    );
    assert!(
        growth_steal < MAX_STEAL_GROWTH,
        "stolen latency must plateau: {growth_steal:.2}x, gate is {MAX_STEAL_GROWTH}x"
    );
    assert_eq!(
        live.ranks_joined, 2,
        "the live join must admit both standbys [{}]",
        live.plan_summary
    );
    assert!(
        oracle_gap <= eps,
        "live elastic estimate drifted {oracle_gap:.4} from the oracle (ε {eps}) [{}]",
        live.plan_summary
    );
}
