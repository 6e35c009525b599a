//! Allocation-regression gate for the round loop's per-sample path
//! (DESIGN.md §12.7).
//!
//! Every MPI driver and pool draws its samples through one closure, the
//! record closure of `mpi.rs`'s `draw`: it counts a sample's interior into
//! the rank's local frame and hands it to the stream's sink. The kernel
//! under it allocates nothing (`sample_batch_alloc.rs`), and the closure
//! must not either: an allocation there is paid once per sample, by every
//! rank, for the whole run. A round itself may allocate (its gather, its
//! stop test), so the gate is a slope: two solves that differ only in ε
//! differ in samples by far more than in rounds, and the heap requests
//! between them must grow by far less than one per extra sample (they grow
//! by 130 over 10 348 extra samples and 13 extra rounds).
//!
//! Both solves run under a delay-free plan, so their sample and round
//! counts are exact. The counting allocator counts the whole process, so
//! this binary holds one test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_core::{kadabra_mpi_flat_observed, ChaosOptions, KadabraConfig};
use kadabra_graph::generators::{grid, GridConfig};
use kadabra_mpisim::FaultPlan;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn the_round_loop_allocates_nothing_per_sample() {
    // A 32 x 32 grid: nearly every pair is at distance 2 or more, so nearly
    // every sample has an interior to copy, were the closure to copy it.
    let g = grid(GridConfig { rows: 32, cols: 32, diagonal_prob: 0.0, seed: 0 });
    let solve = |epsilon: f64| {
        let cfg = KadabraConfig { epsilon, delta: 0.1, seed: 7, ..Default::default() };
        let opts = ChaosOptions {
            plan: FaultPlan::ideal(1),
            probe: false,
            conservation: false,
            telemetry: false,
        };
        let before = ALLOC.counts();
        let r = kadabra_mpi_flat_observed(&g, &cfg, 2, 0, &opts).result;
        (ALLOC.counts().since(&before).allocs, r.samples, r.stats.epochs)
    };
    let (short_allocs, short_samples, short_rounds) = solve(0.05);
    let (long_allocs, long_samples, long_rounds) = solve(0.015);
    let extra_samples = long_samples - short_samples;
    assert!(extra_samples > 5_000, "only {extra_samples} extra samples");
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra_allocs * 10 < extra_samples,
        "{extra_allocs} heap requests for {extra_samples} extra samples ({short_rounds} -> \
         {long_rounds} rounds): the round loop allocates per sample"
    );
}
