//! Algorithm 2 moves sparse frames (DESIGN.md §8.2): beyond set-up, a solve
//! requests less heap than one dense `(n + 1)`-slot frame per epoch. A
//! round loop that snapshots and reduces dense frames requests at least two
//! per epoch — the fresh snapshot and the reduction's copy of it.
//!
//! Set-up (diameter, calibration, the ledgers, the result) does not depend
//! on the epoch length, so two solves that differ only in `n0_base` differ
//! in heap by what their extra epochs request. Both run under a delay-free
//! plan, so their epoch counts are exact. The counting allocator counts the
//! whole process, so this binary holds one test and nothing else runs
//! beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_core::{kadabra_epoch_mpi_observed, ChaosOptions, ClusterShape, KadabraConfig};
use kadabra_graph::generators::{gnm, GnmConfig};
use kadabra_mpisim::FaultPlan;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn algorithm_2_requests_less_than_one_dense_frame_per_epoch() {
    let n = 20_000;
    let g = gnm(GnmConfig { n, m: 60_000, seed: 5 });
    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 1 };
    let solve = |n0_base: f64| {
        let cfg =
            KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 7, n0_base, ..Default::default() };
        let opts = ChaosOptions {
            plan: FaultPlan::ideal(1),
            probe: false,
            conservation: false,
            telemetry: false,
        };
        let before = ALLOC.counts();
        let r = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts).result;
        (ALLOC.counts().since(&before).bytes, r.stats.epochs)
    };
    let (short_bytes, short_epochs) = solve(1000.0);
    let (long_bytes, long_epochs) = solve(20.0);
    assert!(long_epochs >= 50, "only {long_epochs} epochs");
    let extra_epochs = long_epochs - short_epochs;
    let per_epoch = long_bytes.saturating_sub(short_bytes) / extra_epochs;
    let frame = (n as u64 + 1) * 8;
    assert!(
        per_epoch < frame,
        "{per_epoch} B per epoch over {extra_epochs} extra epochs; a dense frame is {frame} B"
    );
}
