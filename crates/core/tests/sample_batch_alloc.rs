//! Allocation-regression gate for the sampling hot path (DESIGN.md §11).
//!
//! `ThreadSampler::sample_batch` is contractually allocation-free: every
//! buffer the bidirectional search needs lives in `TraversalScratch`, sized
//! for the graph at construction, and the only buffer that grows with the
//! batch size — the sampler's pre-drawn pair batch — reaches its capacity in
//! the first batch. From the second batch on, a batch must never touch the
//! heap. This test registers a counting global allocator for the whole test
//! binary and pins the contract to exactly zero, on an instance large enough
//! that buffers left to grow on demand keep doubling for several batches.
//!
//! The gate holds in debug builds too — capacity reuse is not an optimizer
//! artifact — so it runs under plain `cargo test`, unconditionally. CI runs
//! it once more in release (`cargo test --release -p kadabra-core --test
//! sample_batch_alloc`), so an allocation only the optimized build makes
//! fails as well.

use kadabra_alloctrack::CountingAlloc;
use kadabra_core::ThreadSampler;
use kadabra_graph::components::largest_component;
use kadabra_graph::csr::graph_from_edges;
use kadabra_graph::digraph::DiGraph;
use kadabra_graph::generators::{grid, rmat, GridConfig, RmatConfig};
use kadabra_graph::{NodeId, PathSource};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Runs batches 2 to 6 of `batch` samples on `g` (the first sized the pair
/// buffer) and asserts that none allocates; returns their interior visits.
fn batches_allocate_nothing<G: PathSource>(
    g: &G,
    sampler: &mut ThreadSampler,
    batch: u64,
    what: &str,
) -> u64 {
    let mut interior_visits = 0u64;
    for nth in 2..=6 {
        let before = ALLOC.counts();
        sampler.sample_batch(g, batch, |interior| interior_visits += interior.len() as u64);
        let heap = ALLOC.counts().since(&before);
        assert_eq!(heap.allocs, 0, "{what}: batch {nth} of {batch} samples allocated: {heap:?}");
    }
    interior_visits
}

#[test]
fn sample_batch_is_allocation_free_after_warmup() {
    // R-MAT scale 14, edge factor 8: ~11k vertices in its largest component.
    let (g, _) = largest_component(&rmat(RmatConfig::graph500(14, 8, 1)));
    let (g, _) = g.relabel_by_degree();
    let batch: u64 = 2_048;

    let mut sampler = ThreadSampler::new(g.num_nodes(), 7, 0, 0);
    let mut interior_visits = 0u64;
    // The first batch sizes the pair buffer; nothing else may grow, ever.
    sampler.sample_batch(&g, batch, |interior| interior_visits += interior.len() as u64);

    // The counters are process-wide, but this is the only test in the binary
    // and the harness thread is parked while it runs.
    interior_visits += batches_allocate_nothing(&g, &mut sampler, batch, "R-MAT s14");

    // A high-diameter input, whose searches run dozens of levels deep where
    // R-MAT's meet after three to six. Its sampler's first batch runs on a
    // star of the same order, two levels deep: that sizes the pair buffer
    // and leaves a level-start buffer grown on demand short, so the grid's
    // batches fail the gate unless every buffer was allocated at capacity.
    let (grid_g, _) =
        grid(GridConfig { rows: 64, cols: 64, diagonal_prob: 0.0, seed: 0 }).relabel_by_degree();
    let n = grid_g.num_nodes();
    let star = graph_from_edges(n, &(1..n as NodeId).map(|v| (0, v)).collect::<Vec<_>>());
    let mut grid_sampler = ThreadSampler::new(n, 7, 0, 0);
    grid_sampler.sample_batch(&star, batch, |interior| interior_visits += interior.len() as u64);
    interior_visits += batches_allocate_nothing(&grid_g, &mut grid_sampler, batch, "64 x 64 grid");
    assert!(interior_visits > 0, "the batches must produce interior vertices");

    // The same loop over another graph kind, whose searches read out-rows
    // from one end and in-rows from the other (in this function because the
    // counters are process-wide).
    let arcs: Vec<(NodeId, NodeId)> = g.edges().filter(|&(u, v)| (u + v) % 3 != 0).collect();
    let dg = DiGraph::from_arcs(g.num_nodes(), &arcs);
    let mut sampler = ThreadSampler::new(dg.num_nodes(), 7, 0, 0);
    let mut interior_visits = 0u64;
    sampler.sample_batch(&dg, batch, |interior| interior_visits += interior.len() as u64);
    interior_visits += batches_allocate_nothing(&dg, &mut sampler, batch, "directed R-MAT s14");
    assert!(interior_visits > 0, "the directed batches must produce interior vertices");
}
