//! Allocation-regression gate for the server's read path (DESIGN.md §13.2).
//!
//! `EstimateCache::read_vertex` is contractually lock- and allocation-free:
//! a point read copies one count and four scalars out of the active seqlock
//! slot. `read_frontier_into` is too, into a snapshot sized for the cache.
//! This test registers a counting global allocator for the whole test
//! binary and pins reads after the first publication to exactly zero heap
//! requests, over every vertex and across a republication.
//!
//! The counting allocator counts the whole process, so this binary holds one
//! test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_server::cache::{EstimateCache, FrontierSnapshot};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn read_vertex_is_allocation_free_after_warmup() {
    let n = 4_096;
    let cache = EstimateCache::new(n, &[0.1, 0.05, 0.02]);
    assert!(cache.read_vertex(0).is_none(), "nothing is published yet");
    let counts: Vec<u64> = (0..n as u64).map(|v| v * 7 % 1_000).collect();
    cache.publish_frontier(&counts, 5_000, 0.08, 1);
    // Warm-up: the first read after a publication.
    let first = cache.read_vertex(1).expect("published");
    assert_eq!((first.count, first.tau, first.round), (7, 5_000, 1));

    let mut snap = FrontierSnapshot::new(n);

    let mut total = 0u64;
    let before = ALLOC.counts();
    for round in 0..3 {
        for v in 0..n {
            let read = cache.read_vertex(v).expect("published");
            total += read.count;
        }
        assert!(cache.read_frontier_into(&mut snap), "published");
        assert_eq!(snap.round, round + 1, "the frontier read a stale slot");
        // Republishing hands reads the other seqlock slot.
        cache.publish_frontier(&counts, 5_000 + round, 0.08, round + 2);
    }
    let heap = ALLOC.counts().since(&before);
    // The republications fall inside the measured region too: publishing
    // stores into preallocated atomics and allocates nothing either.
    assert_eq!(heap.allocs, 0, "{} reads and 3 frontier reads allocated: {heap:?}", 3 * n);
    assert_eq!(total, 3 * counts.iter().sum::<u64>());
    assert_eq!(snap.counts, counts);
}
