//! A one-shot solve samples the caller's CSR in place: the heap bytes
//! `kadabra_sequential` and `kadabra_shared` request over a whole solve stay
//! below the size of the graph they are given, so neither can have built a
//! second copy of it (DESIGN.md §11.1).
//!
//! The counting allocator counts the whole process, so this binary holds one
//! test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_core::{kadabra_sequential, kadabra_shared, KadabraConfig};
use kadabra_graph::generators::{gnm, GnmConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn one_shot_solves_request_less_than_one_csr() {
    // Dense enough that the CSR is several times every O(n) buffer of a solve.
    let g = gnm(GnmConfig { n: 2_000, m: 200_000, seed: 1 });
    let csr = g.memory_bytes() as u64;
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 3, ..Default::default() };

    let before = ALLOC.counts();
    let r = kadabra_sequential(&g, &cfg);
    let heap = ALLOC.counts().since(&before);
    assert!(r.samples > 0);
    assert!(heap.bytes < csr, "sequential requested {} B for a {csr} B CSR", heap.bytes);

    let before = ALLOC.counts();
    let r = kadabra_shared(&g, &cfg, 2);
    let heap = ALLOC.counts().since(&before);
    assert!(r.samples > 0);
    assert!(heap.bytes < csr, "shared requested {} B for a {csr} B CSR", heap.bytes);
}
