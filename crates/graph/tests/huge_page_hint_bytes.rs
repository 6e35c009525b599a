//! `hint::advise_huge_pages` is one system call on memory the caller already
//! holds: it requests no heap, so advising an array costs nothing an
//! allocation-free path could notice (DESIGN.md §11.8).
//!
//! The counting allocator counts the whole process, so this binary holds one
//! test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_graph::hint::{advise_huge_pages, HUGE_PAGE_BYTES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn advising_requests_no_heap() {
    let mut fresh: Vec<u64> = Vec::with_capacity(8 << 20 >> 3);
    let mut filled = vec![5u32; 3 * HUGE_PAGE_BYTES / 4];

    let before = ALLOC.counts();
    advise_huge_pages(fresh.spare_capacity_mut());
    advise_huge_pages(&mut filled);
    advise_huge_pages(&mut filled[..10]);
    advise_huge_pages::<u8>(&mut []);
    let heap = ALLOC.counts().since(&before);

    assert_eq!(heap.allocs, 0, "advising requested heap: {heap:?}");
    assert!(filled.iter().all(|&x| x == 5));
}
