//! Allocation-regression gate for the invalidation kernel (DESIGN.md §14.2).
//!
//! `invalidate::classify_samples` is contractually allocation-free: it reads
//! the retained records and the endpoint distance tables the sweeps filled,
//! and marks a caller-owned bitmap. This test registers a counting global
//! allocator for the whole test binary and pins classification after
//! warm-up to exactly zero heap requests, on a batch with deletions and
//! insertions that invalidates some records and keeps others.
//!
//! The counting allocator counts the whole process, so this binary holds one
//! test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_core::ValidityBitmap;
use kadabra_dynamic::{classify_samples, DynamicGraph, PathStore, SweepScratch, UpdateBatch};
use kadabra_graph::bfs::hop_distance;
use kadabra_graph::csr::graph_from_edges;
use kadabra_graph::NodeId;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn classify_samples_is_allocation_free_after_warmup() {
    // A 24 x 24 grid: long paths, so a deleted edge lies on some recorded
    // shortest paths and not on others.
    let side: NodeId = 24;
    let n = (side * side) as usize;
    let id = |r: NodeId, c: NodeId| r * side + c;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < side {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    let old = graph_from_edges(n, &edges);
    let deletes = vec![(id(3, 4), id(3, 5)), (id(10, 10), id(11, 10))];
    let inserts = vec![(id(0, 0), id(23, 23)), (id(5, 0), id(5, 20))];
    let batch = UpdateBatch::new(inserts.clone(), deletes.clone()).expect("a valid batch");
    edges.retain(|e| !deletes.contains(e));
    edges.extend(&inserts);
    let new = graph_from_edges(n, &edges);

    // Records of pairs across the grid, each at its distance on the old grid.
    let mut store = PathStore::new(n);
    for i in 0..400u32 {
        let s = i * 37 % n as NodeId;
        let t = (i * 101 + 13) % n as NodeId;
        let dist = hop_distance(&old, s, t).expect("the grid is connected");
        store.push(s, t, dist, &[]);
    }

    let mut sweep = SweepScratch::new();
    let mut eps = Vec::new();
    batch.delete_endpoints(&mut eps);
    sweep.sweep_old(&DynamicGraph::new(old), eps, u32::MAX, batch.deletes());
    let mut eps = Vec::new();
    batch.insert_endpoints(&mut eps);
    sweep.sweep_new(&DynamicGraph::new(new), eps, u32::MAX, batch.inserts());
    let mut bitmap = ValidityBitmap::all_valid(store.len());
    let classify = |bitmap: &mut ValidityBitmap| {
        classify_samples(
            store.recs(),
            n,
            &sweep.del_slots,
            &sweep.dist_old,
            &sweep.ins_slots,
            &sweep.dist_new,
            bitmap,
        );
    };
    classify(&mut bitmap);
    let invalid = bitmap.invalid_count();
    assert!(0 < invalid && invalid < store.len(), "{invalid} of {} invalidated", store.len());

    let before = ALLOC.counts();
    for _ in 0..3 {
        bitmap.reset(store.len());
        classify(&mut bitmap);
    }
    let heap = ALLOC.counts().since(&before);
    assert_eq!(heap.allocs, 0, "classifying {} records allocated: {heap:?}", store.len());
    assert_eq!(bitmap.invalid_count(), invalid);
}
