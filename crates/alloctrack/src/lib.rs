//! A counting [`GlobalAlloc`] wrapper for allocation-regression gates.
//!
//! The sampling hot path is contractually allocation-free in steady state
//! (DESIGN.md §11): after warm-up, `ThreadSampler::sample_batch` must not
//! touch the heap. Prose contracts rot, so
//! `crates/core/tests/sample_batch_alloc.rs` registers [`CountingAlloc`] as
//! the test binary's `#[global_allocator]` and asserts the post-warm-up
//! allocation delta is exactly zero, in debug under tier-1 and in release in
//! CI. The other one-test counting binaries (the server's read path and
//! `add_tenant`, the dynamic engine's classification, the one-shot drivers'
//! copies, Algorithm 2's frames, the loader) pin their contracts the same
//! way, and the benchmark package reads allocations per sample from it.
//!
//! Counters are plain `Relaxed` monotone counters — they order nothing, and
//! cross-thread exactness is not needed (every consumer measures on a single
//! thread; other threads can only inflate the reading, never hide an
//! allocation).
//!
//! This crate deliberately sidesteps the workspace's loom `sync.rs`
//! indirection: a `#[global_allocator]` static must be `const`-constructible
//! and live for the whole process, which loom's model-checked atomics cannot
//! do — and the allocator runs *underneath* any model the checker could
//! explore anyway.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-delegating allocator that counts every heap operation.
///
/// Register it as the binary's global allocator, then diff [`counts`]
/// snapshots around the region under test:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: CountingAlloc = CountingAlloc::new();
///
/// let before = ALLOC.counts();
/// hot_path();
/// assert_eq!(ALLOC.counts().allocs - before.allocs, 0);
/// ```
///
/// [`counts`]: CountingAlloc::counts
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time reading of the counters. Diff two snapshots with
/// [`AllocCounts::since`] to measure a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Heap acquisitions: `alloc`, `alloc_zeroed`, and every `realloc`
    /// (a realloc may move, so the zero-alloc contract counts it).
    pub allocs: u64,
    /// Calls to `dealloc`.
    pub deallocs: u64,
    /// Total bytes requested across all acquisitions.
    pub bytes: u64,
}

impl AllocCounts {
    /// The counter deltas accumulated since `earlier` was taken.
    #[must_use]
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            deallocs: self.deallocs.wrapping_sub(earlier.deallocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

impl CountingAlloc {
    /// A zeroed counter set delegating to the system allocator.
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters (process-wide, monotone).
    pub fn counts(&self) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn record(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure delegation to `System`; the counter updates have no effect on
// the returned pointers or layouts.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocs.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registered once for the whole test binary; both tests read it.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc::new();

    #[test]
    fn vec_growth_is_counted() {
        let before = ALLOC.counts();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend_from_slice(&[1, 2, 3, 4]);
        let mid = ALLOC.counts().since(&before);
        assert!(mid.allocs >= 1, "Vec::with_capacity must hit the allocator");
        assert!(mid.bytes >= 32);
        drop(v);
        let end = ALLOC.counts().since(&before);
        assert!(end.deallocs >= 1, "drop must hit dealloc");
    }

    #[test]
    fn allocation_free_region_reads_zero_delta() {
        // The counters are process-wide, so a concurrently running test can
        // bleed allocations into the measured window; retry a few times — a
        // real allocation in the region fails every attempt.
        let mut v: Vec<u64> = Vec::with_capacity(64);
        let zero_seen = (0..16).any(|_| {
            v.clear();
            let before = ALLOC.counts();
            // Pushing within capacity must not allocate.
            for i in 0..64 {
                v.push(i);
            }
            assert_eq!(v.iter().sum::<u64>(), 63 * 64 / 2);
            ALLOC.counts().since(&before).allocs == 0
        });
        assert!(zero_seen, "in-capacity pushes must be allocation-free");
    }
}
