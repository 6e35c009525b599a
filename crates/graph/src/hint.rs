//! Best-effort memory hints: software prefetch and transparent huge pages.
//!
//! The sampling kernel's probes into the stamped BFS state and into adjacency
//! rows are data-dependent random accesses — exactly the pattern hardware
//! prefetchers cannot predict. Issuing an explicit prefetch a few iterations
//! ahead overlaps the memory latency with useful work. On architectures
//! without a prefetch intrinsic the hint compiles to nothing.
//!
//! The same arrays are far larger than the TLB covers in 4 KiB pages, and
//! each of their pages costs a fault on its first write. Advising an array
//! for transparent huge pages before that write lets the kernel back it with
//! 2 MiB pages where its policy allows (DESIGN.md §11.8). The advice changes
//! which pages hold the bytes, never the bytes, so no output depends on
//! whether the kernel takes it.
//!
//! Correctness never depends on either hint. This is the crate's only module
//! with `unsafe`.

/// The size and alignment of a transparent huge page on x86_64 and on
/// aarch64 with 4 KiB base pages: only a 2 MiB-aligned range this long can
/// be mapped by one.
pub const HUGE_PAGE_BYTES: usize = 2 << 20;

/// `MADV_HUGEPAGE` of `<sys/mman.h>`.
#[cfg(all(target_os = "linux", not(miri)))]
const MADV_HUGEPAGE: core::ffi::c_int = 14;

#[cfg(all(target_os = "linux", not(miri)))]
extern "C" {
    fn madvise(
        addr: *mut core::ffi::c_void,
        len: usize,
        advice: core::ffi::c_int,
    ) -> core::ffi::c_int;
}

/// Hints the CPU to pull `data[index]` into L1. Out-of-range indices are
/// silently ignored; the hint has no architectural effect either way.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if index < data.len() {
            // SAFETY: `_mm_prefetch` is a pure cache hint with no
            // architectural side effects and cannot fault; the pointer is
            // in-bounds by the check above.
            #[allow(unsafe_code)]
            unsafe {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(data.as_ptr().add(index).cast::<i8>());
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

/// Advises the kernel to back the [`HUGE_PAGE_BYTES`]-aligned interior of
/// `buf` with transparent huge pages (`madvise(MADV_HUGEPAGE)`), and returns
/// the bytes advised. Call it on an array's storage before its first write,
/// since a page already faulted in at 4 KiB stays so until `khugepaged`
/// collapses it; [`resize_huge`] does this for a `Vec`.
///
/// Only the aligned interior is advised: no huge page fits in the ragged
/// ends, and the pages there may hold other allocations. Returns 0, having
/// done nothing, when that interior is empty, when `madvise` fails (a kernel
/// without THP, a file-backed mapping), and off Linux or under Miri. The
/// call requests no heap.
pub fn advise_huge_pages<T>(buf: &mut [T]) -> usize {
    let start = buf.as_mut_ptr() as usize;
    let end = start + std::mem::size_of_val(buf);
    let lo = start.next_multiple_of(HUGE_PAGE_BYTES);
    let hi = end - end % HUGE_PAGE_BYTES;
    if hi <= lo {
        return 0;
    }
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        // SAFETY: `[lo, hi)` lies inside `buf`, which the exclusive borrow
        // keeps alive and unaliased for the call. `MADV_HUGEPAGE` only marks
        // the range eligible for huge pages; it neither reads, writes, moves
        // nor unmaps a byte of it, so every value in `buf` is unchanged.
        #[allow(unsafe_code)]
        let status = unsafe {
            madvise(buf.as_mut_ptr().cast::<u8>().add(lo - start).cast(), hi - lo, MADV_HUGEPAGE)
        };
        if status == 0 {
            return hi - lo;
        }
    }
    0
}

/// [`Vec::resize`] to `len` copies of `value`, with the storage `v` grows
/// into advised by [`advise_huge_pages`] before the fill first writes it.
pub fn resize_huge<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.reserve(len.saturating_sub(v.len()));
    advise_huge_pages(v.spare_capacity_mut());
    v.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        let data = vec![1u64, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 1_000_000); // out of range: ignored
        let empty: Vec<u32> = Vec::new();
        prefetch_read(&empty, 0);
        assert_eq!(data, vec![1, 2, 3]);
    }

    /// A byte buffer of three huge pages and the offset of its first aligned
    /// byte, so that `[at, at + 2 MiB)` is one aligned huge page inside it.
    fn three_pages() -> (Vec<u8>, usize) {
        let buf: Vec<u8> = (0..3 * HUGE_PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        let at = (buf.as_ptr() as usize).next_multiple_of(HUGE_PAGE_BYTES) - buf.as_ptr() as usize;
        (buf, at)
    }

    #[test]
    fn slices_without_an_aligned_huge_page_are_left_alone() {
        assert_eq!(advise_huge_pages::<u64>(&mut []), 0);
        assert_eq!(advise_huge_pages(&mut [0u8; 0]), 0);
        assert_eq!(advise_huge_pages(&mut [7u32; 1000]), 0);
        // Zero-sized elements span no bytes, however many there are.
        assert_eq!(advise_huge_pages(&mut [(); 1 << 30]), 0);
        let (mut buf, at) = three_pages();
        let want = buf.clone();
        // One byte short of an aligned page, from its start or to its end.
        assert_eq!(advise_huge_pages(&mut buf[at..at + HUGE_PAGE_BYTES - 1]), 0);
        assert_eq!(advise_huge_pages(&mut buf[at + 1..at + HUGE_PAGE_BYTES]), 0);
        // Longer than a page but straddling an aligned boundary.
        let half = HUGE_PAGE_BYTES / 2;
        assert_eq!(advise_huge_pages(&mut buf[at + half..at + 2 * HUGE_PAGE_BYTES - 1]), 0);
        assert_eq!(buf, want);
    }

    #[test]
    fn advice_leaves_every_value_as_it_was() {
        let (mut buf, at) = three_pages();
        let want = buf.clone();
        assert_eq!(advise_huge_pages(&mut buf[at - at.min(7)..]) % HUGE_PAGE_BYTES, 0);
        assert!(advise_huge_pages(&mut buf[at..at + HUGE_PAGE_BYTES]) <= HUGE_PAGE_BYTES);
        assert_eq!(buf, want);

        let mut v = vec![3u64; 5];
        resize_huge(&mut v, 3 * HUGE_PAGE_BYTES / 8, 9);
        assert_eq!(&v[..5], &[3; 5]);
        assert!(v[5..].iter().all(|&x| x == 9));
        resize_huge(&mut v, 2, 0);
        assert_eq!(v, [3, 3]);
    }

    /// The kernel accepts the advice wherever it has transparent huge pages
    /// at all (the sysfs knob exists), whatever its policy: `madvise` marks
    /// the range and returns 0. Whether pages then come huge depends on the
    /// policy and on fragmentation, so that is not asserted.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn the_kernel_accepts_the_advice_on_a_fresh_vector() {
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled").exists() {
            return;
        }
        let mut v: Vec<u8> = Vec::with_capacity(8 << 20);
        let advised = advise_huge_pages(v.spare_capacity_mut());
        assert!(advised >= 6 << 20, "madvise failed: advised {advised} of 8 MiB");
        assert_eq!(advised % HUGE_PAGE_BYTES, 0);
    }
}
