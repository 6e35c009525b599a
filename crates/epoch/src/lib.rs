//! The **epoch-based framework** for aggregating adaptive-sampling state
//! from multiple threads with almost no synchronization.
//!
//! This crate reproduces the concurrent data structure of van der Grinten,
//! Angriman & Meyerhenke, *"Parallel adaptive sampling with almost no
//! synchronization"* (Euro-Par 2019) — Ref. \[24\] of the IPDPS 2020 paper —
//! in the functional formulation of the paper's Section IV-B:
//!
//! * Sampling progress is divided into discrete **epochs**; epochs are *not*
//!   synchronized between threads.
//! * Each thread writes samples into its own **state frame** (SF) for the
//!   current epoch. A state frame is the pair `(τ, c̃)`: a sample counter and
//!   a per-vertex count vector.
//! * Thread 0 initiates epoch transitions via [`EpochFramework::force_transition`]
//!   (non-blocking; completion is monitored with
//!   [`EpochFramework::transition_done`]); other threads join via
//!   [`EpochFramework::check_transition`] between samples.
//! * Once all threads have advanced past epoch `e`, the SFs of epoch `e` are
//!   immutable and thread 0 may aggregate them soundly
//!   ([`EpochFramework::aggregate_epoch`]).
//!
//! The mechanism is **wait-free for sampling threads**: recording a sample is
//! a handful of `Relaxed` atomic increments; checking for a transition is a
//! single `Acquire` load plus, at most, one `Release` store. No
//! compare-and-swap is used anywhere, matching the "lightweight memory
//! fences" claim of Ref. \[24\].
//!
//! Memory-ordering argument (the paper defers this to Ref. \[24\]):
//! a sampling thread finishes all `Relaxed` frame writes *before* it
//! publishes its new epoch with a `Release` store; the aggregator reads the
//! epoch with an `Acquire` load before touching the frame, so all frame
//! writes *happen-before* the aggregation reads. Conversely the aggregator
//! zeroes a frame before publishing the next `commanded` epoch (`Release`),
//! and the owner re-acquires it only after observing that command
//! (`Acquire`), so recycled frames are seen zeroed. Exactly two frames per
//! thread are needed because a thread in epoch `e+1` can only be commanded
//! into `e+2` after the aggregation of `e` completed — the paper's
//! "no thread accesses state frames of epoch e−2" guarantee.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crossbeam::utils::CachePadded;
pub mod probe;
pub mod sync;

pub use probe::CrossEpochProbe;

use crate::sync::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// A state frame: per-vertex sample counts `c̃` plus the sample counter `τ`.
///
/// Owned by one thread for one epoch at a time; written with `Relaxed`
/// ordering (publication happens via the owner's epoch counter).
pub struct StateFrame {
    counts: Vec<AtomicU32>,
    tau: AtomicU64,
}

impl StateFrame {
    fn new(n: usize) -> Self {
        let mut counts = Vec::with_capacity(n);
        counts.resize_with(n, || AtomicU32::new(0));
        StateFrame { counts, tau: AtomicU64::new(0) }
    }

    /// Records one sample: increments `τ` and the count of every vertex in
    /// `interior` (the interior vertices of the sampled shortest path; an
    /// empty slice is a valid sample of an adjacent pair).
    #[inline]
    fn record(&self, interior: &[u32]) {
        for &v in interior {
            self.counts[v as usize].fetch_add(1, Ordering::Relaxed);
        }
        self.tau.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads τ.
    pub fn tau(&self) -> u64 {
        self.tau.load(Ordering::Relaxed)
    }

    /// Drains this frame into `acc` (u64 accumulation), zeroing it for reuse.
    fn drain_into(&self, acc: &mut [u64]) -> u64 {
        debug_assert_eq!(acc.len(), self.counts.len());
        for (a, c) in acc.iter_mut().zip(&self.counts) {
            let v = c.load(Ordering::Relaxed);
            if v != 0 {
                *a += v as u64;
                c.store(0, Ordering::Relaxed);
            }
        }
        self.tau.swap(0, Ordering::Relaxed)
    }
}

/// Shared coordination state for `T` sampling threads over an `n`-vertex
/// graph. See the crate docs for the protocol.
pub struct EpochFramework {
    n: usize,
    num_threads: usize,
    /// The epoch every thread is commanded to reach (written by thread 0).
    commanded: CachePadded<AtomicU32>,
    /// Per-thread current epoch; written only by the owning thread.
    thread_epochs: Vec<CachePadded<AtomicU32>>,
    /// Two frames per thread, indexed by epoch parity.
    frames: Vec<[StateFrame; 2]>,
    /// Global termination flag (the `d` flag of Algorithm 2).
    terminate: CachePadded<AtomicBool>,
}

impl EpochFramework {
    /// Creates the framework for `num_threads` sampling threads over `n`
    /// vertices. All threads start in epoch 0.
    pub fn new(n: usize, num_threads: usize) -> Self {
        assert!(num_threads >= 1, "at least one thread required");
        let mut thread_epochs = Vec::with_capacity(num_threads);
        thread_epochs.resize_with(num_threads, || CachePadded::new(AtomicU32::new(0)));
        let mut frames = Vec::with_capacity(num_threads);
        frames.resize_with(num_threads, || [StateFrame::new(n), StateFrame::new(n)]);
        EpochFramework {
            n,
            num_threads,
            commanded: CachePadded::new(AtomicU32::new(0)),
            thread_epochs,
            frames,
            terminate: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Number of vertices each state frame covers.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of participating threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Creates the handle for thread `t`. Each `t` must be used by exactly
    /// one thread at a time (enforced dynamically by epoch ownership, not by
    /// the type system, because handles only borrow the shared framework).
    pub fn handle(&self, t: usize) -> SamplerHandle<'_> {
        assert!(t < self.num_threads, "thread index out of range");
        // xtask: allow(atomic-protocol) — own-thread read: slot `t` is only
        // ever stored by thread `t` itself, so program order already orders
        // this load (the cross-thread paths are loom-checked in
        // `epoch_publication_two_threads`).
        SamplerHandle { fw: self, t, epoch: self.thread_epochs[t].load(Ordering::Relaxed) }
    }

    /// `FORCETRANSITION(e)` — thread 0 only: commands every thread to advance
    /// to epoch `e + 1` and advances thread 0 itself. O(1), non-blocking.
    ///
    /// # Panics
    /// Panics if `e` is not thread 0's current epoch (protocol misuse).
    pub fn force_transition(&self, handle: &mut SamplerHandle<'_>, e: u32) {
        assert_eq!(handle.t, 0, "force_transition must be called by thread 0");
        assert!(
            // xtask: allow(atomic-protocol) — own-thread read: only thread 0
            // stores slot 0, and this function asserts it runs on thread 0.
            handle.epoch == e && self.thread_epochs[0].load(Ordering::Relaxed) == e,
            "force_transition from a stale epoch"
        );
        // Thread 0's writes to its own frame for epoch e are published by
        // this Release store (its epoch counter); the commanded counter tells
        // the other threads to follow.
        self.thread_epochs[0].store(e + 1, Ordering::Release);
        self.commanded.store(e + 1, Ordering::Release);
        handle.epoch = e + 1;
    }

    /// Monitors a transition started with [`Self::force_transition`]:
    /// returns `true` once every thread has reached an epoch `> e`.
    /// O(T) per call, non-blocking.
    pub fn transition_done(&self, e: u32) -> bool {
        // Indexed so the receiver field is `thread_epochs` in the source
        // (the lint's per-field ordering inventory pairs this Acquire with
        // the Release stores above), not an opaque closure binding.
        (0..self.num_threads).all(|t| self.thread_epochs[t].load(Ordering::Acquire) > e)
    }

    /// Observability hook: the epoch thread `t` has published (`Acquire`, so
    /// a caller that acts on the value also sees that thread's frame writes).
    /// Invariant probes and tests use this to watch epoch skew from outside
    /// the protocol; it grants no frame access.
    pub fn thread_epoch(&self, t: usize) -> u32 {
        self.thread_epochs[t].load(Ordering::Acquire)
    }

    /// Observability hook: the epoch all threads are currently commanded to
    /// reach. With [`Self::thread_epoch`] this exposes the two-sided bound
    /// the protocol maintains: `commanded - 1 <= thread_epoch(t) <= commanded`
    /// for every `t` once a transition is in flight.
    pub fn commanded_epoch(&self) -> u32 {
        self.commanded.load(Ordering::Acquire)
    }

    /// `CHECKTRANSITION(e)` — threads `t != 0`: joins a pending transition if
    /// one was initiated. Returns `true` (and advances the handle's epoch)
    /// if the thread transitioned. O(1).
    pub fn check_transition(&self, handle: &mut SamplerHandle<'_>) -> bool {
        debug_assert_ne!(handle.t, 0, "thread 0 uses force_transition");
        let commanded = self.commanded.load(Ordering::Acquire);
        if commanded > handle.epoch {
            // Publish all frame writes of the finished epoch.
            handle.epoch += 1;
            self.thread_epochs[handle.t].store(handle.epoch, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Aggregates (and drains) every thread's state frame of epoch `e` into
    /// `acc`, returning the total number of samples drained. Must only be
    /// called by thread 0 after [`Self::transition_done`]`(e)` returned
    /// `true`; this is asserted.
    pub fn aggregate_epoch(&self, e: u32, acc: &mut [u64]) -> u64 {
        assert!(self.transition_done(e), "aggregating a live epoch");
        assert_eq!(acc.len(), self.n);
        let parity = (e & 1) as usize;
        let mut tau = 0;
        for tf in &self.frames {
            tau += tf[parity].drain_into(acc);
        }
        tau
    }

    /// Sets the global termination flag (Algorithm 2 line 29).
    pub fn signal_termination(&self) {
        self.terminate.store(true, Ordering::Release);
    }

    /// Reads the termination flag (Algorithm 2 line 6).
    pub fn should_terminate(&self) -> bool {
        self.terminate.load(Ordering::Acquire)
    }

    /// Bytes of one state frame (the unit of aggregation traffic); the
    /// cluster simulator uses this for communication-volume accounting.
    pub fn frame_bytes(&self) -> usize {
        self.n * std::mem::size_of::<u32>() + std::mem::size_of::<u64>()
    }
}

/// Per-thread handle: tracks the thread's current epoch and routes samples
/// into the right state frame.
pub struct SamplerHandle<'a> {
    fw: &'a EpochFramework,
    t: usize,
    epoch: u32,
}

impl<'a> SamplerHandle<'a> {
    /// The thread index this handle samples for.
    pub fn thread_index(&self) -> usize {
        self.t
    }

    /// The thread's current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Records one sample into the current epoch's state frame.
    #[inline]
    pub fn record_sample(&self, interior: &[u32]) {
        let parity = (self.epoch & 1) as usize;
        self.fw.frames[self.t][parity].record(interior);
    }

    /// Records one sample into the *next* epoch's state frame. Thread 0 uses
    /// this while a transition/aggregation of the current epoch is still in
    /// flight (Algorithm 2 lines 15, 21, 27).
    #[inline]
    pub fn record_sample_next_epoch(&self, interior: &[u32]) {
        let parity = ((self.epoch + 1) & 1) as usize;
        self.fw.frames[self.t][parity].record(interior);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    #[test]
    fn single_thread_protocol() {
        let fw = EpochFramework::new(4, 1);
        let mut h = fw.handle(0);
        h.record_sample(&[1, 2]);
        h.record_sample(&[2]);
        assert_eq!(h.epoch(), 0);
        fw.force_transition(&mut h, 0);
        assert!(fw.transition_done(0));
        let mut acc = vec![0u64; 4];
        let tau = fw.aggregate_epoch(0, &mut acc);
        assert_eq!(tau, 2);
        assert_eq!(acc, vec![0, 1, 2, 0]);
    }

    #[test]
    fn frames_are_zeroed_after_drain() {
        let fw = EpochFramework::new(3, 1);
        let mut h = fw.handle(0);
        h.record_sample(&[0]);
        fw.force_transition(&mut h, 0);
        let mut acc = vec![0u64; 3];
        assert_eq!(fw.aggregate_epoch(0, &mut acc), 1);
        // Epoch 2 reuses the parity-0 frame; it must start clean.
        h.record_sample(&[1]); // epoch 1 frame
        fw.force_transition(&mut h, 1);
        let mut acc2 = vec![0u64; 3];
        assert_eq!(fw.aggregate_epoch(1, &mut acc2), 1);
        assert_eq!(acc2, vec![0, 1, 0]);
        h.record_sample(&[2]); // epoch 2, parity 0 again
        fw.force_transition(&mut h, 2);
        let mut acc3 = vec![0u64; 3];
        assert_eq!(fw.aggregate_epoch(2, &mut acc3), 1);
        assert_eq!(acc3, vec![0, 0, 1]);
    }

    #[test]
    fn two_thread_transition_requires_participation() {
        let fw = EpochFramework::new(2, 2);
        let mut h0 = fw.handle(0);
        let mut h1 = fw.handle(1);
        fw.force_transition(&mut h0, 0);
        assert!(!fw.transition_done(0), "t=1 has not joined yet");
        assert!(fw.check_transition(&mut h1));
        assert!(fw.transition_done(0));
        assert_eq!(h1.epoch(), 1);
    }

    #[test]
    fn check_transition_without_pending_command_is_noop() {
        let fw = EpochFramework::new(2, 2);
        let mut h1 = fw.handle(1);
        assert!(!fw.check_transition(&mut h1));
        assert_eq!(h1.epoch(), 0);
    }

    #[test]
    fn next_epoch_samples_land_in_next_frame() {
        let fw = EpochFramework::new(2, 1);
        let mut h = fw.handle(0);
        h.record_sample(&[0]);
        // Overlapped samples during transition go to the next epoch.
        fw.force_transition(&mut h, 0);
        h.record_sample(&[1]); // now IN epoch 1 after force
        let mut acc = vec![0u64; 2];
        assert_eq!(fw.aggregate_epoch(0, &mut acc), 1);
        assert_eq!(acc, vec![1, 0]);
        fw.force_transition(&mut h, 1);
        let mut acc = vec![0u64; 2];
        assert_eq!(fw.aggregate_epoch(1, &mut acc), 1);
        assert_eq!(acc, vec![0, 1]);
    }

    #[test]
    fn record_sample_next_epoch_is_visible_one_epoch_later() {
        let fw = EpochFramework::new(2, 1);
        let mut h = fw.handle(0);
        h.record_sample_next_epoch(&[1]);
        fw.force_transition(&mut h, 0);
        let mut acc = vec![0u64; 2];
        assert_eq!(fw.aggregate_epoch(0, &mut acc), 0, "sample belongs to epoch 1");
        fw.force_transition(&mut h, 1);
        let mut acc = vec![0u64; 2];
        assert_eq!(fw.aggregate_epoch(1, &mut acc), 1);
        assert_eq!(acc, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "aggregating a live epoch")]
    fn aggregate_before_transition_done_panics() {
        let fw = EpochFramework::new(2, 2);
        let mut h0 = fw.handle(0);
        fw.force_transition(&mut h0, 0);
        let mut acc = vec![0u64; 2];
        fw.aggregate_epoch(0, &mut acc); // t=1 never joined
    }

    #[test]
    #[should_panic(expected = "stale epoch")]
    fn force_transition_from_stale_epoch_panics() {
        let fw = EpochFramework::new(2, 1);
        let mut h = fw.handle(0);
        fw.force_transition(&mut h, 0);
        // Manually rebuild a stale handle.
        let mut stale = SamplerHandle { fw: &fw, t: 0, epoch: 0 };
        fw.force_transition(&mut stale, 0);
        let _ = &mut h;
    }

    #[test]
    fn termination_flag_roundtrip() {
        let fw = EpochFramework::new(1, 1);
        assert!(!fw.should_terminate());
        fw.signal_termination();
        assert!(fw.should_terminate());
    }

    #[test]
    fn frame_bytes_accounting() {
        let fw = EpochFramework::new(1000, 2);
        assert_eq!(fw.frame_bytes(), 1000 * 4 + 8);
    }

    /// The conservation stress test: with T threads sampling concurrently
    /// over many epochs, no sample may be lost or double-counted.
    #[test]
    fn concurrent_conservation() {
        const N: usize = 64;
        const THREADS: usize = 4;
        const SAMPLES_PER_THREAD: usize = 5_000;
        let fw = EpochFramework::new(N, THREADS);
        let produced: Vec<StdAtomicU64> = (0..N).map(|_| StdAtomicU64::new(0)).collect();

        let mut total_acc = vec![0u64; N];
        let mut total_tau = 0u64;
        crossbeam::scope(|s| {
            for t in 1..THREADS {
                let fw = &fw;
                let produced = &produced;
                s.spawn(move |_| {
                    let mut h = fw.handle(t);
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for _ in 0..SAMPLES_PER_THREAD {
                        let a = rng.gen_range(0..N as u32);
                        let b = rng.gen_range(0..N as u32);
                        h.record_sample(&[a, b]);
                        produced[a as usize].fetch_add(1, Ordering::Relaxed);
                        produced[b as usize].fetch_add(1, Ordering::Relaxed);
                        fw.check_transition(&mut h);
                    }
                    // Drain any pending transitions until termination so the
                    // aggregator never stalls.
                    while !fw.should_terminate() {
                        fw.check_transition(&mut h);
                        std::hint::spin_loop();
                    }
                });
            }
            // Thread 0: sample a little, run the epoch machinery.
            let mut h = fw.handle(0);
            let mut rng = StdRng::seed_from_u64(0);
            let mut my_samples = 0usize;
            let mut epoch = 0u32;
            loop {
                for _ in 0..100 {
                    if my_samples < SAMPLES_PER_THREAD {
                        let a = rng.gen_range(0..N as u32);
                        h.record_sample(&[a]);
                        produced[a as usize].fetch_add(1, Ordering::Relaxed);
                        my_samples += 1;
                    }
                }
                fw.force_transition(&mut h, epoch);
                while !fw.transition_done(epoch) {
                    if my_samples < SAMPLES_PER_THREAD {
                        let a = rng.gen_range(0..N as u32);
                        h.record_sample(&[a]); // lands in epoch e+1: h already advanced
                        produced[a as usize].fetch_add(1, Ordering::Relaxed);
                        my_samples += 1;
                    }
                    std::hint::spin_loop();
                }
                total_tau += fw.aggregate_epoch(epoch, &mut total_acc);
                epoch += 1;
                // Stop once every producer thread has taken all its samples:
                // drain two more epochs to flush stragglers.
                if total_tau >= (THREADS * SAMPLES_PER_THREAD) as u64 {
                    fw.signal_termination();
                    break;
                }
            }
        })
        .unwrap();

        // All threads have joined (the scope ended), so both frame parities
        // can be drained directly; they should already be empty because the
        // aggregator only stopped once every sample was accounted for.
        for tf in &fw.frames {
            for frame in tf.iter() {
                total_tau += frame.drain_into(&mut total_acc);
            }
        }

        assert_eq!(total_tau, (THREADS * SAMPLES_PER_THREAD) as u64);
        for v in 0..N {
            assert_eq!(
                total_acc[v],
                produced[v].load(Ordering::Relaxed),
                "count mismatch at vertex {v}"
            );
        }
    }
}
