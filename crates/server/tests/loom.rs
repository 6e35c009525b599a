//! Model-checked verification of the estimate cache's publish/read protocol
//! (ISSUE 7: "a loom model of the cache's publish/read protocol").
//!
//! Run with `cargo test -p kadabra-server --features loom` (wired into
//! `cargo xtask loom`). Each scenario runs under `loom::model`, which
//! explores thread interleavings *and* every stale value a `Relaxed` load
//! may legally return:
//!
//! * [`frontier_reads_are_never_torn`] — a reader racing the seqlock writer
//!   only ever returns one publication's complete contents (the invariant
//!   links every word of a publication, so any mix is detected).
//! * [`vertex_reads_agree_with_their_tau`] — the scalar read path holds the
//!   same snapshot consistency as the bulk one.
//! * [`frozen_stages_are_write_once`] — once a stage reads ready, its
//!   contents are complete and every later read is bit-identical.
//! * [`stage_reads_never_blend_generations`] — a stage read racing a
//!   generation change returns one generation's frozen contents or `false`.
//! * [`frontier_stays_readable_across_a_generation_change`] — after the
//!   first publication, a reader racing publish → generation change →
//!   publish never finds the frontier missing and never sees a slot whose
//!   words (generation tag included) come from two publications.
//! * [`seqlock_without_recheck_is_caught`] — **negative control**: a
//!   minimal seqlock replica with the final `seq` re-check deleted is
//!   rejected by the checker, proving the model can see the torn reads the
//!   real protocol rules out.

#![cfg(feature = "loom")]

use kadabra_server::cache::{EstimateCache, FrontierSnapshot, StageSnapshot};
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;

fn model(f: impl Fn() + Send + Sync + 'static) {
    let mut b = loom::model::Builder::new();
    b.preemption_bound = Some(2);
    b.check(f);
}

/// Publications are invariant-linked: publication `i` writes counts
/// `[i, 10·i]`, τ = `11·i`, round = `i`. Any torn mix violates the sum.
fn assert_consistent(counts: &[u64], tau: u64, round: u64) {
    assert_eq!(counts[0], round, "counts[0] torn");
    assert_eq!(counts[1], 10 * round, "counts[1] torn");
    assert_eq!(tau, 11 * round, "tau from a different publication than counts");
}

#[test]
fn frontier_reads_are_never_torn() {
    model(|| {
        let c = Arc::new(EstimateCache::new(2, &[0.5]));
        let writer = {
            let c = Arc::clone(&c);
            loom::thread::spawn(move || {
                for i in 1..=2u64 {
                    c.publish_frontier(&[i, 10 * i], 11 * i, 0.6, i);
                }
            })
        };
        let mut snap = FrontierSnapshot::new(2);
        loop {
            if c.read_frontier_into(&mut snap) {
                assert_consistent(&snap.counts, snap.tau, snap.round);
                if snap.round == 2 {
                    break;
                }
            }
            loom::thread::yield_now();
        }
        writer.join().expect("writer");
        assert!(c.read_frontier_into(&mut snap));
        assert_consistent(&snap.counts, snap.tau, snap.round);
        assert_eq!(snap.round, 2, "the final publication must win");
    });
}

#[test]
fn vertex_reads_agree_with_their_tau() {
    model(|| {
        let c = Arc::new(EstimateCache::new(2, &[0.5]));
        let writer = {
            let c = Arc::clone(&c);
            loom::thread::spawn(move || {
                for i in 1..=2u64 {
                    c.publish_frontier(&[i, 10 * i], 11 * i, 0.6, i);
                }
            })
        };
        loop {
            if let Some(r) = c.read_vertex(1) {
                assert_eq!(r.count, 10 * r.round, "count from a different publication");
                assert_eq!(r.tau, 11 * r.round, "tau from a different publication");
                if r.round == 2 {
                    break;
                }
            }
            loom::thread::yield_now();
        }
        writer.join().expect("writer");
    });
}

#[test]
fn frozen_stages_are_write_once() {
    model(|| {
        // Schedule [0.5]: the first publication (ε = 0.4) freezes the stage;
        // the second (ε = 0.2) must not move it.
        let c = Arc::new(EstimateCache::new(2, &[0.5]));
        let writer = {
            let c = Arc::clone(&c);
            loom::thread::spawn(move || {
                c.publish_frontier(&[1, 10], 11, 0.4, 1);
                c.publish_frontier(&[2, 20], 22, 0.2, 2);
            })
        };
        let mut st = StageSnapshot::new(2);
        loop {
            if c.read_stage_into(0, &mut st) {
                // Ready implies complete: the freezing publication's words.
                assert_consistent(&st.counts, st.tau, st.round);
                assert_eq!(st.round, 1, "a frozen stage moved");
                break;
            }
            loom::thread::yield_now();
        }
        writer.join().expect("writer");
        let first = st.clone();
        assert!(c.read_stage_into(0, &mut st));
        assert_eq!(st.counts, first.counts, "stage re-read differs");
        assert_eq!((st.tau, st.round), (first.tau, first.round));
    });
}

/// A reader racing a generation change must return either one
/// generation's complete frozen contents or `false` — never a blend of the
/// pre- and post-update graphs (the mixed-generation hazard of streaming
/// updates, DESIGN.md §14). Publications are invariant-linked as above, so
/// any cross-generation mix trips `assert_consistent`.
#[test]
fn stage_reads_never_blend_generations() {
    model(|| {
        let c = Arc::new(EstimateCache::new(2, &[0.5]));
        c.publish_frontier(&[1, 10], 11, 0.4, 1); // freezes under generation 0
        let writer = {
            let c = Arc::clone(&c);
            loom::thread::spawn(move || {
                // Re-freezes under generation 1.
                c.advance_generation(Some((&[2, 20], 22, 0.4, 2)));
            })
        };
        let mut st = StageSnapshot::new(2);
        if c.read_stage_into(0, &mut st) {
            assert_consistent(&st.counts, st.tau, st.round);
            assert!(st.round == 1 || st.round == 2);
        }
        writer.join().expect("writer");
        assert!(c.read_stage_into(0, &mut st), "post-update freeze must be readable");
        assert_consistent(&st.counts, st.tau, st.round);
        assert_eq!(st.round, 2, "after the join only the new generation may answer");
    });
}

/// The property `dynamic_chaos` samples with real threads: once anything has
/// been published, a frontier read succeeds at every instant of publish →
/// generation change → publish, and what it returns is one publication's
/// words. Round `i` is published under generation `i / 2` here, so the
/// generation tag joins the invariant.
#[test]
fn frontier_stays_readable_across_a_generation_change() {
    model(|| {
        let c = Arc::new(EstimateCache::new(2, &[0.5]));
        c.publish_frontier(&[1, 10], 11, 0.6, 1);
        let writer = {
            let c = Arc::clone(&c);
            loom::thread::spawn(move || {
                c.advance_generation(Some((&[2, 20], 22, 0.6, 2)));
                c.publish_frontier(&[3, 30], 33, 0.6, 3);
            })
        };
        let mut snap = FrontierSnapshot::new(2);
        // One read of each kind; the checker places each at every point of
        // the writer's sequence.
        assert!(c.read_frontier_into(&mut snap), "frontier missing mid-change");
        assert_consistent(&snap.counts, snap.tau, snap.round);
        assert_eq!(snap.generation, snap.round / 2, "generation tag torn");
        let r = c.read_vertex(1).expect("vertex read found the frontier missing");
        assert_eq!((r.count, r.tau), (10 * r.round, 11 * r.round), "vertex read torn");
        assert_eq!(r.generation, r.round / 2, "generation tag torn");
        writer.join().expect("writer");
        assert_eq!(c.read_vertex(0).map(|r| (r.round, r.generation)), Some((3, 1)));
    });
}

/// Negative control: the seqlock's safety hinges on re-checking `seq` after
/// the data loads. Delete the re-check in a minimal replica and the checker
/// must find a schedule where a reader returns a half-written pair.
#[test]
fn seqlock_without_recheck_is_caught() {
    let failed = std::panic::catch_unwind(|| {
        model(|| {
            let seq = Arc::new(AtomicUsize::new(0));
            let a = Arc::new(AtomicU64::new(0));
            let b = Arc::new(AtomicU64::new(0));
            let writer = {
                let (seq, a, b) = (Arc::clone(&seq), Arc::clone(&a), Arc::clone(&b));
                loom::thread::spawn(move || {
                    seq.store(1, Ordering::Release);
                    a.store(7, Ordering::Release);
                    b.store(7, Ordering::Release);
                    seq.store(2, Ordering::Release);
                })
            };
            loop {
                let s1 = seq.load(Ordering::Acquire);
                if s1 & 1 == 1 {
                    loom::thread::yield_now();
                    continue;
                }
                let x = a.load(Ordering::Acquire);
                let y = b.load(Ordering::Acquire);
                // BUG: no `seq` re-check before trusting (x, y).
                assert_eq!(x, y, "torn pair observed");
                if s1 == 2 || x == 7 {
                    break;
                }
                loom::thread::yield_now();
            }
            writer.join().expect("writer");
        });
    });
    assert!(
        failed.is_err(),
        "the model checker failed to catch a deleted seqlock re-check; \
         the positive scenarios in this file are not trustworthy"
    );
}
