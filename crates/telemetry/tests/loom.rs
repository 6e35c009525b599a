//! Model-checked verification of the wait-free recorder's single-writer
//! publication protocol (ISSUE: "a loom test proving the single-writer
//! buffer never loses or tears an event").
//!
//! Run with `cargo test -p kadabra-telemetry --features loom` (wired into
//! `cargo xtask loom`). Each scenario runs under `loom::model`, which
//! explores thread interleavings *and* every stale value a `Relaxed` load
//! may legally return:
//!
//! * [`concurrent_reader_never_sees_torn_events`] — a reader snapshotting
//!   concurrently with the writer only ever observes fully written events
//!   (every field of every slot below the `Release`-published cursor is the
//!   writer's value, never a stale zero), and no event is lost.
//! * [`overflow_drops_are_counted_and_harmless`] — overflowing the buffer
//!   neither blocks the writer nor corrupts published slots; drops are
//!   counted exactly.
//! * [`relaxed_publication_is_caught`] — **negative control**: the same
//!   publication pattern with the cursor's `Release` store downgraded to
//!   `Relaxed` is rejected by the checker, proving the model can actually
//!   see the stale reads the real protocol rules out.

#![cfg(feature = "loom")]

use kadabra_telemetry::{Event, EventKind, MarkId, Telemetry};
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;

fn model(f: impl Fn() + Send + Sync + 'static) {
    let mut b = loom::model::Builder::new();
    b.preemption_bound = Some(2);
    b.check(f);
}

/// Every published event must carry the writer's values in *all* fields:
/// epoch `i`, logical `i`, payload `i`, wall 0 (deterministic clock). A
/// missing `Release`/`Acquire` pair would let the reader see a slot with
/// some fields still zero.
fn assert_intact(events: &[Event]) {
    for (k, e) in events.iter().enumerate() {
        let i = (k + 1) as u64;
        assert_eq!(e.kind, EventKind::Mark, "meta word torn or stale");
        assert_eq!(e.id, MarkId::CollectiveStart as u8, "id torn or stale");
        assert_eq!(u64::from(e.epoch), i, "epoch field torn or stale");
        assert_eq!(e.logical, i, "logical field torn or stale");
        assert_eq!(e.value, i, "value field torn or stale");
        assert_eq!(e.wall_ns, 0, "deterministic wall reading must be 0");
    }
}

#[test]
fn concurrent_reader_never_sees_torn_events() {
    model(|| {
        let t = Arc::new(Telemetry::deterministic(2));
        let writer = {
            let t = Arc::clone(&t);
            let w = t.writer(0, 0);
            loom::thread::spawn(move || {
                for i in 1..=2u32 {
                    w.set_epoch(i);
                    w.tick(1);
                    w.mark(MarkId::CollectiveStart, u64::from(i));
                }
            })
        };
        // Concurrent reader: every intermediate snapshot must already be
        // intact — this is the tearing check, not just the final state.
        loop {
            let events = t.events();
            assert_intact(&events);
            if events.len() == 2 {
                break;
            }
            loom::thread::yield_now();
        }
        writer.join().expect("writer");
        let events = t.events();
        assert_eq!(events.len(), 2, "published events were lost");
        assert_intact(&events);
        assert_eq!(t.dropped_events(), 0);
    });
}

#[test]
fn overflow_drops_are_counted_and_harmless() {
    model(|| {
        let t = Arc::new(Telemetry::deterministic(1));
        let writer = {
            let t = Arc::clone(&t);
            let w = t.writer(0, 0);
            loom::thread::spawn(move || {
                for i in 1..=3u32 {
                    w.set_epoch(i);
                    w.tick(1);
                    // Appends 2 and 3 overflow; the writer must not block.
                    w.mark(MarkId::CollectiveStart, u64::from(i));
                }
            })
        };
        // Spin until the reader has *observed* the final state (the loom
        // shim does not model the happens-before edge of thread join, so
        // post-join loads could legally still be stale); once a value is
        // observed the reader's view is monotonic.
        loop {
            let events = t.events();
            assert_intact(&events);
            assert!(events.len() <= 1, "capacity-1 buffer published extra events");
            if events.len() == 1 && t.dropped_events() == 2 {
                break;
            }
            loom::thread::yield_now();
        }
        writer.join().expect("writer");
        let events = t.events();
        assert_eq!(events.len(), 1, "exactly the first event fits");
        assert_intact(&events);
        assert_eq!(t.dropped_events(), 2, "both overflowing events counted");
    });
}

/// Negative control: the recorder's publication edge is the `Release` store
/// of the cursor. Downgrade it to `Relaxed` in a minimal replica and the
/// checker must find a schedule where the reader sees a stale (zero) field
/// below the cursor — i.e. a torn event.
#[test]
fn relaxed_publication_is_caught() {
    let failed = std::panic::catch_unwind(|| {
        model(|| {
            let published = Arc::new(AtomicUsize::new(0));
            let field = Arc::new(AtomicU64::new(0));
            let writer = {
                let published = Arc::clone(&published);
                let field = Arc::clone(&field);
                loom::thread::spawn(move || {
                    field.store(7, Ordering::Relaxed);
                    // BUG: must be Ordering::Release to publish the slot.
                    published.store(1, Ordering::Relaxed);
                })
            };
            while published.load(Ordering::Acquire) == 0 {
                loom::thread::yield_now();
            }
            assert_eq!(field.load(Ordering::Relaxed), 7, "torn event observed");
            writer.join().expect("writer");
        });
    });
    assert!(
        failed.is_err(),
        "the model checker failed to catch a Release->Relaxed downgrade; \
         the positive scenarios in this file are not trustworthy"
    );
}
