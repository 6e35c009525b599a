//! The wait-free, per-thread, single-writer event recorder.
//!
//! # Protocol
//!
//! Each `(rank, thread)` owns one [`ThreadRecorder`]: a fixed-capacity slot
//! array plus a `published` cursor. The **single writer** appends by filling
//! the next slot's fields with `Relaxed` stores and then advancing
//! `published` with a `Release` store; a reader that loads `published` with
//! `Acquire` therefore observes every field of every slot below the cursor
//! (`Release`/`Acquire` pairing on `published` is the only synchronization).
//! Slots below the cursor are never rewritten, so a reader can never see a
//! torn or half-initialized event; slots at or above it are simply not
//! looked at. `tests/loom.rs` model-checks exactly this argument, including
//! a negative control with the `Release` downgraded to `Relaxed`.
//!
//! Every operation on the hot path is a handful of uncontended atomic
//! loads/stores — no locks, no CAS loops, no allocation — so recording never
//! blocks a sampling thread and cannot perturb the epoch framework's
//! wait-free guarantees. When the buffer is full, events are *dropped and
//! counted* (`dropped_events`), never waited for.
//!
//! Besides the event buffer, the recorder keeps running totals (per-span
//! nanoseconds/ticks/counts and counters) so phase statistics are available
//! even in unbuffered (`capacity == 0`) stats-only mode.

use crate::clock::Clock;
use crate::event::{CounterId, Event, EventKind, MarkId, SpanId, N_COUNTERS, N_SPANS};
use crate::sync::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One event slot: the four words of a packed [`Event`].
#[derive(Default)]
struct Slot {
    meta: AtomicU64,
    wall: AtomicU64,
    logical: AtomicU64,
    value: AtomicU64,
}

/// Per-`(rank, thread)` recorder state. Writers go through [`EventWriter`];
/// readers snapshot with [`ThreadRecorder::snapshot`] / the total accessors.
pub struct ThreadRecorder {
    rank: u32,
    thread: u32,
    slots: Box<[Slot]>,
    /// Number of fully written slots; the writer's `Release` store here is
    /// what publishes slot contents to readers.
    published: AtomicUsize,
    /// Events discarded because the buffer was full.
    dropped: AtomicU64,
    /// The writer's logical clock (deterministic ticks).
    logical: AtomicU64,
    /// The writer's current epoch, stamped into every event.
    epoch: AtomicU32,
    /// Running per-span wall nanoseconds.
    span_ns: Box<[AtomicU64]>,
    /// Running per-span logical-tick durations.
    span_ticks: Box<[AtomicU64]>,
    /// Running per-span completion counts.
    span_count: Box<[AtomicU64]>,
    /// Running counter totals.
    counters: Box<[AtomicU64]>,
}

fn atomic_array(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl ThreadRecorder {
    pub(crate) fn new(rank: u32, thread: u32, capacity: usize) -> Self {
        ThreadRecorder {
            rank,
            thread,
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            published: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            logical: AtomicU64::new(0),
            epoch: AtomicU32::new(0),
            span_ns: atomic_array(N_SPANS),
            span_ticks: atomic_array(N_SPANS),
            span_count: atomic_array(N_SPANS),
            counters: atomic_array(N_COUNTERS),
        }
    }

    /// Rank this recorder belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Thread within the rank.
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// Single-writer append; wait-free (drops when full).
    fn append(&self, kind: EventKind, id: u8, wall: u64, logical: u64, value: u64) {
        // Relaxed: only this thread writes the cursor; the Release store
        // below is the publication point. Single-writer cursor read-back on
        // the writing thread; loom-checked in the telemetry recorder suite.
        let i = self.published.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        let slot = &self.slots[i];
        slot.meta.store(Event::pack_meta(kind, id, epoch), Ordering::Relaxed);
        slot.wall.store(wall, Ordering::Relaxed);
        slot.logical.store(logical, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        // Release publishes the four Relaxed field stores above to any
        // reader that Acquire-loads the cursor.
        self.published.store(i + 1, Ordering::Release);
    }

    /// Reader-side snapshot of all published events, in append order.
    pub fn snapshot(&self) -> Vec<Event> {
        // Acquire pairs with the writer's Release cursor store: every slot
        // below `n` is fully written and will never change again.
        let n = self.published.load(Ordering::Acquire);
        (0..n)
            .map(|i| {
                let slot = &self.slots[i];
                let (kind, id, epoch) = Event::unpack_meta(slot.meta.load(Ordering::Relaxed));
                Event {
                    rank: self.rank,
                    thread: self.thread,
                    kind,
                    id,
                    epoch,
                    wall_ns: slot.wall.load(Ordering::Relaxed),
                    logical: slot.logical.load(Ordering::Relaxed),
                    value: slot.value.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Events dropped because the buffer was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Running wall nanoseconds spent in `span`.
    pub fn span_ns(&self, span: SpanId) -> u64 {
        self.span_ns[span.index()].load(Ordering::Relaxed)
    }

    /// Running logical ticks spent in `span`.
    pub fn span_ticks(&self, span: SpanId) -> u64 {
        self.span_ticks[span.index()].load(Ordering::Relaxed)
    }

    /// Completed spans of this identity.
    pub fn span_count(&self, span: SpanId) -> u64 {
        self.span_count[span.index()].load(Ordering::Relaxed)
    }

    /// Running counter total.
    pub fn counter(&self, c: CounterId) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }
}

/// An in-progress span; close it with [`EventWriter::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span records nothing until EventWriter::end is called"]
pub struct OpenSpan {
    id: SpanId,
    start_wall: u64,
    start_logical: u64,
}

/// The writing half of a [`ThreadRecorder`]: a cheap, cloneable handle.
///
/// **Single-writer discipline:** all clones of one writer must stay on the
/// thread that obtained it from [`crate::Telemetry::writer`] — clones exist
/// so the owning thread can hand one to its mpisim communicator while
/// keeping one for itself. The recorder itself is wait-free either way; the
/// discipline is what makes the append cursor race-free.
#[derive(Clone)]
pub struct EventWriter {
    rec: Arc<ThreadRecorder>,
    clock: Arc<Clock>,
    /// Whether events are buffered (false = totals only).
    buffered: bool,
}

impl EventWriter {
    pub(crate) fn new(rec: Arc<ThreadRecorder>, clock: Arc<Clock>) -> Self {
        let buffered = !rec.slots.is_empty();
        EventWriter { rec, clock, buffered }
    }

    /// The underlying recorder (reader-side accessors).
    pub fn recorder(&self) -> &ThreadRecorder {
        &self.rec
    }

    /// Sets the epoch stamped into subsequent events.
    pub fn set_epoch(&self, epoch: u32) {
        self.rec.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Advances the logical clock by `n` ticks.
    pub fn tick(&self, n: u64) {
        // Relaxed load/store: single-writer counter.
        let l = self.rec.logical.load(Ordering::Relaxed);
        self.rec.logical.store(l + n, Ordering::Relaxed);
    }

    /// Current logical-clock reading.
    pub fn logical(&self) -> u64 {
        self.rec.logical.load(Ordering::Relaxed)
    }

    /// Opens a span of identity `id`.
    pub fn begin(&self, id: SpanId) -> OpenSpan {
        OpenSpan { id, start_wall: self.clock.now_ns(), start_logical: self.logical() }
    }

    /// Closes `span`, recording one span event and updating the totals.
    ///
    /// The recorded duration (`Event::value`) is wall nanoseconds, or
    /// logical ticks when the run clock is deterministic (chaos runs embed
    /// no timing entropy — DESIGN.md §9).
    pub fn end(&self, span: OpenSpan) {
        let i = span.id.index();
        let wall_dur = self.clock.now_ns().saturating_sub(span.start_wall);
        let tick_dur = self.logical().saturating_sub(span.start_logical);
        self.rec.span_ns[i].fetch_add(wall_dur, Ordering::Relaxed);
        self.rec.span_ticks[i].fetch_add(tick_dur, Ordering::Relaxed);
        self.rec.span_count[i].fetch_add(1, Ordering::Relaxed);
        if self.buffered {
            let value = if self.clock.is_deterministic() { tick_dur } else { wall_dur };
            self.rec.append(
                EventKind::Span,
                span.id as u8,
                span.start_wall,
                span.start_logical,
                value,
            );
        }
    }

    /// Adds `delta` to counter `c` (totals only; no buffered event).
    pub fn count(&self, c: CounterId, delta: u64) {
        self.rec.counters[c.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds `delta` to counter `c` and records a counter event (for
    /// trace-viewer counter tracks).
    pub fn count_event(&self, c: CounterId, delta: u64) {
        self.count(c, delta);
        if self.buffered {
            self.rec.append(EventKind::Count, c as u8, self.clock.now_ns(), self.logical(), delta);
        }
    }

    /// Records an instantaneous marker.
    pub fn mark(&self, m: MarkId, value: u64) {
        if self.buffered {
            self.rec.append(EventKind::Mark, m as u8, self.clock.now_ns(), self.logical(), value);
        }
    }

    /// Whether events are buffered (false = stats-only mode).
    pub fn is_buffered(&self) -> bool {
        self.buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer(capacity: usize) -> EventWriter {
        EventWriter::new(Arc::new(ThreadRecorder::new(1, 2, capacity)), Arc::new(Clock::wall()))
    }

    #[test]
    fn spans_accumulate_totals_and_events() {
        let w = writer(8);
        w.set_epoch(3);
        let s = w.begin(SpanId::Reduce);
        w.tick(5);
        w.end(s);
        assert_eq!(w.recorder().span_count(SpanId::Reduce), 1);
        assert_eq!(w.recorder().span_ticks(SpanId::Reduce), 5);
        let ev = w.recorder().snapshot();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, EventKind::Span);
        assert_eq!(ev[0].id, SpanId::Reduce as u8);
        assert_eq!(ev[0].epoch, 3);
        assert_eq!(ev[0].rank, 1);
        assert_eq!(ev[0].thread, 2);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let w = writer(2);
        for _ in 0..5 {
            w.mark(MarkId::CollectiveStart, 7);
        }
        assert_eq!(w.recorder().snapshot().len(), 2);
        assert_eq!(w.recorder().dropped_events(), 3);
    }

    #[test]
    fn unbuffered_mode_keeps_totals_only() {
        let w = writer(0);
        assert!(!w.is_buffered());
        let s = w.begin(SpanId::Check);
        w.end(s);
        w.count_event(CounterId::Samples, 10);
        w.mark(MarkId::CollectiveStart, 1);
        assert!(w.recorder().snapshot().is_empty());
        assert_eq!(w.recorder().dropped_events(), 0);
        assert_eq!(w.recorder().span_count(SpanId::Check), 1);
        assert_eq!(w.recorder().counter(CounterId::Samples), 10);
    }

    #[test]
    fn deterministic_clock_records_tick_durations() {
        let w = EventWriter::new(
            Arc::new(ThreadRecorder::new(0, 0, 4)),
            Arc::new(Clock::deterministic()),
        );
        let s = w.begin(SpanId::IreduceWait);
        w.tick(9);
        w.end(s);
        let ev = w.recorder().snapshot();
        assert_eq!(ev[0].value, 9);
        assert_eq!(ev[0].wall_ns, 0);
    }
}
