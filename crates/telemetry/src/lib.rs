//! Wait-free telemetry for the kadabra workspace: per-rank/per-thread
//! tracing, phase metrics, Chrome-trace export, and machine-readable
//! benchmark artifacts (DESIGN.md §9).
//!
//! # Architecture
//!
//! A [`Telemetry`] registry hands each `(rank, thread)` an [`EventWriter`]
//! over its own single-writer, wait-free append buffer
//! ([`recorder::ThreadRecorder`]): recording a span, marker, or counter is a
//! few uncontended atomic stores, never a lock or a CAS loop, so
//! instrumentation cannot perturb the epoch framework's wait-free sampling
//! guarantees. The buffers live behind the crate's `sync.rs` atomic
//! indirection, so `cargo xtask loom` model-checks the publication protocol
//! (`tests/loom.rs`).
//!
//! Every event carries **both clocks** ([`clock::Clock`]): wall nanoseconds
//! for real profiles, and the producer's deterministic logical clock so
//! chaos runs under a `FaultPlan` stay bit-reproducible — in deterministic
//! mode wall readings are 0 and sinks use the logical base.
//!
//! Three sinks consume the one [`event::Event`] record type:
//!
//! * [`chrome::write_trace`] — Chrome trace-event JSON (`kadabra --trace`),
//!   loadable in Perfetto;
//! * [`summary::Summary`] — the phase-breakdown table (Fig. 2b / Table II
//!   shapes) and the `reduction_overlap` figure;
//! * [`bench::BenchArtifact`] — `BENCH_<name>.json` artifacts with a stable,
//!   validated schema ([`bench::validate_json`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod chrome;
pub mod clock;
pub mod event;
pub mod json;
pub mod recorder;
pub mod summary;
mod sync;

pub use bench::{validate_json, BenchArtifact, BenchRun, BENCH_SCHEMA};
pub use chrome::{write_trace, TimeBase};
pub use clock::{Clock, Stopwatch};
pub use event::{CounterId, Event, EventKind, MarkId, SpanId};
pub use recorder::{EventWriter, OpenSpan, ThreadRecorder};
pub use summary::Summary;

use parking_lot::Mutex;
use std::sync::Arc;

/// Default per-thread event-buffer capacity in tracing mode (events are 32
/// bytes, so this is 2 MiB per thread).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The run-scoped telemetry registry.
///
/// Construct one per run ([`Telemetry::stats_only`] / [`Telemetry::tracing`]
/// / [`Telemetry::deterministic`]), hand each `(rank, thread)` a writer with
/// [`Telemetry::writer`], and read the results back with
/// [`Telemetry::summary`] / [`Telemetry::events`] once the run is done.
pub struct Telemetry {
    clock: Arc<Clock>,
    capacity: usize,
    recorders: Mutex<Vec<Arc<ThreadRecorder>>>,
}

impl Telemetry {
    fn with(clock: Clock, capacity: usize) -> Self {
        Telemetry { clock: Arc::new(clock), capacity, recorders: Mutex::new(Vec::new()) }
    }

    /// Totals-only mode: no event buffering (capacity 0), wall clock on.
    /// This is what the plain driver entry points use — phase statistics
    /// come out of telemetry with zero buffer memory.
    pub fn stats_only() -> Self {
        Self::with(Clock::wall(), 0)
    }

    /// Full tracing with the default per-thread buffer capacity.
    pub fn tracing() -> Self {
        Self::with(Clock::wall(), DEFAULT_TRACE_CAPACITY)
    }

    /// Full tracing with an explicit per-thread buffer capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with(Clock::wall(), capacity)
    }

    /// Deterministic mode for chaos runs: wall readings are 0, events carry
    /// only the logical clock, artifacts are a pure function of
    /// `(plan, seed)`.
    pub fn deterministic(capacity: usize) -> Self {
        Self::with(Clock::deterministic(), capacity)
    }

    /// Registers and returns the writer for one `(rank, thread)`.
    ///
    /// Must be called (or the returned writer used) only from that thread —
    /// the recorder is single-writer by contract (clones of the writer are
    /// for handing to same-thread collaborators like an mpisim
    /// communicator).
    pub fn writer(&self, rank: u32, thread: u32) -> EventWriter {
        let rec = Arc::new(ThreadRecorder::new(rank, thread, self.capacity));
        self.recorders.lock().push(Arc::clone(&rec));
        EventWriter::new(rec, Arc::clone(&self.clock))
    }

    /// Whether wall readings are suppressed.
    pub fn is_deterministic(&self) -> bool {
        self.clock.is_deterministic()
    }

    /// The trace time base matching this run's clock mode.
    pub fn time_base(&self) -> TimeBase {
        if self.is_deterministic() {
            TimeBase::Logical
        } else {
            TimeBase::Wall
        }
    }

    /// All published events, ordered by `(rank, thread)` and then append
    /// order — deterministic for a deterministic run.
    pub fn events(&self) -> Vec<Event> {
        let mut recs: Vec<Arc<ThreadRecorder>> =
            self.recorders.lock().iter().map(Arc::clone).collect();
        recs.sort_by_key(|r| (r.rank(), r.thread()));
        recs.iter().flat_map(|r| r.snapshot()).collect()
    }

    /// Aggregated phase metrics over every registered recorder.
    pub fn summary(&self) -> Summary {
        let recs = self.recorders.lock();
        Summary::from_recorders(recs.iter().map(Arc::as_ref))
    }

    /// Events dropped across all recorders (buffers full).
    pub fn dropped_events(&self) -> u64 {
        self.recorders.lock().iter().map(|r| r.dropped_events()).sum()
    }
}

/// A plain event log for producers that are already single-threaded and
/// virtual-timed — the cluster DES. Spans carry virtual nanoseconds on the
/// logical clock (wall is 0), satisfying the one-schema rule: the same
/// sinks consume DES traces and real traces.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed span of `dur_ns` virtual nanoseconds starting at
    /// virtual time `start_ns`.
    pub fn span(
        &mut self,
        rank: u32,
        thread: u32,
        id: SpanId,
        epoch: u32,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.events.push(Event {
            rank,
            thread,
            kind: EventKind::Span,
            id: id as u8,
            epoch,
            wall_ns: 0,
            logical: start_ns,
            value: dur_ns,
        });
    }

    /// Records an instantaneous marker at virtual time `at_ns`.
    pub fn mark(&mut self, rank: u32, thread: u32, id: MarkId, epoch: u32, at_ns: u64, value: u64) {
        self.events.push(Event {
            rank,
            thread,
            kind: EventKind::Mark,
            id: id as u8,
            epoch,
            wall_ns: 0,
            logical: at_ns,
            value,
        });
    }

    /// Records a counter delta at virtual time `at_ns`.
    pub fn count(
        &mut self,
        rank: u32,
        thread: u32,
        id: CounterId,
        epoch: u32,
        at_ns: u64,
        delta: u64,
    ) {
        self.events.push(Event {
            rank,
            thread,
            kind: EventKind::Count,
            id: id as u8,
            epoch,
            wall_ns: 0,
            logical: at_ns,
            value: delta,
        });
    }

    /// The recorded events, in insertion (virtual-time) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Aggregates the log into phase metrics (virtual nanoseconds).
    pub fn summary(&self) -> Summary {
        Summary::from_events(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_collects_across_writers() {
        let t = Telemetry::with_capacity(16);
        let w0 = t.writer(0, 0);
        let w1 = t.writer(1, 0);
        let s = w0.begin(SpanId::Reduce);
        w0.end(s);
        w1.count_event(CounterId::Samples, 5);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].rank, 0);
        assert_eq!(events[1].rank, 1);
        let sum = t.summary();
        assert_eq!(sum.producers, 2);
        assert_eq!(sum.span_completions(SpanId::Reduce), 1);
        assert_eq!(sum.counter(CounterId::Samples), 5);
        assert_eq!(t.dropped_events(), 0);
        assert_eq!(t.time_base(), TimeBase::Wall);
    }

    #[test]
    fn stats_only_has_no_events_but_full_summary() {
        let t = Telemetry::stats_only();
        let w = t.writer(0, 0);
        let s = w.begin(SpanId::Check);
        w.end(s);
        assert!(t.events().is_empty());
        assert_eq!(t.summary().span_completions(SpanId::Check), 1);
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn deterministic_mode_zeroes_walls() {
        let t = Telemetry::deterministic(8);
        assert!(t.is_deterministic());
        assert_eq!(t.time_base(), TimeBase::Logical);
        let w = t.writer(0, 0);
        w.tick(3);
        w.mark(MarkId::CollectiveStart, 1);
        let events = t.events();
        assert_eq!(events[0].wall_ns, 0);
        assert_eq!(events[0].logical, 3);
    }

    #[test]
    fn event_log_summarizes_virtual_time() {
        let mut log = EventLog::new();
        log.span(0, 0, SpanId::IreduceWait, 1, 100, 900);
        log.span(0, 0, SpanId::Reduce, 1, 1_000, 100);
        log.count(0, 0, CounterId::Samples, 1, 1_100, 64);
        let s = log.summary();
        assert_eq!(s.span_total(SpanId::IreduceWait), 900);
        assert_eq!(s.counter(CounterId::Samples), 64);
        assert!((s.reduction_overlap() - 0.9).abs() < 1e-12);
        assert_eq!(log.events().len(), 3);
    }
}
