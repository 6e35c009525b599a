//! In-memory spans around the harness's calls into the program, written out
//! as Chrome trace-event JSON when the workload ends.
//!
//! Spans are recorded only here, in the benchmark's own files: a span
//! brackets one call into a layer's public API. Phase times a call *returns*
//! (`BetweennessResult::timings`) are attached as child spans named
//! `reported:<phase>`; spans inside the program are a later change.

use kadabra_telemetry::json::escape;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Operation (one solve, refine, update or read) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
    /// Lane in the trace viewer (0 = the driving thread, 1 = the reader).
    pub lane: u32,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug)]
pub struct Open(Option<usize>);

/// Span store of one thread. Disabled tracers record nothing, so `run` and
/// `trace` share every line of workload code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u32,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(enabled: bool, origin: Instant, lane: u32) -> Self {
        Tracer { enabled, origin, lane, op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// The instant this tracer's clock starts at (a second thread's tracer
    /// shares it so the lanes line up).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Turns recording on or off (the overhead measurement alternates).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggling a tracer inside a span");
        self.enabled = enabled;
    }

    /// Marks the start of the next operation: spans begun from now on carry
    /// a fresh operation id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            lane: self.lane,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Times `f` inside a span and returns its result with the wall time —
    /// measured identically whether or not the tracer records.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let t = Instant::now();
        let out = f();
        let took = t.elapsed();
        self.end(open);
        (out, took)
    }

    /// Lays `phases` (name, duration as returned by the program) end to end
    /// from the start of span `parent`, as children named `reported:<name>`.
    pub fn attach_reported(&mut self, parent: &Open, phases: &[(&str, Duration)]) {
        let Some(pid) = parent.0 else { return };
        let mut at = self.spans[pid].start;
        for &(name, took) in phases {
            let id = self.spans.len();
            self.spans.push(Span {
                name: format!("reported:{name}"),
                start: at,
                end: at + took,
                id,
                parent: Some(pid),
                op: self.spans[pid].op,
                lane: self.lane,
            });
            at += took;
        }
    }

    /// Appends another thread's spans (their parents stay within that thread).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        for mut s in other.spans {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the Chrome trace-event file (load it in <https://ui.perfetto.dev>).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (s, own) in self.spans.iter().zip(&selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"self_us\":{:.3}}}}}",
                if s.id == 0 { "" } else { "," },
                escape(&s.name),
                s.lane,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.id,
                parent,
                s.op,
                own.as_secs_f64() * 1e6,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.clamp(ps, pe), s.end.clamp(ps, pe));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name: format!("s{id}"),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            id,
            parent,
            op: 0,
            lane: 0,
        }
    }

    fn ms(d: &[Duration]) -> Vec<u128> {
        d.iter().map(Duration::as_millis).collect()
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings 10..30 and 40..70; the second has a
        // nested child 50..60.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 50, 60),
        ];
        assert_eq!(ms(&self_times(&spans)), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        // Children 10..40 and 30..60 overlap by 10; a reported child runs
        // past the parent's end and is clipped there.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(ms(&self_times(&spans))[0], 100 - 50 - 10);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let (v, took) = t.timed("x", || 7);
        assert_eq!(v, 7);
        assert!(took < Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_share_an_op_and_reported_phases_lie_end_to_end() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.next_op();
        let outer = t.begin("solve");
        let inner = t.begin("inner");
        t.end(inner);
        t.attach_reported(
            &outer,
            &[("a", Duration::from_millis(2)), ("b", Duration::from_millis(3))],
        );
        t.end(outer);
        t.next_op();
        let (_, _) = t.timed("next", || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].op, s[1].op, s[4].op), (1, 1, 2));
        assert_eq!(s[2].name, "reported:a");
        assert_eq!(s[3].start, s[2].end);
        assert_eq!(s[3].end - s[3].start, Duration::from_millis(3));
        assert_eq!(s[4].parent, None);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 0);
        let (_, _) = a.timed("main", || ());
        let mut b = Tracer::new(true, origin, 1);
        let o = b.begin("read");
        let (_, _) = b.timed("rtt", || ());
        b.end(o);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].id, s[2].id, s[2].parent, s[2].lane), (1, 2, Some(1), 1));
    }
}
