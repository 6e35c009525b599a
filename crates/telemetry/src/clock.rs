//! The two clocks every event carries (DESIGN.md §9: the logical-vs-wall
//! clock rule).
//!
//! * **Wall clock** — nanoseconds since the run origin, read from
//!   [`std::time::Instant`]. This crate is the single place in the
//!   workspace allowed to read the wall clock on algorithm paths
//!   (clippy's `disallowed_methods` bans raw `Instant::now()` in `core`,
//!   `graph`, `mpisim` and `cluster`, DESIGN.md §12.4);
//!   everything else threads a [`Stopwatch`] or a span through here.
//! * **Logical clock** — ticks the producer advances deterministically
//!   (overlapped polls of a non-blocking request, rounds, DES virtual
//!   nanoseconds). Under a chaos `FaultPlan` the logical clock is a pure
//!   function of `(plan, seed)`, so traces from perturbed runs are
//!   bit-reproducible.
//!
//! In **deterministic mode** ([`Clock::deterministic`]) every wall reading
//! is 0: chaos artifacts must not embed timing entropy, and sinks fall back
//! to the logical clock for ordering (see [`crate::chrome::TimeBase`]).

use std::time::{Duration, Instant};

/// A run-scoped clock: an origin instant plus the deterministic-mode switch.
#[derive(Debug, Clone)]
pub struct Clock {
    origin: Instant,
    deterministic: bool,
}

impl Clock {
    /// A wall clock starting now.
    pub fn wall() -> Self {
        Clock { origin: Instant::now(), deterministic: false }
    }

    /// A clock whose wall readings are always 0 (chaos / bit-reproducible
    /// runs).
    pub fn deterministic() -> Self {
        Clock { origin: Instant::now(), deterministic: true }
    }

    /// Nanoseconds since the run origin; 0 in deterministic mode.
    pub fn now_ns(&self) -> u64 {
        if self.deterministic {
            0
        } else {
            // Saturating: a >584-year run is not a concern, but the cast
            // must not wrap on hostile clock behaviour.
            u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    /// Whether wall readings are suppressed.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }
}

/// A started wall-time measurement — the workspace-wide replacement for raw
/// `let t = Instant::now(); ... t.elapsed()` pairs outside this crate.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = Clock::wall();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert!(!c.is_deterministic());
    }

    #[test]
    fn deterministic_clock_reads_zero() {
        let c = Clock::deterministic();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(c.now_ns(), 0);
        assert!(c.is_deterministic());
    }

    #[test]
    fn stopwatch_measures() {
        let s = Stopwatch::start();
        assert!(s.elapsed() >= Duration::ZERO);
    }
}
