//! Offline shim for [`loom`](https://crates.io/crates/loom): a small but real
//! model checker for concurrent code, exposing the loom API subset the
//! workspace's verification tests use (`loom::model`, `loom::thread::spawn`,
//! `loom::sync::atomic::*`).
//!
//! # What it checks
//!
//! [`model()`] runs the given closure repeatedly, exploring thread
//! interleavings by depth-first search over every nondeterministic choice:
//!
//! * **Scheduling** — threads are sequentialized; before each atomic
//!   operation the running thread offers the "token" to every runnable
//!   thread. The DFS backtracks over these decisions, bounded by a
//!   configurable preemption budget ([`model::Builder::preemption_bound`],
//!   the CHESS result: almost all real bugs need very few preemptions).
//! * **Memory ordering** — the store history of every atomic location is
//!   kept, and a `Relaxed`/unsynchronized load may return *any* store the
//!   loading thread has not yet observed, not just the newest one. Threads
//!   carry per-location *views* (vector clocks): a `Release` store snapshots
//!   the writer's view; an `Acquire` load that reads it joins that snapshot
//!   into the reader's view, which is exactly the happens-before edge of the
//!   C11 model. Read-modify-writes always read the newest store (atomicity)
//!   and continue release sequences. A missing `Release`/`Acquire` pair
//!   therefore lets the DFS drive a reader into stale values — the bug class
//!   this shim exists to catch.
//!
//! An assertion failure in any execution aborts the search and panics with
//! the failing schedule, so `#[should_panic]`-style negative tests work.
//!
//! # Honest limitations (vs. upstream loom)
//!
//! * Operations of one thread execute in program order against a global
//!   interleaving; cross-location effects forbidden only by exotic
//!   non-multi-copy-atomic hardware (e.g. IRIW outcomes) are not explored.
//!   Stale-value reads — the observable effect of missing release/acquire
//!   edges — are explored.
//! * `SeqCst` is treated as `AcqRel` (no total order across locations). The
//!   workspace bans `SeqCst` anyway (`cargo xtask lint`).
//! * Consecutive stale reads of one location by one thread are capped
//!   ([`model::Builder::max_staleness`]) so polling loops terminate; an
//!   execution is also capped at `max_ops` operations, and the whole search
//!   at `max_executions` executions.
//! * No `loom::sync::Mutex`/`Condvar`/`Notify` modelling — the epoch
//!   protocol under test is wait-free and uses none of them.

#![forbid(unsafe_code)]

pub mod model;
mod rt;
pub mod sync;
pub mod thread;

pub use model::model;

pub mod hint {
    //! Spin-loop hint: under the model a spin is a scheduling point.

    /// Equivalent to [`crate::thread::yield_now`] inside a model (spinning
    /// without yielding would livelock the sequentialized scheduler).
    pub fn spin_loop() {
        crate::thread::yield_now();
    }
}
