//! An in-process **simulated MPI runtime**.
//!
//! The paper's algorithms run on MPICH over Intel Omni-Path; this container
//! has a single CPU and no interconnect, so we reproduce the *semantics* of
//! the MPI machinery the paper uses — communicators, `MPI_Comm_split`,
//! blocking and non-blocking collectives (`Barrier`/`Ibarrier`,
//! `Reduce`/`Ireduce`, `Bcast`/`Ibcast`, `Allreduce`), plus the
//! `Gatherv`/`Igatherv` that `kadabra-core` moves sparse frames with — as
//! an in-process runtime where every MPI *process* is an OS thread (see
//! DESIGN.md §3 for why this substitution is sound; performance modelling
//! lives in `kadabra-cluster`).
//!
//! Semantics notes:
//!
//! * Collectives must be called by **all ranks of a communicator in the same
//!   order** — exactly MPI's rule. The runtime detects violations (mismatched
//!   operation kinds for the same sequence number), poisons the communicator,
//!   and every waiter fails with a typed [`CommError::Poisoned`] instead of
//!   deadlocking or panicking.
//! * Non-blocking operations return a [`Request`]; `test()` polls without
//!   blocking (the caller can keep sampling — this is what Algorithms 1 and 2
//!   of the paper do in their `while IREDUCE(...) is not done` loops),
//!   `wait()` blocks.
//! * A non-blocking collective completes at a rank only once **all** ranks
//!   have joined it. For `Ibarrier` this is MPI semantics; for
//!   `Ireduce`/`Ibcast` real MPI makes weaker local guarantees, but the
//!   stronger barrier-like completion is precisely the property the paper
//!   relies on ("because the MPI reduction acts as a non-blocking barrier,
//!   the epoch numbers in different processes cannot differ by more than
//!   one", Section IV-C).
//! * Every payload byte is counted per communicator; the experiment
//!   harness reads [`Communicator::bytes_transferred`] to reproduce the
//!   communication-volume column of Table II.
//!
//! **Fault tolerance** (DESIGN.md §10): every communicator operation returns
//! a `Result` whose error side is a typed [`CommError`] — never a panic. A
//! [`FaultPlan`] can schedule deterministic rank crashes ([`CrashPoint`]);
//! survivors observe [`CommError::RankFailed`] and recover with
//! [`Communicator::shrink`], the ULFM-style shrink-and-continue protocol the
//! `kadabra-core` drivers build on.
//!
//! **Elasticity** (DESIGN.md §15): capacity also turns *up* —
//! [`Universe::run_elastic`] launches standby ranks that
//! [`Communicator::grow`] admits at a collective boundary (scheduled by the
//! plan's [`JoinPoint`]s).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]

mod comm;
mod engine;
mod error;
mod fault;
mod health;
mod universe;

pub use comm::Communicator;
pub use engine::Request;
pub use error::CommError;
pub use fault::{CrashPoint, FaultPlan, JoinPoint};
pub use universe::{ElasticRank, StandbyRank, Universe};

use parking_lot::{Mutex, MutexGuard};

/// Takes `m`'s lock: the one lock call of the runtime. The crate root
/// denies the lock ban of `crates/clippy.toml` with the wall-clock ban
/// (DESIGN.md §12.4); the runtime locks per collective call, never per
/// sample, so its locks are waived here, once.
#[expect(
    clippy::disallowed_methods,
    reason = "the runtime locks per collective call, never per sample"
)]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
}

#[cfg(test)]
mod tests;
