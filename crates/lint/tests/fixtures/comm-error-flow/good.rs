//! comm-error-flow: propagated, matched, and bound results stay clean.
use crate::comm::{Comm, CommError};

/// Propagates with `?`.
pub fn propagate(comm: &Comm) -> Result<u64, CommError> {
    comm.barrier()?;
    let total = comm.allreduce_sum_u64(2)?;
    Ok(total)
}

/// Matches on the outcome.
pub fn recover(comm: &Comm) -> u64 {
    match comm.barrier() {
        Ok(()) => 1,
        Err(CommError::RankFailed) => 0,
    }
}

/// A named binding routed to a recovery decision.
pub fn routed(comm: &Comm) -> u64 {
    let outcome = comm.allreduce_sum_u64(3);
    if outcome.is_ok() {
        1
    } else {
        0
    }
}

/// The elastic and non-blocking entry points propagate like any other
/// collective: a failed admission aborts the grow window, a failed wait is
/// matched into the recovery decision.
pub fn propagate_elastic(comm: &Comm) -> Result<u64, CommError> {
    let admitted = comm.grow(2)?;
    let flag = match comm.ibcast_u64(0, None)?.wait() {
        Ok(flag) => flag,
        Err(CommError::RankFailed) => 0,
    };
    Ok(admitted as u64 + flag)
}

/// A `std` thread handle's `join` is no collective: re-raising a worker's
/// panic through `unwrap_or_else` swallows no rank failure.
pub fn std_join() -> u64 {
    std::thread::scope(|s| s.spawn(|| 1).join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
}
