//! comm-error-flow: swallowed rank-failure signals.
use crate::comm::Comm;

/// Every swallowing shape the pass distinguishes.
pub fn swallow(comm: &Comm) -> u64 {
    let _ = comm.barrier(); //~ comm-error-flow
    comm.barrier().ok(); //~ comm-error-flow
    comm.barrier(); //~ comm-error-flow
    comm.allreduce_sum_u64(1).unwrap_or_default(); //~ comm-error-flow
    let n = comm.allreduce_sum_u64(2).unwrap_or(0); //~ comm-error-flow
    n
}

/// The elastic and non-blocking entry points carry the same signal and
/// must not swallow it: a failed `grow` leaves the world half-admitted, a
/// failed `wait` means a rank died before the broadcast completed — both
/// are recoverable crashes.
pub fn swallow_elastic(comm: &Comm) -> u64 {
    let _ = comm.grow(2); //~ comm-error-flow
    comm.grow(1).ok(); //~ comm-error-flow
    match comm.ibcast_u64(0, Some(3)) {
        Ok(flag) => flag.wait().unwrap_or(0), //~ comm-error-flow
        Err(_) => 0,
    }
}
