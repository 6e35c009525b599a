//! Fixture stand-in for the communicator API surface the comm-error-flow
//! and hot-loop-hygiene harvests scan (virtual path `crates/mpisim/src/comm.rs`).

/// Typed communicator error.
pub enum CommError {
    /// A rank died mid-collective.
    RankFailed,
}

/// Minimal communicator mirroring the real method shapes.
pub struct Comm;

impl Comm {
    /// Collective barrier.
    pub fn barrier(&self) -> Result<(), CommError> {
        Err(CommError::RankFailed)
    }

    /// Sum all-reduction.
    pub fn allreduce_sum_u64(&self, x: u64) -> Result<u64, CommError> {
        Ok(x)
    }

    /// Standby admission: grows the world by `extra` ranks (the elastic
    /// scale-out entry point; a failure mid-admission is a rank failure).
    pub fn grow(&self, extra: usize) -> Result<usize, CommError> {
        Ok(extra)
    }

    /// Posts a non-blocking broadcast from `root` (the termination flag's
    /// path; a failure to post means a rank already died).
    pub fn ibcast_u64(&self, root: usize, value: Option<u64>) -> Result<Request, CommError> {
        Ok(Request(value.unwrap_or(root as u64)))
    }
}

/// A posted non-blocking collective.
pub struct Request(u64);

impl Request {
    /// Blocks until the collective completes (a rank that died before it
    /// did surfaces here).
    pub fn wait(self) -> Result<u64, CommError> {
        Ok(self.0)
    }
}
