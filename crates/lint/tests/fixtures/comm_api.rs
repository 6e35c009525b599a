//! Fixture stand-in for the communicator API surface the hot-loop-hygiene
//! harvest scans (virtual path `crates/mpisim/src/comm.rs`).

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
}
