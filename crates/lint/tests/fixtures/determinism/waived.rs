//! determinism: a waived cast is suppressed but recorded.

/// A length bounded by construction.
pub fn degree(row: &[u32]) -> u32 {
    // xtask: allow(determinism) — fixture: a row holds at most one entry per
    // vertex, so its length fits a NodeId.
    row.len() as u32
}
