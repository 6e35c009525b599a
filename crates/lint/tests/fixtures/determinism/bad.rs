//! determinism: truncating length casts.

/// Narrows a length three ways.
pub fn counts(ids: &[u32], names: &[String]) -> u64 {
    let n = ids.len() as u32; //~ determinism
    let m = names.len() as u16; //~ determinism
    let v = ids.len() as NodeId; //~ determinism
    u64::from(n) + u64::from(m) + u64::from(v)
}
