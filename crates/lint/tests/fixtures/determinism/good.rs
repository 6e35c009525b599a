//! determinism: wide and checked casts stay clean.

/// Keeps lengths wide, or converts them with a check.
pub fn counts(ids: &[u32]) -> Option<u64> {
    let n = ids.len() as u64;
    let v = NodeId::try_from(ids.len()).ok()?;
    Some(n + u64::from(v))
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_narrow() {
        let v = [1, 2, 3];
        assert_eq!(v.len() as u32, 3);
    }
}
