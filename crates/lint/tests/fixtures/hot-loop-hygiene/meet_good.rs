//! hot-loop-hygiene: a meet test that reads both frontiers in place.

/// Clean meet test: both frontiers are borrowed slices of the scratch's
/// order lists, σ is summed on the fly and the cut is the caller's
/// pre-sized buffer, pushed to.
fn meet_from_far(near: &Side, far: &Side, cut: &mut Vec<(u32, u64)>) -> u64 {
    let mut reads = 0;
    for &w in far.frontier() {
        let mut sigma = 0u64;
        for &u in near.frontier() {
            reads += 1;
            if far.adjacent(w, u) {
                sigma = sigma.saturating_add(near.sigma(u));
            }
        }
        if sigma > 0 {
            cut.push((w, sigma));
        }
    }
    reads
}
