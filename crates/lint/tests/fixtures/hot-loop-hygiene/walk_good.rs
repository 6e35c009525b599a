//! hot-loop-hygiene: a walk-back that reuses the caller's predecessor scratch.

/// Clean walk body: the predecessor list is the caller's pre-sized buffer,
/// cleared, pushed to and sorted in place at every hop.
fn backtrack(side: &Side, from: u32, out: &mut Vec<u32>, preds: &mut Vec<u32>, rng: &mut Rng) {
    let mut cur = from;
    while side.dist(cur) > 1 {
        preds.clear();
        for &u in side.level(side.dist(cur) - 1) {
            if side.adjacent(cur, u) {
                preds.push(u);
            }
        }
        preds.sort_unstable();
        cur = preds[rng.below(preds.len())];
        out.push(cur);
    }
}
