//! hot-loop-hygiene: a walk-back that collects its predecessors afresh at every step.

/// Dirty walk body: runs once per hop of every sampled path, so each
/// collected list and each copied level is a heap allocation per hop.
fn backtrack(side: &Side, from: u32, out: &mut Vec<u32>, rng: &mut Rng) {
    let mut cur = from;
    while side.dist(cur) > 1 {
        let level = side.level(side.dist(cur) - 1).to_vec(); //~ hot-loop-hygiene
        let preds: Vec<u32> = level.into_iter().filter(|u| side.adjacent(cur, *u)).collect(); //~ hot-loop-hygiene
        cur = preds[rng.below(preds.len())];
        out.push(cur);
    }
}
