//! hot-loop-hygiene: a meet test that copies the near frontier per far vertex.

/// Dirty meet test: runs before an expansion of every sample, once per
/// far-frontier vertex, so each copied level and collected row is a heap
/// allocation per vertex tested.
fn meet_from_far(near: &Side, far: &Side, cut: &mut Vec<(u32, u64)>) -> u64 {
    let mut reads = 0;
    for &w in far.frontier() {
        let level = near.frontier().to_vec(); //~ hot-loop-hygiene
        let hits: Vec<u32> = level.into_iter().filter(|&u| far.adjacent(w, u)).collect(); //~ hot-loop-hygiene
        reads += hits.len() as u64;
        if !hits.is_empty() {
            cut.push((w, near.sigma_sum(&hits)));
        }
    }
    reads
}
