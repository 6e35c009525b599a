//! hot-loop-hygiene: allocation, copies, and collectives per sample.
use crate::comm::Comm;

/// Dirty consume closure: one of every banned class.
pub fn drive(sampler: &mut crate::sampler::ThreadSampler, comm: &Comm) {
    let mut log: Vec<u32> = Vec::new();
    sampler.sample_batch(64, |interior| {
        let copy = interior.to_vec(); //~ hot-loop-hygiene
        let line = format!("{copy:?}"); //~ hot-loop-hygiene
        let scratch = Vec::new(); //~ hot-loop-hygiene
        let _ = comm.barrier(); //~ hot-loop-hygiene
        log.push(line.len() as u32);
        drop(scratch);
    });
}

/// Hot-path function scanned by name.
pub fn sample_batch(buf: &mut Vec<u32>, extra: &[u32]) {
    let doubled: Vec<u32> = extra.iter().map(|v| v * 2).collect(); //~ hot-loop-hygiene
    for v in doubled {
        buf.push(v);
    }
}

/// The function that holds the per-pair loop, scanned by name.
pub fn sample_batch_records(pairs: &[(u32, u32)], out: &mut Vec<u32>) {
    let staged = pairs.to_vec(); //~ hot-loop-hygiene
    for (s, _) in staged {
        out.push(s);
    }
}

/// The kernel body both graph kinds run, scanned by name: a frontier built
/// per level allocates per sample.
pub fn sample_along(rows: &[Vec<u32>], s: u32, out: &mut Vec<u32>) {
    let mut next = Vec::new(); //~ hot-loop-hygiene
    next.extend_from_slice(&rows[s as usize]);
    out.extend_from_slice(&next);
}

/// The end of a level that met, scanned by name: a copy of the far frontier
/// to test against allocates per sample.
pub fn finish_meeting_level(row: &[u32], far: &[u32], cut: &mut Vec<u32>) {
    let targets = far.to_vec(); //~ hot-loop-hygiene
    cut.extend(row.iter().filter(|v| targets.contains(v)));
}
