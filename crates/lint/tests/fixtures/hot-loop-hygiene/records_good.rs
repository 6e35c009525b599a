//! hot-loop-hygiene: a retaining consume closure on a flat interior pool stays clean.

pub struct Store {
    pub recs: Vec<(u32, u32, u32, u32)>,
    pub pool: Vec<u32>,
}

/// Clean record closure: counts into the frame, appends the record and its
/// interior to buffers the caller owns (push/extend only — amortized, no
/// per-sample allocation).
pub fn drive(sampler: &mut crate::sampler::ThreadSampler, frame: &mut [u64], store: &mut Store) {
    sampler.sample_batch_records(64, |s, t, dist, interior| {
        for &v in interior {
            frame[v as usize] += 1;
        }
        store.recs.push((s, t, dist, store.pool.len() as u32));
        store.pool.extend_from_slice(interior);
    });
}
