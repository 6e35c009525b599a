//! hot-loop-hygiene: a retaining consume closure that copies, locks and allocates.
use parking_lot::Mutex;

pub struct Rec {
    pub s: u32,
    pub t: u32,
    pub path: Vec<u32>,
}

/// Dirty record closure: the per-sample callback of a pool whose sink keeps
/// every sample must not pay an allocation or a lock per record.
pub fn drive(
    sampler: &mut crate::sampler::ThreadSampler,
    frame: &mut [u64],
    kept: &Mutex<Vec<Rec>>,
) {
    sampler.sample_batch_records(64, |s, t, _dist, interior| {
        for &v in interior {
            frame[v as usize] += 1;
        }
        let path = interior.to_vec(); //~ hot-loop-hygiene
        kept.lock().push(Rec { s, t, path }); //~ hot-loop-hygiene
    });
}
