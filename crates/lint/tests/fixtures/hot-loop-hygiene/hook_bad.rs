//! hot-loop-hygiene: a sample-source hook that copies the path out and locks per pair.
use parking_lot::Mutex;

pub struct Cached {
    pub paths: Mutex<Vec<Vec<u32>>>,
}

impl Cached {
    /// Dirty hook body: `sample_batch_records` calls this once per drawn
    /// pair, so the copy and the lock multiply by the sample count.
    pub fn sample_path_into(&self, s: u32, t: u32, scratch: &mut Scratch) -> Option<u32> {
        let found = search(s, t, scratch)?;
        let copy = scratch.path.clone(); //~ hot-loop-hygiene
        self.paths.lock().push(copy); //~ hot-loop-hygiene
        Some(found)
    }
}
