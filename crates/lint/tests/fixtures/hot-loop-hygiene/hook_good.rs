//! hot-loop-hygiene: a sample-source hook that forwards to its kernel and reuses the scratch.

pub struct Weighted;

impl Weighted {
    /// Clean hook body: the kernel leaves the interior somewhere, the hook
    /// moves it into the caller's pre-sized scratch (clear + extend — no
    /// allocation once the buffer has grown) and reports the hop count.
    pub fn sample_path_into(&self, s: u32, t: u32, scratch: &mut Scratch) -> Option<u32> {
        scratch.path.clear();
        let sample = kernel(self, s, t)?;
        scratch.path.extend_from_slice(&sample.interior);
        u32::try_from(sample.interior.len() + 1).ok()
    }
}
