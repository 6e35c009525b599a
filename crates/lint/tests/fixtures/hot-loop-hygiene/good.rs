//! hot-loop-hygiene: reused scratch buffers and push-only closures stay clean.

/// Clean consume closure: pre-sized buffer, pushes only.
pub fn drive(sampler: &mut crate::sampler::ThreadSampler, counts: &mut [u64]) {
    sampler.sample_batch(64, |interior| {
        for &v in interior {
            counts[v as usize] += 1;
        }
    });
}

/// Hot-path function using the sanctioned idiom.
pub fn sample_batch(buf: &mut Vec<u32>, extra: &[u32]) {
    buf.reserve(extra.len());
    for &v in extra {
        buf.push(v);
    }
}

/// The function that holds the per-pair loop: reuses caller scratch, pushes only.
pub fn sample_batch_records(pairs: &[(u32, u32)], out: &mut Vec<u32>) {
    out.clear();
    for &(s, t) in pairs {
        out.push(s ^ t);
    }
}

/// The kernel body both graph kinds run: the next level goes into the
/// caller's pre-sized order list.
pub fn sample_along(rows: &[Vec<u32>], s: u32, order: &mut Vec<u32>) {
    order.clear();
    order.extend_from_slice(&rows[s as usize]);
}

/// The end of a level that met: tests each entry against the caller's
/// pre-sized frontier bits and pushes the hits into the caller's cut.
pub fn finish_meeting_level(row: &[u32], bits: &[u64], cut: &mut Vec<u32>) {
    for &v in row {
        if bits[v as usize / 64] >> (v % 64) & 1 != 0 {
            cut.push(v);
        }
    }
}
