//! Sample revalidation plumbing for streaming graph updates (DESIGN.md
//! §14): the [`ValidityBitmap`] classifying each retained sample as
//! provably-valid or invalidated after an edge batch, and the re-sampling
//! driver that turns a classified bitmap into a ledger-conserving
//! retract-then-confirm transaction.
//!
//! The actual classification rule (endpoint-distance sums against each
//! touched edge) lives with the overlay graph in `kadabra-dynamic`; this
//! module owns the parts that must stay glued to the [`SampleLedger`]
//! invariant: an invalidated sample's old interior counts leave the
//! checkpoint frame and its redrawn replacement's counts enter it in the
//! same transaction, with τ unchanged — the 1:1 replacement that keeps the
//! maintained estimate an i.i.d. sample average on the *new* graph at the
//! same sample count.

use crate::recovery::SampleLedger;

/// One bit per retained sample: set ⇒ invalidated by the current update
/// batch (must be redrawn), clear ⇒ provably valid (shortest-path set
/// untouched, sample kept as-is).
pub struct ValidityBitmap {
    words: Vec<u64>,
    len: usize,
}

impl ValidityBitmap {
    /// An all-valid bitmap over `len` samples.
    pub fn all_valid(len: usize) -> Self {
        ValidityBitmap { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Resets to all-valid over a (possibly different) sample count,
    /// reusing the word buffer.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Number of samples tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap tracks zero samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks sample `i` invalidated.
    pub fn invalidate(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether sample `i` is still provably valid.
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) == 0
    }

    /// Number of invalidated samples.
    pub fn invalid_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Scratch frames reused across [`resample_invalidated`] transactions so
/// the per-batch driver allocates nothing at steady state.
pub struct ResampleScratch {
    retract: Vec<u64>,
    confirm: Vec<u64>,
}

impl ResampleScratch {
    /// Scratch for an `n`-vertex graph (frames are `n + 1` wide).
    pub fn new(n: usize) -> Self {
        ResampleScratch { retract: vec![0u64; n + 1], confirm: vec![0u64; n + 1] }
    }
}

/// The re-sampling driver: for every invalidated sample in `bitmap`, calls
/// `swap(i, retract, confirm)` — the callback subtracts the sample's *old*
/// interior counts into the retraction frame and adds its redrawn
/// replacement's counts into the confirmation frame — and finally applies
/// both frames to the ledger as one retract-then-confirm transaction.
///
/// The driver owns the τ bookkeeping: each invalidated sample contributes
/// exactly one retraction and one confirmation to the τ slot, so τ (and the
/// ε-stopping state derived from it) is invariant under the transaction —
/// the callback only touches the per-vertex slots `frame[..n]` (the frames
/// it receives exclude the τ slot).
///
/// Returns the number of samples redrawn.
pub fn resample_invalidated<F>(
    bitmap: &ValidityBitmap,
    ledger: &mut SampleLedger,
    scratch: &mut ResampleScratch,
    mut swap: F,
) -> usize
where
    F: FnMut(usize, &mut [u64], &mut [u64]),
{
    let width = ledger.frame().len();
    debug_assert!(width >= 1);
    scratch.retract.clear();
    scratch.retract.resize(width, 0);
    scratch.confirm.clear();
    scratch.confirm.resize(width, 0);
    let tau_slot = width - 1;
    let mut redrawn = 0usize;
    for i in 0..bitmap.len() {
        if bitmap.is_valid(i) {
            continue;
        }
        let (r, c) = (&mut scratch.retract[..tau_slot], &mut scratch.confirm[..tau_slot]);
        swap(i, r, c);
        scratch.retract[tau_slot] += 1;
        scratch.confirm[tau_slot] += 1;
        redrawn += 1;
    }
    ledger.retract(&scratch.retract);
    ledger.confirm_dense(&scratch.confirm);
    redrawn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_tracks_and_counts() {
        let mut b = ValidityBitmap::all_valid(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert_eq!(b.invalid_count(), 0);
        b.invalidate(0);
        b.invalidate(64);
        b.invalidate(129);
        assert_eq!(b.invalid_count(), 3);
        assert!(!b.is_valid(64));
        assert!(b.is_valid(1));
        b.reset(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.invalid_count(), 0);
    }

    #[test]
    fn driver_conserves_tau_and_swaps_interior_mass() {
        // Ledger over 3 vertices with 4 confirmed samples: counts [2,1,1],
        // τ = 4. Invalidate samples 1 and 3; their old interiors were
        // {v0} and {v0, v2}, their redraws land on {v1} and {}.
        let mut ledger = SampleLedger::new(3);
        ledger.confirm_dense(&[2, 1, 1, 4]);
        let mut bitmap = ValidityBitmap::all_valid(4);
        bitmap.invalidate(1);
        bitmap.invalidate(3);
        let mut scratch = ResampleScratch::new(3);
        let redrawn =
            resample_invalidated(&bitmap, &mut ledger, &mut scratch, |i, retract, confirm| {
                match i {
                    1 => retract[0] += 1,
                    3 => {
                        retract[0] += 1;
                        retract[2] += 1;
                    }
                    _ => unreachable!(),
                }
                if i == 1 {
                    confirm[1] += 1;
                }
            });
        assert_eq!(redrawn, 2);
        assert_eq!(ledger.frame(), &[0, 2, 0, 4]);
        assert_eq!(ledger.tau(), 4, "1:1 replacement must leave τ unchanged");
    }

    #[test]
    fn all_valid_bitmap_is_a_no_op_transaction() {
        let mut ledger = SampleLedger::new(2);
        ledger.confirm_dense(&[5, 3, 9]);
        let bitmap = ValidityBitmap::all_valid(9);
        let mut scratch = ResampleScratch::new(2);
        let redrawn = resample_invalidated(&bitmap, &mut ledger, &mut scratch, |_, _, _| {
            panic!("no swap expected")
        });
        assert_eq!(redrawn, 0);
        assert_eq!(ledger.frame(), &[5, 3, 9]);
    }
}
