//! Sparse state frames (DESIGN.md §8.2): what the round loop of Algorithms
//! 1 and 2 counts into, moves and folds.
//!
//! A rank's epoch draws a few hundred samples of a few interior vertices
//! each, so a frame of `n + 1` slots is almost all zeros. Every frame the
//! loop keeps is therefore a [`Frame`]: the dense slots beside the list of
//! vertices it has touched, filled by one counting function (`count`)
//! wherever a count goes 0 → 1. Every frame it moves is a [`SparseFrame`]:
//! the touched slots only, one packed `u64` word each. Taking a snapshot,
//! folding one in and clearing a frame then cost O(touched), not O(n).

use kadabra_graph::NodeId;

/// Bits of an entry word that hold the count; the slot takes the rest.
const COUNT_BITS: u32 = 32;

/// The one counting function of every sparse-aware frame: adds `c > 0` to
/// `counts[v]`, listing `v` in `touched` when its count leaves zero.
#[inline]
pub(crate) fn count(counts: &mut [u64], touched: &mut Vec<NodeId>, v: NodeId, c: u64) {
    debug_assert!(c > 0, "an empty count would list a vertex it never counted");
    let slot = &mut counts[v as usize];
    if *slot == 0 {
        touched.push(v);
    }
    *slot += c;
}

/// A state frame on the wire: `(slot, count)` entries packed one per `u64`,
/// the slot in the high 32 bits and the count in the low 32. Slots follow
/// the dense layout, so slot `n` of an `n`-vertex frame is τ. Entries add:
/// a slot may occur more than once, and a count above `u32::MAX` spans
/// several entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseFrame {
    words: Vec<u64>,
}

impl SparseFrame {
    /// An empty frame.
    pub fn new() -> Self {
        SparseFrame::default()
    }

    /// A frame from packed words, as a gather concatenates them.
    pub fn from_words(words: Vec<u64>) -> Self {
        SparseFrame { words }
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends `count` at `slot`.
    pub fn push(&mut self, slot: usize, mut count: u64) {
        debug_assert!(slot <= u32::MAX as usize, "slot {slot} does not fit an entry");
        let head = (slot as u64) << COUNT_BITS;
        while count > 0 {
            let part = count.min(u64::from(u32::MAX));
            self.words.push(head | part);
            count -= part;
        }
    }

    /// The `(slot, count)` entries, in word order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words.iter().map(|&w| ((w >> COUNT_BITS) as usize, w & u64::from(u32::MAX)))
    }

    /// Empties the frame, keeping its buffer.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// `[Σc̃, τ]` of the frame of an `n`-vertex graph.
    pub fn mass(&self, n: usize) -> [u64; 2] {
        self.entries().fold(
            [0, 0],
            |[c, tau], (slot, x)| {
                if slot == n {
                    [c, tau + x]
                } else {
                    [c + x, tau]
                }
            },
        )
    }
}

/// A dense `(n + 1)`-slot state frame — per-vertex counts, τ in the last
/// slot — with the list of vertices whose count is nonzero, in the order
/// they were first counted. The default frame holds no slots: the global
/// frame S at a rank that does not keep it.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    slots: Vec<u64>,
    touched: Vec<NodeId>,
}

impl Frame {
    /// An empty frame for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        Frame::from_dense(vec![0; n + 1])
    }

    /// A frame over dense `(n + 1)` slots, listing what they touch: one
    /// O(n) scan, for a frame rebuilt wholesale.
    pub fn from_dense(slots: Vec<u64>) -> Self {
        let n = slots.len().saturating_sub(1);
        let touched = (0..n as NodeId).filter(|&v| slots[v as usize] > 0).collect();
        Frame { slots, touched }
    }

    /// Counts one sampled path: its interior vertices, and one sample.
    #[inline]
    pub fn count_path(&mut self, interior: &[NodeId]) {
        let n = self.slots.len() - 1;
        let (counts, tau) = self.slots.split_at_mut(n);
        for &v in interior {
            count(counts, &mut self.touched, v, 1);
        }
        tau[0] += 1;
    }

    /// Adds `c > 0` to vertex `v`'s count.
    #[inline]
    pub fn add(&mut self, v: NodeId, c: u64) {
        let n = self.slots.len() - 1;
        count(&mut self.slots[..n], &mut self.touched, v, c);
    }

    /// Adds `k` samples to τ.
    pub fn add_samples(&mut self, k: u64) {
        let n = self.slots.len() - 1;
        self.slots[n] += k;
    }

    /// Adds a sparse frame in, entry by entry.
    pub fn fold(&mut self, frame: &SparseFrame) {
        let n = self.slots.len() - 1;
        let (counts, tau) = self.slots.split_at_mut(n);
        for (slot, c) in frame.entries() {
            if slot == counts.len() {
                tau[0] += c;
            } else {
                count(counts, &mut self.touched, slot as NodeId, c);
            }
        }
    }

    /// Moves the frame's content into `out` — each touched vertex, then τ —
    /// and leaves the frame empty.
    pub fn drain_into(&mut self, out: &mut SparseFrame) {
        let n = self.slots.len() - 1;
        for &v in &self.touched {
            out.push(v as usize, std::mem::take(&mut self.slots[v as usize]));
        }
        self.touched.clear();
        out.push(n, std::mem::take(&mut self.slots[n]));
    }

    /// Zeroes the frame.
    pub fn clear(&mut self) {
        for &v in &self.touched {
            self.slots[v as usize] = 0;
        }
        self.touched.clear();
        if let Some(tau) = self.slots.last_mut() {
            *tau = 0;
        }
    }

    /// τ, the frame's sample count.
    pub fn tau(&self) -> u64 {
        self.slots[self.slots.len() - 1]
    }

    /// The per-vertex counts.
    pub fn counts(&self) -> &[u64] {
        &self.slots[..self.slots.len() - 1]
    }

    /// The vertices with a nonzero count, in first-count order.
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// The dense slots: counts, then τ.
    pub fn dense(&self) -> &[u64] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_pack_slot_and_count_and_split_wide_counts() {
        let mut f = SparseFrame::new();
        f.push(3, 7);
        f.push(9, u64::from(u32::MAX) + 5);
        f.push(4, 0);
        let entries: Vec<_> = f.entries().collect();
        assert_eq!(entries, [(3, 7), (9, u64::from(u32::MAX)), (9, 5)]);
        assert_eq!(f.mass(9), [7, u64::from(u32::MAX) + 5]);
    }

    #[test]
    fn a_frame_drains_what_it_counted_and_is_left_empty() {
        let mut f = Frame::new(5);
        f.count_path(&[2, 4]);
        f.count_path(&[4]);
        f.count_path(&[]);
        f.add(1, 3);
        assert_eq!((f.touched(), f.tau()), (&[2, 4, 1][..], 3));
        let mut out = SparseFrame::new();
        f.drain_into(&mut out);
        assert_eq!(out.entries().collect::<Vec<_>>(), [(2, 1), (4, 2), (1, 3), (5, 3)]);
        assert_eq!(f.dense(), &[0; 6]);
        assert!(f.touched().is_empty());

        // Folding it back rebuilds the dense frame; a rescan agrees.
        f.fold(&out);
        f.fold(&out);
        assert_eq!(f.dense(), &[0, 6, 2, 0, 4, 6]);
        let rescanned = Frame::from_dense(f.dense().to_vec());
        let mut listed = f.touched().to_vec();
        listed.sort_unstable();
        assert_eq!(rescanned.touched(), listed);
        f.clear();
        assert_eq!(f.dense(), &[0; 6]);
    }
}
