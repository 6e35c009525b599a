//! Reusable per-thread traversal buffers.
//!
//! Every KADABRA sample performs a (bidirectional) BFS. Allocating
//! `O(|V|)` arrays per sample would dominate the per-sample cost the paper
//! reports (<10 ms per sample even on billion-edge graphs), so each sampling
//! thread owns one [`TraversalScratch`] and reuses it for every sample.
//!
//! Instead of clearing the distance arrays between samples (an `O(|V|)`
//! memset), the scratch uses the classic *timestamp* trick: a vertex's entry
//! is valid only if its stamp equals the current round number. Resetting is
//! then `O(1)` (bump the round), with a full clear only on the rare round
//! counter wrap — without that clear, a stamp written billions of rounds ago
//! would alias the recycled round number and resurrect stale state.
//!
//! Both directions of a search share one array. A reset hands out two round
//! stamps, one *tag* per direction, and a slot holds the record of the
//! direction whose tag it carries. No vertex is settled by both directions
//! before the level that meets (DESIGN.md §11.6), so one slot per vertex is
//! enough, and the slot load that relaxes an edge also finds the meet.
//!
//! The per-vertex state is stored as an array of structs (`Slot`): one
//! sample touches a sparse, essentially random subset of vertices, so keeping
//! a vertex's stamp, distance and σ in a single 16-byte record turns three
//! potential cache misses per probe into one.

use crate::csr::NodeId;
use crate::hint::{prefetch_read, resize_huge};

/// Sentinel distance meaning "not reached in the current round".
pub const UNREACHED: u32 = u32::MAX;

/// Round-stamp integer for [`StampedState`].
///
/// The default is `u32`; tests instantiate `u8` to exercise the wrap path
/// cheaply (a `u32` stamp wraps only once per ~2 billion samples).
pub trait Stamp: Copy + Eq + std::fmt::Debug {
    /// Inactive stamp value; `reset` never yields a round equal to it, so a
    /// cleared slot can never read as visited.
    const CLEAR: Self;
    /// Largest round value; a reset whose pair would pass it performs the
    /// full-clear wrap.
    const LAST: Self;
    /// Successor of a non-[`Self::LAST`] value.
    fn next(self) -> Self;
}

impl Stamp for u32 {
    const CLEAR: Self = 0;
    const LAST: Self = u32::MAX;
    #[inline]
    fn next(self) -> Self {
        self + 1
    }
}

impl Stamp for u8 {
    const CLEAR: Self = 0;
    const LAST: Self = u8::MAX;
    #[inline]
    fn next(self) -> Self {
        self + 1
    }
}

/// Per-vertex BFS record: owner stamp, distance from the owner's root, and
/// shortest-path count σ, packed together for single-miss probes.
#[derive(Clone, Copy)]
struct Slot<S> {
    /// The tag of the direction this record belongs to.
    stamp: S,
    /// Distance from the owning direction's root.
    dist: u32,
    /// Number of shortest paths from that root.
    sigma: u64,
}

/// What one [`StampedState::settle_or_merge`] found in the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relax {
    /// The slot was already the direction's own: σ was merged in if it sits
    /// at the relaxed distance, and the slot was left alone otherwise.
    Known,
    /// The slot was free and now holds the direction's record.
    Settled,
    /// The slot held the other direction's record `(dist, σ)`, now replaced
    /// by this direction's: the two searches meet here.
    Met(u32, u64),
}

/// Both directions' BFS state with O(1) reset, generic over the stamp width
/// (see [`Stamp`]).
pub struct StampedState<S: Stamp> {
    /// Per-vertex records; `slots[v]` belongs to the direction whose tag
    /// `slots[v].stamp` equals.
    slots: Vec<Slot<S>>,
    /// The last round stamp handed out.
    round: S,
}

/// The production stamp width: wraps once per ~2 billion samples.
pub type StampedBfsState = StampedState<u32>;

impl<S: Stamp> StampedState<S> {
    /// Creates state sized for an `n`-vertex graph, its slots advised for
    /// huge pages before they are first written (DESIGN.md §11.8): a sample
    /// probes them at random.
    pub fn new(n: usize) -> Self {
        let mut slots = Vec::new();
        resize_huge(&mut slots, n, Slot { stamp: S::CLEAR, dist: UNREACHED, sigma: 0 });
        StampedState { slots, round: S::CLEAR }
    }

    /// Starts a fresh traversal and hands out its two tags, one per
    /// direction: two consecutive rounds, distinct from each other and from
    /// every stamp a slot holds. O(1) except on round-counter wrap, where
    /// every stamp is cleared so recycled round numbers cannot alias stamps
    /// written before the wrap. A pair never straddles the wrap: its first
    /// tag would be written after the clear and survive into the next
    /// cycle, so a pair that would pass [`Stamp::LAST`] wraps first.
    pub fn reset(&mut self) -> (S, S) {
        if self.round == S::LAST || self.round.next() == S::LAST {
            for slot in &mut self.slots {
                slot.stamp = S::CLEAR;
            }
            self.round = S::CLEAR;
        }
        let first = self.round.next();
        self.round = first.next();
        (first, self.round)
    }

    /// The last tag [`Self::reset`] handed out.
    #[cfg(test)]
    pub(crate) fn round(&self) -> S {
        self.round
    }

    /// Single-probe record read: `Some((dist, σ))` if `v`'s slot holds
    /// direction `tag`'s record, else `None`. The backtrack walk's
    /// predecessor scan is built on this.
    #[inline]
    pub fn record(&self, v: NodeId, tag: S) -> Option<(u32, u64)> {
        let slot = &self.slots[v as usize];
        if slot.stamp == tag {
            Some((slot.dist, slot.sigma))
        } else {
            None
        }
    }

    /// σ(v) of direction `tag`: the shortest root→v paths it found (0 if
    /// `v`'s slot is not `tag`'s).
    #[inline]
    pub fn sigma(&self, v: NodeId, tag: S) -> u64 {
        self.record(v, tag).map_or(0, |(_, sigma)| sigma)
    }

    /// Gives `v`'s slot to direction `tag`, at `dist` with path count
    /// `sigma`.
    #[inline]
    pub fn visit(&mut self, v: NodeId, tag: S, dist: u32, sigma: u64) {
        self.slots[v as usize] = Slot { stamp: tag, dist, sigma };
    }

    /// Single-probe BFS relaxation for the hot sampling loop: one load of
    /// `v`'s slot, compared with the expanding direction's `tag` and the
    /// other direction's `far`, settles `v` at `dist` with count `sigma`,
    /// merges `sigma` into a record already at `dist`, ignores a record
    /// nearer the root, or takes the other direction's record over and
    /// returns it (see [`Relax`]).
    #[inline]
    pub fn settle_or_merge(&mut self, v: NodeId, tag: S, far: S, dist: u32, sigma: u64) -> Relax {
        let slot = &mut self.slots[v as usize];
        if slot.stamp == tag {
            if slot.dist == dist {
                slot.sigma = slot.sigma.saturating_add(sigma);
            }
            return Relax::Known;
        }
        let old = std::mem::replace(slot, Slot { stamp: tag, dist, sigma });
        if old.stamp == far {
            Relax::Met(old.dist, old.sigma)
        } else {
            Relax::Settled
        }
    }

    /// Hands each meeting-cut vertex, which direction `near` took over, back
    /// to direction `far` at `far_depth` with the σ_far its cut entry holds,
    /// and puts σ_near in the entry instead. Once the meeting level is
    /// complete, this leaves far's records as they were before it.
    #[inline]
    pub fn hand_back(&mut self, cut: &mut [(NodeId, u64)], near: S, far: S, far_depth: u32) {
        for (v, sigma) in cut {
            let near_sigma = self.sigma(*v, near);
            self.visit(*v, far, far_depth, *sigma);
            *sigma = near_sigma;
        }
    }

    /// Hints the CPU to pull `v`'s record into cache ahead of a probe.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        prefetch_read(&self.slots, v as usize);
    }
}

/// One bit per vertex, all clear between uses: a caller sets the bits of
/// one frontier, tests neighbours against them, and clears them again
/// before it returns. That costs O(|frontier|) per use, not O(n), and a
/// frontier test reads 8 bytes per 64 vertices (n/8 bytes in all) where a
/// record probe reads a 16-byte slot.
pub(crate) struct VertexBits {
    words: Vec<u64>,
}

impl VertexBits {
    /// A clear set for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        VertexBits { words: vec![0; n.div_ceil(64)] }
    }

    /// Sets the bit of every vertex of `vs`.
    #[inline]
    pub fn insert_all(&mut self, vs: &[NodeId]) {
        for &v in vs {
            self.words[v as usize / 64] |= 1 << (v % 64);
        }
    }

    /// Whether `v`'s bit is set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[v as usize / 64] >> (v % 64) & 1 != 0
    }

    /// Clears the set after [`Self::insert_all`]`(vs)` on a clear set: every
    /// set bit belongs to a vertex of `vs`, so zeroing the words of `vs`
    /// clears them all.
    #[inline]
    pub fn clear_all(&mut self, vs: &[NodeId]) {
        for &v in vs {
            self.words[v as usize / 64] = 0;
        }
    }

    /// Whether every bit is clear, as it is between samples.
    #[cfg(test)]
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Scratch space for one sampling thread: the stamped BFS state both
/// directions share (forward from `s`, backward from `t`), each direction's
/// settled vertices cut into BFS levels, a frontier bit set, and result
/// buffers for the sampled shortest path. Every buffer holds at most one
/// entry per vertex (the level starts one more than the levels, of which
/// there are at most n; the bit set one bit) and is allocated at that
/// capacity up front, so no sample — not even the first — performs a heap
/// allocation.
pub struct TraversalScratch {
    /// Both directions' BFS records, told apart by the tags
    /// [`TraversalScratch::reset`] hands out.
    pub state: StampedBfsState,
    /// The most recently sampled path, as interior vertices only.
    pub path: Vec<NodeId>,
    /// Vertices settled around `s`, in settling order.
    pub order_fwd: Vec<NodeId>,
    /// Vertices settled around `t`, in settling order.
    pub order_bwd: Vec<NodeId>,
    /// Where each level of `order_fwd` begins: level `i` is
    /// `order_fwd[levels_fwd[i]..levels_fwd[i + 1]]`, the last level runs to
    /// the end and is the frontier.
    pub levels_fwd: Vec<u32>,
    /// Where each level of `order_bwd` begins (as `levels_fwd`).
    pub levels_bwd: Vec<u32>,
    /// Meeting-cut vertices with a σ (the far side's while a level that
    /// meets is expanded, σ_near after); the walk-back reuses it as
    /// predecessor scratch.
    pub cut: Vec<(NodeId, u64)>,
    /// One frontier's vertices, while the meet test or the end of a level
    /// that met tests neighbours against it; clear between samples.
    pub(crate) frontier_bits: VertexBits,
}

impl TraversalScratch {
    /// Allocates scratch for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        TraversalScratch {
            state: StampedBfsState::new(n),
            path: Vec::with_capacity(n),
            order_fwd: Vec::with_capacity(n),
            order_bwd: Vec::with_capacity(n),
            levels_fwd: Vec::with_capacity(n + 2),
            levels_bwd: Vec::with_capacity(n + 2),
            cut: Vec::with_capacity(n),
            frontier_bits: VertexBits::new(n),
        }
    }

    /// Resets the state and all buffers for a new sample and returns the
    /// tags of the forward and the backward direction.
    pub fn reset(&mut self) -> (u32, u32) {
        self.path.clear();
        self.order_fwd.clear();
        self.order_bwd.clear();
        self.levels_fwd.clear();
        self.levels_bwd.clear();
        self.cut.clear();
        self.state.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_reports_unreached() {
        let mut st = StampedBfsState::new(4);
        let (a, b) = st.reset();
        for v in 0..4 {
            for tag in [a, b] {
                assert_eq!(st.record(v, tag), None);
                assert_eq!(st.sigma(v, tag), 0);
            }
        }
    }

    #[test]
    fn visit_and_reset_invalidate() {
        let mut st = StampedBfsState::new(4);
        let (a, _) = st.reset();
        st.visit(2, a, 5, 7);
        assert_eq!(st.record(2, a), Some((5, 7)));
        assert_eq!(st.sigma(2, a), 7);
        let (a2, b2) = st.reset();
        for tag in [a2, b2] {
            assert_eq!(st.record(2, tag), None);
            assert_eq!(st.sigma(2, tag), 0);
        }
    }

    #[test]
    fn settle_or_merge_matches_visit_semantics() {
        let mut st = StampedBfsState::new(3);
        let (a, b) = st.reset();
        assert_eq!(st.settle_or_merge(1, a, b, 2, 5), Relax::Settled);
        // Same distance: merge, accumulating.
        assert_eq!(st.settle_or_merge(1, a, b, 2, 3), Relax::Known);
        assert_eq!(st.sigma(1, a), 8);
        // Larger distance: ignored.
        assert_eq!(st.settle_or_merge(1, a, b, 3, 100), Relax::Known);
        assert_eq!(st.record(1, a), Some((2, 8)));
        // Merges saturate.
        assert_eq!(st.settle_or_merge(1, a, b, 2, u64::MAX), Relax::Known);
        assert_eq!(st.sigma(1, a), u64::MAX);
        // The other direction's slot: taken over, its record returned.
        st.visit(2, b, 4, 6);
        assert_eq!(st.settle_or_merge(2, a, b, 3, 9), Relax::Met(4, 6));
        assert_eq!(st.record(2, a), Some((3, 9)));
        assert_eq!(st.record(2, b), None);
    }

    /// A slot one direction visits is invisible to the other's tag, in
    /// both directions and through every reader.
    #[test]
    fn a_slot_is_invisible_to_the_other_tag() {
        let mut st = StampedBfsState::new(4);
        let (a, b) = st.reset();
        st.visit(0, a, 0, 1);
        st.visit(3, b, 0, 1);
        st.visit(1, a, 1, 2);
        st.visit(2, b, 1, 5);
        for (v, own, other) in [(0, a, b), (1, a, b), (2, b, a), (3, b, a)] {
            assert!(st.record(v, own).is_some());
            assert_eq!(st.record(v, other), None, "vertex {v}");
            assert_eq!(st.sigma(v, other), 0, "vertex {v}");
        }
        // Relaxing the other direction's slot by its own tag merges.
        assert_eq!(st.settle_or_merge(2, b, a, 1, 1), Relax::Known);
        assert_eq!(st.record(2, b), Some((1, 6)));
        assert_eq!(st.sigma(2, a), 0);
    }

    #[test]
    fn round_wrap_clears_stamps() {
        let mut st = StampedBfsState::new(2);
        let (a, _) = st.reset();
        st.visit(0, a, 1, 1);
        st.round = u32::MAX; // force the wrap path
        let (a, b) = st.reset();
        assert_eq!((a, b), (1, 2));
        assert_eq!(st.record(0, a), None);
        st.visit(1, b, 2, 2);
        assert_eq!(st.record(1, b), Some((2, 2)));
    }

    /// Force a *natural* stamp wrap with a `u8` stamp: without the full clear
    /// on wrap, the stamp written in round `r` would alias round `r` of the
    /// next stamp cycle and resurrect stale distances.
    #[test]
    fn u8_stamp_survives_natural_wraparound() {
        let mut st: StampedState<u8> = StampedState::new(4);
        // Visit vertex 3 with the first tag of the fourth pair (round 7).
        for _ in 0..3 {
            st.reset();
        }
        let (a, _) = st.reset();
        assert_eq!(a, 7);
        st.visit(3, a, 42, 9);
        assert_eq!(st.record(3, a), Some((42, 9)));
        // Two rounds a reset, 127 resets a cycle: 300 resets run through two
        // wraps and hand out round 7 again on the way.
        let mut seven_again = false;
        for _ in 0..300 {
            let (a, b) = st.reset();
            seven_again |= a == 7 || b == 7;
            for tag in [a, b] {
                assert_eq!(st.record(3, tag), None, "stale stamp resurrected after wrap");
                assert_eq!(st.sigma(3, tag), 0);
            }
        }
        assert!(seven_again);
        // The state still works normally after two wraps.
        let (a, _) = st.reset();
        st.visit(3, a, 1, 2);
        assert_eq!(st.record(3, a), Some((1, 2)));
    }

    /// Samples on a `u8` stamp through two natural wraps. Each direction
    /// writes only the slot its tag names, so a slot written near a wrap
    /// (the last pairs of a cycle included) keeps that stamp until the same
    /// tag comes round in a later cycle. Every pair must find every slot
    /// free under both tags, no pair may straddle the wrap (its first tag
    /// would be written after the clear and never cleared again), one
    /// direction's slot never reads as the other's, and a meet taken over
    /// and handed back restores the far record bit for bit.
    #[test]
    fn stamp_pairs_stay_apart_through_two_wraps() {
        let n = 256;
        let mut st: StampedState<u8> = StampedState::new(n);
        let (mut wraps, mut straddles, mut last) = (0, 0, 0u8);
        for r in 0..400u32 {
            let (a, b) = st.reset();
            for v in 0..n as NodeId {
                assert_eq!((st.record(v, a), st.record(v, b)), (None, None), "{v}, sample {r}");
            }
            wraps += u32::from(a < last);
            straddles += u32::from(b <= a);
            last = b;
            let (va, vb) = (NodeId::from(a), NodeId::from(b));
            assert_eq!(st.settle_or_merge(va, a, b, r, 1), Relax::Settled);
            assert_eq!(st.settle_or_merge(vb, b, a, r, 2), Relax::Settled);
            assert_eq!((st.record(va, b), st.record(vb, a)), (None, None), "sample {r}");
            // `a` expanding into `b`'s slot meets; handing it back leaves
            // `b`'s record as it was and puts σ_a in the cut entry.
            let Relax::Met(dist, sigma) = st.settle_or_merge(vb, a, b, r + 1, 3) else {
                panic!("no meet at vertex {vb}, sample {r}")
            };
            let mut cut = [(vb, sigma)];
            st.hand_back(&mut cut, a, b, dist);
            assert_eq!(cut, [(vb, 3)]);
            assert_eq!((st.record(vb, b), st.record(vb, a)), (Some((r, 2)), None));
        }
        assert!(wraps >= 2, "only {wraps} wraps");
        assert_eq!(straddles, 0, "a pair straddled the wrap");
    }

    /// Setting a frontier and clearing it leaves every word zero, in the
    /// last, partial word too, and only the frontier's bits read as set.
    #[test]
    fn vertex_bits_clear_what_they_set() {
        let mut bits = VertexBits::new(130);
        let frontier = [0, 5, 63, 64, 100, 129];
        bits.insert_all(&frontier);
        for v in 0..130 {
            assert_eq!(bits.contains(v), frontier.contains(&v), "vertex {v}");
        }
        assert!(!bits.is_clear());
        bits.clear_all(&frontier);
        assert!(bits.is_clear());
        assert!((0..130).all(|v| !bits.contains(v)));
    }

    #[test]
    fn scratch_reset_clears_everything() {
        let mut sc = TraversalScratch::new(3);
        let (a, b) = sc.reset();
        sc.state.visit(0, a, 0, 1);
        sc.state.visit(2, b, 0, 1);
        sc.path.push(1);
        sc.order_fwd.push(0);
        sc.order_bwd.push(2);
        sc.levels_fwd.push(0);
        sc.levels_bwd.push(0);
        sc.cut.push((1, 1));
        let (a2, b2) = sc.reset();
        for tag in [a2, b2] {
            assert_eq!(sc.state.record(0, tag), None);
            assert_eq!(sc.state.record(2, tag), None);
        }
        assert!(sc.path.is_empty());
        assert!(sc.order_fwd.is_empty());
        assert!(sc.order_bwd.is_empty());
        assert!(sc.levels_fwd.is_empty());
        assert!(sc.levels_bwd.is_empty());
        assert!(sc.cut.is_empty());
    }

    #[test]
    fn many_rounds_stay_consistent() {
        let mut st = StampedBfsState::new(8);
        for r in 0..1000u32 {
            let (a, b) = st.reset();
            let v = (r % 8) as NodeId;
            st.visit(v, a, r, 1);
            assert_eq!(st.record(v, a), Some((r, 1)));
            // All other vertices, and `v` for the other tag, read unreached.
            assert_eq!(st.record(v, b), None);
            for u in (0..8).filter(|&u| u != v) {
                assert_eq!((st.record(u, a), st.record(u, b)), (None, None));
            }
        }
    }
}
