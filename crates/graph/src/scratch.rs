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
//! The per-vertex state is stored as an array of structs (`Slot`): one
//! sample touches a sparse, essentially random subset of vertices, so keeping
//! a vertex's stamp, distance and σ in a single 16-byte record turns three
//! potential cache misses per probe into one.

use crate::csr::NodeId;
use crate::prefetch::prefetch_read;

/// Sentinel distance meaning "not reached in the current round".
pub const UNREACHED: u32 = u32::MAX;

/// Round-stamp integer for [`StampedState`].
///
/// The default is `u32`; tests instantiate `u8` to exercise the wrap path
/// cheaply (a `u32` stamp wraps only once per ~4 billion samples).
pub trait Stamp: Copy + Eq + std::fmt::Debug {
    /// Inactive stamp value; `reset` never yields a round equal to it, so a
    /// cleared slot can never read as visited.
    const CLEAR: Self;
    /// Largest round value; the reset after it performs the full-clear wrap.
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

/// Per-vertex BFS record: validity stamp, distance from the round's source,
/// and shortest-path count σ, packed together for single-miss probes.
#[derive(Clone, Copy)]
struct Slot<S> {
    /// Entry is valid iff `stamp == round` of the owning state.
    stamp: S,
    /// Distance from the round's source.
    dist: u32,
    /// Number of shortest paths from the source.
    sigma: u64,
}

/// One direction's worth of BFS state with O(1) reset, generic over the
/// stamp width (see [`Stamp`]).
pub struct StampedState<S: Stamp> {
    /// Per-vertex records; `slots[v]` is valid iff `slots[v].stamp == round`.
    slots: Vec<Slot<S>>,
    /// Current round.
    round: S,
}

/// The production stamp width: wraps once per ~4 billion samples.
pub type StampedBfsState = StampedState<u32>;

impl<S: Stamp> StampedState<S> {
    /// Creates state sized for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        StampedState {
            slots: vec![Slot { stamp: S::CLEAR, dist: UNREACHED, sigma: 0 }; n],
            round: S::CLEAR,
        }
    }

    /// Starts a fresh traversal round; O(1) except on round-counter wrap,
    /// where every stamp is cleared so recycled round numbers cannot alias
    /// stamps written before the wrap.
    pub fn reset(&mut self) {
        if self.round == S::LAST {
            for slot in &mut self.slots {
                slot.stamp = S::CLEAR;
            }
            self.round = S::CLEAR;
        }
        self.round = self.round.next();
    }

    /// Distance of `v` in the current round, or [`UNREACHED`].
    #[inline]
    pub fn dist(&self, v: NodeId) -> u32 {
        let slot = &self.slots[v as usize];
        if slot.stamp == self.round {
            slot.dist
        } else {
            UNREACHED
        }
    }

    /// σ(v): number of shortest source→v paths found this round (0 if unreached).
    #[inline]
    pub fn sigma(&self, v: NodeId) -> u64 {
        let slot = &self.slots[v as usize];
        if slot.stamp == self.round {
            slot.sigma
        } else {
            0
        }
    }

    /// Marks `v` visited at `dist` with initial path count `sigma`.
    #[inline]
    pub fn visit(&mut self, v: NodeId, dist: u32, sigma: u64) {
        self.slots[v as usize] = Slot { stamp: self.round, dist, sigma };
    }

    /// Adds `extra` shortest paths to `v`'s count. `v` must be visited.
    #[inline]
    pub fn add_sigma(&mut self, v: NodeId, extra: u64) {
        let slot = &mut self.slots[v as usize];
        debug_assert!(slot.stamp == self.round);
        slot.sigma = slot.sigma.saturating_add(extra);
    }

    /// Whether `v` was reached this round.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.slots[v as usize].stamp == self.round
    }

    /// Single-probe record read: `Some((dist, σ))` if `v` was reached this
    /// round, else `None`. One slot load where separate
    /// `reached`/`dist`/`sigma` calls would touch the slot three times — the
    /// backtrack walk's predecessor scan is built on this.
    #[inline]
    pub fn record(&self, v: NodeId) -> Option<(u32, u64)> {
        let slot = &self.slots[v as usize];
        if slot.stamp == self.round {
            Some((slot.dist, slot.sigma))
        } else {
            None
        }
    }

    /// Single-probe BFS relaxation for the hot sampling loop: if `v` is
    /// unvisited this round, settles it at `dist` with count `sigma` and
    /// returns `true`; if `v` is already settled *at the same distance*,
    /// accumulates `sigma` and returns `false`; otherwise returns `false`
    /// without touching the record.
    #[inline]
    pub fn settle_or_merge(&mut self, v: NodeId, dist: u32, sigma: u64) -> bool {
        let slot = &mut self.slots[v as usize];
        if slot.stamp == self.round {
            if slot.dist == dist {
                slot.sigma = slot.sigma.saturating_add(sigma);
            }
            false
        } else {
            *slot = Slot { stamp: self.round, dist, sigma };
            true
        }
    }

    /// Hints the CPU to pull `v`'s record into cache ahead of a probe.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        prefetch_read(&self.slots, v as usize);
    }

    /// Number of vertices this state was sized for.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if sized for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Scratch space for one sampling thread: two stamped BFS states (forward
/// from `s`, backward from `t`), each direction's settled vertices cut into
/// BFS levels, and result buffers for the sampled shortest path. Every
/// buffer holds at most one entry per vertex (the level starts one more
/// than the levels, of which there are at most n) and is allocated at that
/// capacity up front, so no sample — not even the first — performs a heap
/// allocation.
pub struct TraversalScratch {
    /// Forward BFS state (from the sample's source `s`).
    pub fwd: StampedBfsState,
    /// Backward BFS state (from the sample's target `t`).
    pub bwd: StampedBfsState,
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
    /// Meeting-cut vertices with σ_near; the walk-back reuses it as
    /// predecessor scratch.
    pub cut: Vec<(NodeId, u64)>,
}

impl TraversalScratch {
    /// Allocates scratch for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        TraversalScratch {
            fwd: StampedBfsState::new(n),
            bwd: StampedBfsState::new(n),
            path: Vec::with_capacity(n),
            order_fwd: Vec::with_capacity(n),
            order_bwd: Vec::with_capacity(n),
            levels_fwd: Vec::with_capacity(n + 2),
            levels_bwd: Vec::with_capacity(n + 2),
            cut: Vec::with_capacity(n),
        }
    }

    /// Resets both directions and all buffers for a new sample.
    pub fn reset(&mut self) {
        self.fwd.reset();
        self.bwd.reset();
        self.path.clear();
        self.order_fwd.clear();
        self.order_bwd.clear();
        self.levels_fwd.clear();
        self.levels_bwd.clear();
        self.cut.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_reports_unreached() {
        let mut st = StampedBfsState::new(4);
        st.reset();
        for v in 0..4 {
            assert_eq!(st.dist(v), UNREACHED);
            assert_eq!(st.sigma(v), 0);
            assert!(!st.reached(v));
        }
    }

    #[test]
    fn visit_and_reset_invalidate() {
        let mut st = StampedBfsState::new(4);
        st.reset();
        st.visit(2, 5, 7);
        assert_eq!(st.dist(2), 5);
        assert_eq!(st.sigma(2), 7);
        assert!(st.reached(2));
        st.reset();
        assert_eq!(st.dist(2), UNREACHED);
        assert_eq!(st.sigma(2), 0);
        assert!(!st.reached(2));
    }

    #[test]
    fn add_sigma_accumulates() {
        let mut st = StampedBfsState::new(2);
        st.reset();
        st.visit(0, 0, 1);
        st.add_sigma(0, 3);
        assert_eq!(st.sigma(0), 4);
    }

    #[test]
    fn settle_or_merge_matches_visit_semantics() {
        let mut st = StampedBfsState::new(3);
        st.reset();
        assert!(st.settle_or_merge(1, 2, 5));
        // Same distance: merge.
        assert!(!st.settle_or_merge(1, 2, 3));
        assert_eq!(st.sigma(1), 8);
        // Larger distance: ignored.
        assert!(!st.settle_or_merge(1, 3, 100));
        assert_eq!(st.sigma(1), 8);
        assert_eq!(st.dist(1), 2);
    }

    #[test]
    fn round_wrap_clears_stamps() {
        let mut st = StampedBfsState::new(2);
        st.reset();
        st.visit(0, 1, 1);
        st.round = u32::MAX; // force the wrap path
        st.reset();
        assert!(!st.reached(0));
        st.visit(1, 2, 2);
        assert_eq!(st.dist(1), 2);
    }

    /// Force a *natural* stamp wrap with a `u8` stamp: without the full clear
    /// on wrap, the stamp written in round `r` would alias round `r` of the
    /// next stamp cycle and resurrect stale distances.
    #[test]
    fn u8_stamp_survives_natural_wraparound() {
        let mut st: StampedState<u8> = StampedState::new(4);
        // Visit vertex 3 during round 7 of the first stamp cycle.
        for _ in 0..7 {
            st.reset();
        }
        st.visit(3, 42, 9);
        assert_eq!(st.dist(3), 42);
        // Run resets through the u8 wrap and back around to round 7 of the
        // second cycle: 255 rounds per cycle, so 255 more resets land the
        // round counter exactly where vertex 3's stale stamp sits.
        for _ in 0..255 {
            st.reset();
            assert!(!st.reached(3), "stale stamp resurrected after wrap");
        }
        // A second full cycle for good measure.
        for _ in 0..255 {
            st.reset();
            assert!(!st.reached(3));
            assert_eq!(st.dist(3), UNREACHED);
            assert_eq!(st.sigma(3), 0);
        }
        // The state still works normally after two wraps.
        st.visit(3, 1, 2);
        assert_eq!(st.dist(3), 1);
        assert_eq!(st.sigma(3), 2);
    }

    #[test]
    fn scratch_reset_clears_everything() {
        let mut sc = TraversalScratch::new(3);
        sc.reset();
        sc.fwd.visit(0, 0, 1);
        sc.bwd.visit(2, 0, 1);
        sc.path.push(1);
        sc.order_fwd.push(0);
        sc.order_bwd.push(2);
        sc.levels_fwd.push(0);
        sc.levels_bwd.push(0);
        sc.cut.push((1, 1));
        sc.reset();
        assert!(!sc.fwd.reached(0));
        assert!(!sc.bwd.reached(2));
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
            st.reset();
            let v = (r % 8) as NodeId;
            st.visit(v, r, 1);
            assert_eq!(st.dist(v), r);
            // All other vertices must read unreached.
            for u in 0..8 {
                if u != v {
                    assert!(!st.reached(u));
                }
            }
        }
    }
}
