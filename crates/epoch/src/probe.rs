//! Cross-process epoch-distance invariant probe.
//!
//! The IPDPS 2020 paper's central soundness argument for Algorithm 2
//! (Section IV-C) is that the non-blocking MPI reduction acts as a barrier:
//! "the epoch numbers in different processes cannot differ by more than
//! one". [`CrossEpochProbe`] turns that sentence into a runtime check that
//! the chaos conformance suite threads through `kadabra-core`'s MPI drivers:
//! each simulated rank reports when it *begins* and when it *completes* a
//! global round, and every completion event audits all ranks' current
//! rounds against the gap-≤-1 bound.
//!
//! Why the check is sound (no false positives from racy reads): a rank
//! completes round `e` only after every rank has joined round `e`'s
//! collective, and each rank stores its "current round" *before* joining.
//! The collective engine orders the join of each rank before any rank's
//! completion observation (both run under the engine's lock), so by
//! happens-before the observer reads every rank's current round as at least
//! `e` — and no rank can have passed `e + 1`, because completing `e + 1`
//! would require the observer itself to have joined round `e + 1` already.
//! Observed rounds outside `{e, e + 1}` therefore indicate a real protocol
//! violation, not a stale read.

use crate::sync::{AtomicU32, AtomicU64, Ordering};
use crossbeam::utils::CachePadded;

/// Sentinel marking a retired (crashed) rank in `current`; retired ranks
/// are excluded from the gap audit.
const RETIRED: u32 = u32::MAX;

/// Shared probe auditing the cross-process epoch gap at every completed
/// reduction point. One instance is shared (via `Arc`) by all simulated
/// ranks of a run; all methods are safe to call concurrently.
pub struct CrossEpochProbe {
    /// Per-rank current round, stored as `round + 1` (`0` = not started,
    /// [`RETIRED`] = excluded after a crash).
    current: Vec<CachePadded<AtomicU32>>,
    /// Largest gap any completion event observed.
    max_gap: AtomicU32,
    /// Completion events audited.
    observations: AtomicU64,
    /// Completion events whose observed gap exceeded 1.
    violations: AtomicU64,
}

impl CrossEpochProbe {
    /// A probe for `num_ranks` simulated processes, all unstarted.
    pub fn new(num_ranks: usize) -> Self {
        assert!(num_ranks >= 1, "probe needs at least one rank");
        let mut current = Vec::with_capacity(num_ranks);
        current.resize_with(num_ranks, || CachePadded::new(AtomicU32::new(0)));
        CrossEpochProbe {
            current,
            max_gap: AtomicU32::new(0),
            observations: AtomicU64::new(0),
            violations: AtomicU64::new(0),
        }
    }

    /// A probe for an elastic world: ranks `0..active` start unstarted and
    /// audited, ranks `active..num_ranks` (the standby pool) start excluded
    /// exactly as if retired — their counters stay frozen until a grow
    /// [`CrossEpochProbe::admit`]s them mid-run.
    pub fn with_standbys(num_ranks: usize, active: usize) -> Self {
        assert!(active >= 1 && active <= num_ranks, "active ranks out of range");
        let p = CrossEpochProbe::new(num_ranks);
        for r in active..num_ranks {
            p.retire(r);
        }
        p
    }

    /// Admits `rank` into the audit at global round `round` — the elastic
    /// grow's inverse of [`CrossEpochProbe::retire`]. The newcomer enters
    /// already *in* the round the survivors hand it (the post-grow round
    /// handoff), so the gap invariant holds across the membership change
    /// without a grace period. Idempotent per (rank, round): any number of
    /// survivors may report the same admission.
    pub fn admit(&self, rank: usize, round: u32) {
        // Release, like `begin_round`: the store is published to observers
        // by the collective join that follows the admission.
        self.current[rank].store(round + 1, Ordering::Release);
    }

    /// Number of ranks the probe watches.
    pub fn num_ranks(&self) -> usize {
        self.current.len()
    }

    /// Rank `rank` begins global round `round`. Must be called before the
    /// rank joins the round's first collective (the happens-before argument
    /// in the module docs relies on this ordering).
    pub fn begin_round(&self, rank: usize, round: u32) {
        // Release: the store must be ordered before the rank's subsequent
        // collective join, whose lock hand-off publishes it to observers.
        self.current[rank].store(round + 1, Ordering::Release);
    }

    /// Permanently excludes `rank` from the gap audit: its round counter
    /// froze when it crashed, which is not a protocol violation by the
    /// survivors. Called by each survivor after a communicator shrink for
    /// every member the shrink excluded (idempotent — any number of
    /// survivors may report the same loss). The invariant then continues to
    /// be enforced over the surviving ranks only.
    pub fn retire(&self, rank: usize) {
        self.current[rank].store(RETIRED, Ordering::Release);
    }

    /// Rank `rank` observed completion of global round `round` (its
    /// reduction/broadcast chain fully resolved). Audits every started,
    /// non-retired rank's current round against `{round, round + 1}` and
    /// returns the observed gap (max − min of current rounds).
    pub fn complete_round(&self, rank: usize, round: u32) -> u32 {
        debug_assert!(
            // Own-rank read in a debug assertion: `begin_round(rank, …)`
            // stored this slot on the same thread, so program order suffices.
            self.current[rank].load(Ordering::Relaxed) > round,
            "rank {rank} completed round {round} it never began"
        );
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for slot in self.current.iter() {
            let c = slot.load(Ordering::Acquire);
            if c == RETIRED {
                continue;
            }
            if c == 0 {
                // A rank that never began a round while another completes
                // one is itself a gap violation past round 0; treat it as
                // round 0 so the gap computation reflects it.
                lo = 0;
                continue;
            }
            let r = c - 1;
            lo = lo.min(r);
            hi = hi.max(r);
        }
        let gap = hi.saturating_sub(lo);
        self.observations.fetch_add(1, Ordering::Relaxed);
        if gap > 1 || lo < round || hi > round + 1 {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        // The loom shim has no fetch_max; a CAS loop is equivalent.
        let mut seen = self.max_gap.load(Ordering::Relaxed);
        while gap > seen {
            match self.max_gap.compare_exchange(seen, gap, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => seen = actual,
            }
        }
        gap
    }

    /// Largest cross-rank round gap observed at any completion point.
    pub fn max_gap(&self) -> u32 {
        self.max_gap.load(Ordering::Relaxed)
    }

    /// Number of completion events audited so far.
    pub fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }

    /// Number of audits that violated the epoch-distance invariant.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Panics (with `context`, e.g. a fault-plan summary for reproduction)
    /// unless the probe audited at least one completion and saw no
    /// violation — the assertion the chaos suite runs after every
    /// perturbed execution.
    pub fn assert_clean(&self, context: &str) {
        let obs = self.observations();
        assert!(obs > 0, "epoch probe never observed a completed reduction [{context}]");
        assert_eq!(
            self.violations(),
            0,
            "epoch-distance invariant violated: max cross-process gap {} over {obs} \
             observations [{context}]",
            self.max_gap()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_rounds_keep_gap_zero() {
        let p = CrossEpochProbe::new(4);
        for round in 0..5 {
            for r in 0..4 {
                p.begin_round(r, round);
            }
            for r in 0..4 {
                assert_eq!(p.complete_round(r, round), 0);
            }
        }
        assert_eq!(p.max_gap(), 0);
        assert_eq!(p.observations(), 20);
        p.assert_clean("lockstep");
    }

    #[test]
    fn one_round_skew_is_within_the_invariant() {
        let p = CrossEpochProbe::new(3);
        for r in 0..3 {
            p.begin_round(r, 0);
        }
        // Rank 0 finishes round 0 and moves on while 1 and 2 lag in it —
        // exactly the skew the non-blocking reduction permits.
        assert_eq!(p.complete_round(0, 0), 0);
        p.begin_round(0, 1);
        assert_eq!(p.complete_round(1, 0), 1);
        assert_eq!(p.complete_round(2, 0), 1);
        assert_eq!(p.max_gap(), 1);
        p.assert_clean("±1 skew");
    }

    #[test]
    fn gap_of_two_is_flagged() {
        // Negative control: fabricate the schedule the invariant forbids —
        // rank 0 two rounds ahead of rank 1 — and check the probe trips.
        let p = CrossEpochProbe::new(2);
        p.begin_round(0, 0);
        p.begin_round(1, 0);
        p.begin_round(0, 1);
        p.begin_round(0, 2);
        assert_eq!(p.complete_round(0, 2), 2);
        assert_eq!(p.max_gap(), 2);
        assert_eq!(p.violations(), 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.assert_clean("negative control");
        }));
        assert!(r.is_err(), "assert_clean must panic on a recorded violation");
    }

    #[test]
    fn unstarted_rank_counts_as_behind() {
        let p = CrossEpochProbe::new(2);
        p.begin_round(0, 0);
        p.begin_round(0, 1);
        // Rank 1 never began anything; rank 0 completing round 1 must see
        // it lagging below the {round, round+1} window.
        assert_eq!(p.complete_round(0, 1), 1);
        assert_eq!(p.violations(), 1);
    }

    #[test]
    fn retired_ranks_are_excluded_from_the_audit() {
        let p = CrossEpochProbe::new(3);
        for r in 0..3 {
            p.begin_round(r, 0);
        }
        for r in 0..3 {
            p.complete_round(r, 0);
        }
        // Rank 2 crashes; its counter froze at round 0. Survivors retire it
        // after the shrink and advance many rounds without tripping the
        // audit.
        p.retire(2);
        for round in 1..6 {
            p.begin_round(0, round);
            p.begin_round(1, round);
            assert_eq!(p.complete_round(0, round), 0);
            assert_eq!(p.complete_round(1, round), 0);
        }
        assert_eq!(p.violations(), 0);
        p.assert_clean("retired rank");
    }

    #[test]
    fn standbys_are_excluded_until_admitted() {
        // Elastic world: 2 active ranks, 1 standby. The standby's frozen
        // counter must not trip the audit while the active ranks advance;
        // once admitted mid-run it is audited like any founder.
        let p = CrossEpochProbe::with_standbys(3, 2);
        for round in 0..3 {
            p.begin_round(0, round);
            p.begin_round(1, round);
            assert_eq!(p.complete_round(0, round), 0);
            assert_eq!(p.complete_round(1, round), 0);
        }
        // Grow at round 3: rank 2 joins in-round.
        p.admit(2, 3);
        for round in 3..6 {
            for r in 0..3 {
                p.begin_round(r, round);
            }
            for r in 0..3 {
                assert_eq!(p.complete_round(r, round), 0);
            }
        }
        assert_eq!(p.violations(), 0);
        p.assert_clean("standby admission");
    }

    #[test]
    fn admitted_rank_that_stalls_is_audited() {
        // Negative control for `admit`: once admitted, a newcomer that
        // freezes is a real violation, not an excluded standby.
        let p = CrossEpochProbe::with_standbys(2, 1);
        p.begin_round(0, 0);
        p.complete_round(0, 0);
        p.admit(1, 1);
        // Rank 0 races two rounds ahead while the newcomer sits in round 1.
        p.begin_round(0, 1);
        p.begin_round(0, 2);
        p.begin_round(0, 3);
        assert_eq!(p.complete_round(0, 3), 2);
        assert_eq!(p.violations(), 1);
    }

    #[test]
    fn completion_out_of_window_is_flagged_even_with_small_gap() {
        // All ranks sit in round 5 but a completion claims round 3: the gap
        // is 0, yet the window check {3, 4} must still flag it.
        let p = CrossEpochProbe::new(2);
        for r in 0..2 {
            p.begin_round(r, 5);
        }
        assert_eq!(p.complete_round(0, 3), 0);
        assert_eq!(p.violations(), 1);
    }
}
