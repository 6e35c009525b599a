//! World-health bookkeeping for the crash-fault layer.
//!
//! One [`WorldHealth`] is shared by every communicator of a simulated MPI
//! world (the world engine and all of its `split`/`shrink` descendants), so
//! a rank declared dead on any communicator is visible to waiters on all of
//! them — the property that keeps the hierarchical drivers deadlock-free
//! when a failure is first observed on a sibling communicator.
//!
//! Two member states matter to a waiter:
//!
//! * **dead** — the rank hit its plan-scheduled crash point and will never
//!   join another operation;
//! * **recovering** — the rank abandoned its current program point to enter
//!   [`crate::Communicator::shrink`] and will never join *old* (pre-shrink)
//!   operations, though it is still alive.
//!
//! An operation wait fails (with [`crate::CommError::RankFailed`]) exactly
//! when some member has joined neither state-wise nor literally: a member in
//! `dead ∪ recovering` that has not joined the op never will, so the op can
//! never complete. Completion itself remains "all members joined" — failure
//! detection only short-circuits waits that are provably stuck, which is
//! what keeps perturbed-run outcomes a pure function of `(plan, seed)`.
//!
//! # The join gate (elastic grow)
//!
//! The registry also carries the world's **join gate** — the handshake
//! between standby ranks (spawned by [`crate::Universe::run_elastic`] but
//! not yet members of any communicator) and a grow generation admitting
//! them. Three standby states matter:
//!
//! * **standby** — registered at launch, waiting for admission. Which ranks
//!   a grow admits is decided from this registry (the `k` smallest standby
//!   world ranks), *not* from thread arrival order, so admission is a pure
//!   function of `(plan, seed)`;
//! * **joining** — admitted by a grow generation that published the rank's
//!   ticket (child engine + new rank) but not yet confirmed; a waiter that
//!   sees a joining member absent from an op keeps waiting (it is alive and
//!   en route), which is automatic since joining ranks are neither dead nor
//!   recovering;
//! * **confirmed** — the standby picked up its ticket and owns a
//!   communicator handle; the gate forgets it.
//!
//! Closing the gate (end of run) releases every never-admitted standby with
//! a typed error instead of leaving it blocked forever.

use crate::engine::Engine;
use crate::error::CommError;
use crate::fault::CrashPoint;
use crate::lock;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Re-check period of a blocked admission wait (matches the engine's wait
/// slice).
const JOIN_WAIT_SLICE: Duration = Duration::from_millis(5);

/// Liveness registry shared by all communicators of one world.
pub(crate) struct WorldHealth {
    state: Mutex<HealthState>,
    /// Wakes standby ranks blocked in [`WorldHealth::wait_admission`] when a
    /// ticket is delivered or the gate closes.
    join_cv: Condvar,
}

#[derive(Default)]
struct HealthState {
    dead: BTreeSet<usize>,
    recovering: BTreeSet<usize>,
    /// Registered standby world ranks not yet taken by any grow.
    standby: BTreeSet<usize>,
    /// Admitted-but-unconfirmed world ranks (between grow and ticket pickup).
    joining: BTreeSet<usize>,
    /// Admission tickets: world rank → (child engine, rank within it).
    admitted: BTreeMap<usize, (Arc<Engine>, usize)>,
    /// Latched once the run ends; never-admitted standbys are released.
    gate_closed: bool,
}

impl WorldHealth {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WorldHealth { state: Mutex::new(HealthState::default()), join_cv: Condvar::new() })
    }

    /// Declares `world_rank` dead (idempotent, never reversed).
    pub(crate) fn mark_dead(&self, world_rank: usize) {
        lock(&self.state).dead.insert(world_rank);
    }

    #[cfg(test)]
    pub(crate) fn is_dead(&self, world_rank: usize) -> bool {
        lock(&self.state).dead.contains(&world_rank)
    }

    /// Marks `world_rank` as having abandoned pre-shrink operations.
    pub(crate) fn begin_recovery(&self, world_rank: usize) {
        lock(&self.state).recovering.insert(world_rank);
    }

    /// Clears the recovering flag of every shrink survivor (they have all
    /// joined the shrink generation, so no waiter can still be blocked on an
    /// operation they abandoned).
    pub(crate) fn end_recovery(&self, survivors: &[usize]) {
        let mut st = lock(&self.state);
        for r in survivors {
            st.recovering.remove(r);
        }
    }

    /// The smallest world rank in `members` that has not joined (per
    /// `joined`, indexed like `members`) and never will — i.e. is dead or
    /// recovering. `None` means every absent member may still arrive.
    pub(crate) fn first_stuck_member(&self, members: &[usize], joined: &[bool]) -> Option<usize> {
        let st = lock(&self.state);
        members
            .iter()
            .zip(joined)
            .filter(|&(wr, &j)| !j && (st.dead.contains(wr) || st.recovering.contains(wr)))
            .map(|(&wr, _)| wr)
            .min()
    }

    /// Whether every member either joined or is dead (the completion rule of
    /// a shrink generation, which excuses only the genuinely dead — a
    /// recovering member is en route to this very shrink and must join it).
    pub(crate) fn shrink_complete(&self, members: &[usize], joined: &[bool]) -> bool {
        let st = lock(&self.state);
        members.iter().zip(joined).all(|(wr, &j)| j || st.dead.contains(wr))
    }

    // ------------------------------------------------------------------
    // Join gate
    // ------------------------------------------------------------------

    /// Registers `world_rank` as a standby available for admission. Called
    /// by the universe at launch, before any rank thread runs, so the
    /// standby pool is fixed before the first grow could consult it.
    pub(crate) fn register_standby(&self, world_rank: usize) {
        lock(&self.state).standby.insert(world_rank);
    }

    /// Takes up to `k` standbys for admission — always the smallest
    /// registered world ranks, so the admitted set is deterministic. The
    /// taken ranks move to the *joining* state until they confirm.
    pub(crate) fn take_standbys(&self, k: usize) -> Vec<usize> {
        let mut st = lock(&self.state);
        let picked: Vec<usize> = st.standby.iter().take(k).copied().collect();
        for &wr in &picked {
            st.standby.remove(&wr);
            st.joining.insert(wr);
        }
        picked
    }

    /// Publishes the admission ticket of `world_rank`: the grown child
    /// engine and the rank's position within it. Wakes the standby's
    /// [`WorldHealth::wait_admission`].
    pub(crate) fn deliver_admission(&self, world_rank: usize, engine: Arc<Engine>, rank: usize) {
        lock(&self.state).admitted.insert(world_rank, (engine, rank));
        self.join_cv.notify_all();
    }

    /// Latches the gate shut (idempotent): every standby still waiting
    /// without a ticket is released with an error. Called by the universe
    /// once all founding ranks have returned — no further grow can happen.
    pub(crate) fn close_join_gate(&self) {
        lock(&self.state).gate_closed = true;
        self.join_cv.notify_all();
    }

    /// Blocks until `world_rank`'s admission ticket arrives (confirming the
    /// handshake and returning the ticket) or the gate closes without one
    /// (`None`). Undelivered tickets win over a closed gate: a standby
    /// admitted by the run's last grow still gets its communicator.
    pub(crate) fn wait_admission(&self, world_rank: usize) -> Option<(Arc<Engine>, usize)> {
        let mut st = lock(&self.state);
        loop {
            if let Some(ticket) = st.admitted.remove(&world_rank) {
                st.joining.remove(&world_rank); // confirm: the handshake is done
                return Some(ticket);
            }
            if st.gate_closed {
                st.standby.remove(&world_rank);
                return None;
            }
            self.join_cv.wait_for(&mut st, JOIN_WAIT_SLICE);
        }
    }
}

/// Per-rank crash schedule derived from the [`crate::FaultPlan`]: a logical
/// clock of collective joins and unsuccessful polls, shared (via `Arc`) by
/// every communicator and request the rank owns, so the crash fires at the
/// plan's exact program point regardless of which communicator the rank is
/// using. Created by [`crate::Universe`]; absent without a scheduled crash.
pub(crate) struct RankCrashState {
    world_rank: usize,
    point: CrashPoint,
    health: Arc<WorldHealth>,
    joins: AtomicU64,
    polls: AtomicU64,
    fired: AtomicBool,
}

impl RankCrashState {
    pub(crate) fn new(world_rank: usize, point: CrashPoint, health: Arc<WorldHealth>) -> Arc<Self> {
        Arc::new(RankCrashState {
            world_rank,
            point,
            health,
            joins: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        })
    }

    fn die(&self) -> CommError {
        self.fired.store(true, Ordering::Relaxed);
        self.health.mark_dead(self.world_rank);
        CommError::RankFailed { rank: self.world_rank }
    }

    /// Called before each collective join (shrink excluded). The rank dies
    /// *instead of* joining its scheduled collective, counted across every
    /// communicator it owns.
    pub(crate) fn on_collective(&self) -> Result<(), CommError> {
        if self.fired.load(Ordering::Relaxed) {
            return Err(CommError::RankFailed { rank: self.world_rank });
        }
        let nth = self.joins.fetch_add(1, Ordering::Relaxed);
        match self.point {
            CrashPoint::AtCollective(s) if nth >= s => Err(self.die()),
            _ => Ok(()),
        }
    }

    /// Called on each unsuccessful request poll (one logical-clock tick).
    /// Under a plan the cumulative poll count at any program point is a pure
    /// function of the plan's injected delays, so an `AfterPolls` crash
    /// lands mid-overlap (e.g. during an in-flight reduction) and is still
    /// exactly reproducible.
    pub(crate) fn on_poll(&self) -> Result<(), CommError> {
        if self.fired.load(Ordering::Relaxed) {
            return Err(CommError::RankFailed { rank: self.world_rank });
        }
        let n = self.polls.fetch_add(1, Ordering::Relaxed) + 1;
        match self.point {
            CrashPoint::AfterPolls(k) if n >= k => Err(self.die()),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_fires_at_the_scheduled_collective_and_marks_dead() {
        let health = WorldHealth::new();
        let cs = RankCrashState::new(2, CrashPoint::AtCollective(3), health.clone());
        for _ in 0..3 {
            assert!(cs.on_collective().is_ok());
        }
        assert!(!health.is_dead(2));
        assert_eq!(cs.on_collective(), Err(CommError::RankFailed { rank: 2 }));
        assert!(health.is_dead(2));
        // Once fired, every further checkpoint keeps failing.
        assert!(cs.on_poll().is_err());
        assert!(cs.on_collective().is_err());
    }

    #[test]
    fn poll_crash_counts_cumulatively() {
        let health = WorldHealth::new();
        let cs = RankCrashState::new(0, CrashPoint::AfterPolls(5), health.clone());
        for _ in 0..4 {
            assert!(cs.on_poll().is_ok());
        }
        assert_eq!(cs.on_poll(), Err(CommError::RankFailed { rank: 0 }));
        assert!(health.is_dead(0));
    }

    #[test]
    fn stuck_member_detection_respects_join_state() {
        let health = WorldHealth::new();
        let members = [0usize, 3, 5];
        // Nobody dead: absent members may still arrive.
        assert_eq!(health.first_stuck_member(&members, &[false, false, false]), None);
        health.mark_dead(5);
        // Dead but already joined: the op can still complete.
        assert_eq!(health.first_stuck_member(&members, &[false, false, true]), None);
        // Dead and not joined: provably stuck.
        assert_eq!(health.first_stuck_member(&members, &[true, false, false]), Some(5));
        health.begin_recovery(3);
        assert_eq!(health.first_stuck_member(&members, &[true, false, false]), Some(3));
        health.end_recovery(&[3]);
        assert_eq!(health.first_stuck_member(&members, &[true, false, false]), Some(5));
    }

    #[test]
    fn standbys_are_taken_smallest_first_and_deterministically() {
        let health = WorldHealth::new();
        for wr in [7usize, 4, 9, 5] {
            health.register_standby(wr);
        }
        assert_eq!(health.take_standbys(2), vec![4, 5]);
        assert_eq!(health.take_standbys(5), vec![7, 9], "pool exhausts without panicking");
        assert_eq!(health.take_standbys(1), Vec::<usize>::new());
    }

    #[test]
    fn closed_gate_releases_unadmitted_standbys() {
        let health = WorldHealth::new();
        health.register_standby(3);
        health.close_join_gate();
        assert!(health.wait_admission(3).is_none());
        // Idempotent.
        health.close_join_gate();
        assert!(health.wait_admission(3).is_none());
    }

    #[test]
    fn delivered_ticket_wins_over_a_closed_gate() {
        let health = WorldHealth::new();
        health.register_standby(2);
        assert_eq!(health.take_standbys(1), vec![2]);
        let engine = Engine::new(1);
        health.deliver_admission(2, engine, 1);
        health.close_join_gate();
        let (_, rank) = health.wait_admission(2).expect("ticket delivered before close");
        assert_eq!(rank, 1);
    }

    #[test]
    fn shrink_completion_excuses_only_the_dead() {
        let health = WorldHealth::new();
        let members = [0usize, 1, 2];
        assert!(!health.shrink_complete(&members, &[true, false, true]));
        health.begin_recovery(1); // recovering must still join
        assert!(!health.shrink_complete(&members, &[true, false, true]));
        health.mark_dead(1);
        assert!(health.shrink_complete(&members, &[true, false, true]));
    }
}
