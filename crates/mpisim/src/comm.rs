//! Communicators and typed collective operations.
//!
//! Every collective returns a `Result`: the error side is a typed
//! [`CommError`](crate::CommError), never a panic. A
//! [`CommError::RankFailed`](crate::CommError::RankFailed) marks a dead
//! member and is recoverable via [`Communicator::shrink`] —
//! shrink-and-continue in the ULFM sense; `Timeout`/`Poisoned` indicate an
//! algorithm bug and carry the `(plan, seed)` replay pair.

use crate::engine::{Engine, OpKind, Request};
use crate::error::CommError;
use crate::health::RankCrashState;
use kadabra_telemetry::{CounterId, EventWriter, MarkId};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Accumulator downcast helpers
// ---------------------------------------------------------------------------
//
// The engine keys op instances by sequence number and `OpKind` and poisons
// the communicator on kind mismatches, so by the time a deposit or collect
// closure runs, the accumulator's concrete type is pinned by the collective
// that created it. A failed downcast (or absent accumulator where the
// protocol guarantees one) is therefore an engine bug, not recoverable
// state; concentrating the panics here keeps the call sites honest.

/// Views a deposited accumulator as its concrete type.
#[expect(clippy::expect_used, reason = "type pinned by (seq, OpKind); see module note")]
fn acc_mut<T: 'static>(boxed: &mut Box<dyn Any + Send>) -> &mut T {
    boxed.downcast_mut::<T>().expect("collective accumulator type")
}

/// Views the (guaranteed-present) accumulator slot as its concrete type.
#[expect(clippy::expect_used, reason = "first join deposits before finalize/collect run")]
fn acc_slot_mut<T: 'static>(acc: &mut Option<Box<dyn Any + Send>>) -> &mut T {
    acc_mut(acc.as_mut().expect("collective accumulator present"))
}

/// Reads the (guaranteed-present) accumulator slot as its concrete type.
#[expect(
    clippy::expect_used,
    reason = "first join deposits before collect runs; type pinned by (seq, OpKind), see module \
              note"
)]
fn acc_slot_ref<T: 'static>(acc: &Option<Box<dyn Any + Send>>) -> &T {
    acc.as_ref()
        .expect("collective accumulator present")
        .downcast_ref::<T>()
        .expect("collective accumulator type")
}

/// Takes the accumulator out of the slot (single-consumer collectives).
#[expect(clippy::expect_used, reason = "type pinned by (seq, OpKind); see module note")]
fn acc_take<T: 'static>(acc: &mut Option<Box<dyn Any + Send>>) -> T {
    #[expect(
        clippy::expect_used,
        reason = "the engine hands each op's slot to exactly one taker (the root), and the deposit \
                  precedes any collect"
    )]
    let boxed = acc.take().expect("collective accumulator present");
    *boxed.downcast::<T>().expect("collective accumulator type")
}

/// A simulated MPI communicator: a rank number plus a handle on the shared
/// collective engine. Cloneable only via [`Communicator::split`] /
/// [`Communicator::shrink`] (each rank must own exactly one handle per
/// communicator, mirroring MPI).
pub struct Communicator {
    engine: Arc<Engine>,
    rank: usize,
    seq: Cell<u64>,
    /// Next shrink generation of this communicator (advanced on success, so
    /// repeated failures shrink through distinct generations).
    shrink_gen: Cell<u64>,
    /// Next grow generation (a separate stream from `shrink_gen`: the two
    /// use disjoint reserved key spaces in the engine's slot map).
    grow_gen: Cell<u64>,
    /// Crash schedule of the OS thread driving this rank (shared across all
    /// of the rank's communicators; None without a scheduled crash).
    crash: Option<Arc<RankCrashState>>,
    /// Telemetry writer of the thread driving this rank (None = untraced).
    /// `RefCell`, not a lock: the communicator is single-threaded by
    /// construction (`!Sync` via `seq`), mirroring MPI's one-handle-per-rank
    /// ownership.
    tracer: RefCell<Option<EventWriter>>,
}

/// color -> (engine, member parent ranks in communicator order).
type SplitGroups = BTreeMap<u32, (Arc<Engine>, Vec<usize>)>;

/// Accumulator for `Split` collectives: submissions, then per-color results.
struct SplitAcc {
    submissions: Vec<(usize, u32, i64)>, // (parent rank, color, key)
    groups: Option<SplitGroups>,
}

impl Communicator {
    pub(crate) fn new(
        engine: Arc<Engine>,
        rank: usize,
        crash: Option<Arc<RankCrashState>>,
    ) -> Self {
        Communicator {
            engine,
            rank,
            seq: Cell::new(0),
            shrink_gen: Cell::new(0),
            grow_gen: Cell::new(0),
            crash,
            tracer: RefCell::new(None),
        }
    }

    /// Attaches the telemetry writer of the thread driving this rank. Every
    /// collective then records `CollectiveStart`/`CollectiveComplete`
    /// markers and overlapped polls tick the writer's logical clock. Derived
    /// communicators
    /// ([`Communicator::split`], [`Communicator::shrink`]) inherit the
    /// tracer.
    pub fn set_tracer(&self, writer: EventWriter) {
        *self.tracer.borrow_mut() = Some(writer);
    }

    /// This rank joined collective `seq`.
    fn trace_join(&self, seq: u64) {
        if let Some(w) = self.tracer.borrow().as_ref() {
            w.mark(MarkId::CollectiveStart, seq);
            w.count(CounterId::Collectives, 1);
        }
    }

    /// A blocking collective resolved at this rank (non-blocking requests
    /// record their own completion).
    fn trace_complete(&self, seq: u64) {
        if let Some(w) = self.tracer.borrow().as_ref() {
            w.mark(MarkId::CollectiveComplete, seq);
        }
    }

    /// Tracer handle for a [`Request`] (same thread, so cloning is safe).
    fn tracer_clone(&self) -> Option<EventWriter> {
        self.tracer.borrow().clone()
    }

    /// Crash checkpoint before a collective join: a rank whose fault plan
    /// schedules a crash here dies *instead of* joining (its peers then see
    /// [`CommError::RankFailed`] on the op).
    fn crash_checkpoint(&self) -> Result<(), CommError> {
        match &self.crash {
            Some(c) => c.on_collective(),
            None => Ok(()),
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.engine.size
    }

    /// This process's rank in the original world communicator (stable across
    /// [`Communicator::split`] and [`Communicator::shrink`] — the identity
    /// that [`CommError::RankFailed`] reports).
    pub fn world_rank(&self) -> usize {
        self.engine.members[self.rank]
    }

    /// World ranks of the communicator's members, in rank order.
    pub fn members(&self) -> &[usize] {
        &self.engine.members
    }

    /// Total payload bytes contributed to this communicator's collectives by
    /// all ranks so far (a shrunk communicator carries its parent's tally).
    pub fn bytes_transferred(&self) -> u64 {
        self.engine.bytes_transferred()
    }

    /// Plan-hash salt of the underlying engine (test hook for the salt
    /// independence regression in `tests.rs`).
    #[cfg(test)]
    pub(crate) fn salt(&self) -> u64 {
        self.engine.salt
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Completion-observation delay (in polls of the request's logical
    /// clock) the fault plan injects for this rank's view of op `seq`;
    /// 0 without a plan.
    fn injected_delay(&self, seq: u64) -> u64 {
        match &self.engine.plan {
            Some(p) => p.collective_delay(self.engine.salt, self.rank, seq),
            None => 0,
        }
    }

    /// The [`crate::FaultPlan`] this communicator runs under, if any.
    pub fn fault_plan(&self) -> Option<&crate::FaultPlan> {
        self.engine.plan.as_deref()
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Blocking barrier (`MPI_Barrier`).
    pub fn barrier(&self) -> Result<(), CommError> {
        self.ibarrier()?.wait()
    }

    /// Non-blocking barrier (`MPI_Ibarrier`). The paper's final
    /// implementation (Section IV-F) pairs this with a blocking reduce.
    pub fn ibarrier(&self) -> Result<Request<()>, CommError> {
        self.crash_checkpoint()?;
        let seq = self.next_seq();
        self.engine.join(self.rank, seq, OpKind::Barrier, |_acc| {}, |_acc| {})?;
        self.trace_join(seq);
        Ok(Request::new(
            self.engine.clone(),
            seq,
            self.injected_delay(seq),
            Box::new(|_acc| {}),
            self.crash.clone(),
            self.tracer_clone(),
        ))
    }

    // ------------------------------------------------------------------
    // Reduce
    // ------------------------------------------------------------------

    /// Blocking element-wise sum reduction of `u64` vectors to `root`
    /// (`MPI_Reduce` with `MPI_SUM`). Returns `Some(total)` at the root,
    /// `None` elsewhere. All ranks must pass vectors of equal length.
    pub fn reduce_sum_u64(&self, root: usize, data: &[u64]) -> Result<Option<Vec<u64>>, CommError> {
        self.ireduce_sum_u64(root, data)?.wait()
    }

    /// Non-blocking element-wise sum reduction (`MPI_Ireduce`). Completion
    /// (even at non-roots) requires all ranks to have joined — the
    /// "non-blocking barrier" property of Section IV-C.
    pub fn ireduce_sum_u64(
        &self,
        root: usize,
        data: &[u64],
    ) -> Result<Request<Option<Vec<u64>>>, CommError> {
        assert!(root < self.size(), "root out of range");
        self.crash_checkpoint()?;
        let seq = self.next_seq();
        self.engine.add_bytes(data.len() as u64 * 8);
        let expected_len = data.len();
        self.engine.join(
            self.rank,
            seq,
            OpKind::Reduce { root },
            |acc| match acc {
                None => *acc = Some(Box::new(data.to_vec())),
                Some(boxed) => {
                    let v = acc_mut::<Vec<u64>>(boxed);
                    assert_eq!(v.len(), expected_len, "reduce length mismatch across ranks");
                    for (a, &x) in v.iter_mut().zip(data) {
                        *a += x;
                    }
                }
            },
            |_acc| {},
        )?;
        self.trace_join(seq);
        let is_root = self.rank == root;
        Ok(Request::new(
            self.engine.clone(),
            seq,
            self.injected_delay(seq),
            Box::new(
                move |acc: &mut Option<Box<dyn Any + Send>>| {
                    if is_root {
                        Some(acc_take::<Vec<u64>>(acc))
                    } else {
                        None
                    }
                },
            ),
            self.crash.clone(),
            self.tracer_clone(),
        ))
    }

    /// Blocking element-wise sum all-reduce of `u64` vectors: every rank
    /// receives the total. Used for the calibration phase, where every rank
    /// derives the per-vertex failure probabilities from the same aggregated
    /// counts, and by recovery to rebuild the global state from survivor
    /// ledgers.
    pub fn allreduce_sum_u64(&self, data: &[u64]) -> Result<Vec<u64>, CommError> {
        self.crash_checkpoint()?;
        let seq = self.next_seq();
        self.engine.add_bytes(data.len() as u64 * 8);
        let expected_len = data.len();
        self.engine.join(
            self.rank,
            seq,
            OpKind::Allreduce,
            |acc| match acc {
                None => *acc = Some(Box::new(data.to_vec())),
                Some(boxed) => {
                    let v = acc_mut::<Vec<u64>>(boxed);
                    assert_eq!(v.len(), expected_len, "allreduce length mismatch across ranks");
                    for (a, &x) in v.iter_mut().zip(data) {
                        *a += x;
                    }
                }
            },
            |_acc| {},
        )?;
        self.trace_join(seq);
        let out = self.engine.wait_complete(seq, |acc| acc_slot_ref::<Vec<u64>>(acc).clone())?;
        self.trace_complete(seq);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Gather
    // ------------------------------------------------------------------

    /// Blocking gather of variable-length `u64` payloads to `root`
    /// (`MPI_Gatherv`): see [`Self::igatherv_u64`].
    pub fn gatherv_u64(&self, root: usize, data: &[u64]) -> Result<Option<Vec<u64>>, CommError> {
        self.igatherv_u64(root, data)?.wait()
    }

    /// Non-blocking gather of variable-length `u64` payloads to `root`
    /// (`MPI_Igatherv`). The root receives every rank's payload
    /// concatenated in rank order; the others receive `None`. Payloads may
    /// differ in length and may be empty. Like every collective it is
    /// crash-checked, takes one sequence number, counts its payload bytes,
    /// and completes only once all ranks have joined, after the plan's
    /// injected polls for this rank and sequence number.
    pub fn igatherv_u64(
        &self,
        root: usize,
        data: &[u64],
    ) -> Result<Request<Option<Vec<u64>>>, CommError> {
        assert!(root < self.size(), "root out of range");
        self.crash_checkpoint()?;
        let seq = self.next_seq();
        self.engine.add_bytes(data.len() as u64 * 8);
        let (rank, size) = (self.rank, self.size());
        self.engine.join(
            rank,
            seq,
            OpKind::Gather { root },
            |acc| {
                let parts = acc.get_or_insert_with(|| Box::new(vec![Vec::<u64>::new(); size]));
                acc_mut::<Vec<Vec<u64>>>(parts)[rank] = data.to_vec();
            },
            |_acc| {},
        )?;
        self.trace_join(seq);
        let is_root = rank == root;
        Ok(Request::new(
            self.engine.clone(),
            seq,
            self.injected_delay(seq),
            Box::new(
                move |acc: &mut Option<Box<dyn Any + Send>>| {
                    if is_root {
                        Some(acc_take::<Vec<Vec<u64>>>(acc).concat())
                    } else {
                        None
                    }
                },
            ),
            self.crash.clone(),
            self.tracer_clone(),
        ))
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Blocking broadcast of one `u64` from `root`; the root passes
    /// `Some(value)`, everyone else `None`; all ranks receive the value.
    pub fn bcast_u64(&self, root: usize, value: Option<u64>) -> Result<u64, CommError> {
        self.ibcast_u64(root, value)?.wait()
    }

    /// Non-blocking broadcast of one `u64` (`MPI_Ibcast`). Used to propagate
    /// the termination flag while overlapping sampling (Algorithm 1 line 16).
    pub fn ibcast_u64(&self, root: usize, value: Option<u64>) -> Result<Request<u64>, CommError> {
        assert!(root < self.size(), "root out of range");
        assert_eq!(
            value.is_some(),
            self.rank == root,
            "exactly the root must supply the broadcast value"
        );
        self.crash_checkpoint()?;
        let seq = self.next_seq();
        self.engine.add_bytes(8);
        self.engine.join(
            self.rank,
            seq,
            OpKind::Bcast { root },
            |acc| {
                if let Some(v) = value {
                    assert!(acc.is_none(), "two ranks claimed broadcast root");
                    *acc = Some(Box::new(v));
                }
            },
            |_acc| {},
        )?;
        self.trace_join(seq);
        Ok(Request::new(
            self.engine.clone(),
            seq,
            self.injected_delay(seq),
            Box::new(|acc: &mut Option<Box<dyn Any + Send>>| *acc_slot_ref::<u64>(acc)),
            self.crash.clone(),
            self.tracer_clone(),
        ))
    }

    // ------------------------------------------------------------------
    // Split
    // ------------------------------------------------------------------

    /// Splits the communicator (`MPI_Comm_split`): ranks with equal `color`
    /// form a new communicator; ranks within it are ordered by `(key, rank)`.
    ///
    /// Section IV-E of the paper builds two derived communicators this way:
    /// a node-local one (all ranks on one compute node) and a global one
    /// (the first rank of each node).
    pub fn split(&self, color: u32, key: i64) -> Result<Communicator, CommError> {
        self.crash_checkpoint()?;
        let seq = self.next_seq();
        let my = (self.rank, color, key);
        // Every rank captures identical (plan, salt, members, health);
        // whichever arrives last runs `finalize`, so child engines are
        // identical regardless of arrival order. Each color derives its own
        // salt so sibling communicators draw from independent delay streams.
        let plan = self.engine.plan.clone();
        let parent_salt = self.engine.salt;
        let parent_members = self.engine.members.clone();
        let health = self.engine.health.clone();
        self.engine.join(
            self.rank,
            seq,
            OpKind::Split,
            |acc| match acc {
                None => {
                    *acc = Some(Box::new(SplitAcc { submissions: vec![my], groups: None }));
                }
                Some(boxed) => {
                    acc_mut::<SplitAcc>(boxed).submissions.push(my);
                }
            },
            |acc| {
                // Last arrival: build one engine per color.
                let sp = acc_slot_mut::<SplitAcc>(acc);
                let mut by_color: BTreeMap<u32, Vec<(i64, usize)>> = BTreeMap::new();
                for &(rank, c, k) in &sp.submissions {
                    by_color.entry(c).or_default().push((k, rank));
                }
                let mut groups = BTreeMap::new();
                // Per-color engines are built in color order: construction
                // touches the shared health ledger, so the order is part of
                // the replay.
                for (c, mut members) in by_color {
                    members.sort_unstable();
                    let ranks: Vec<usize> = members.into_iter().map(|(_, r)| r).collect();
                    let world: Vec<usize> = ranks.iter().map(|&r| parent_members[r]).collect();
                    let salt = crate::fault::derive_salt(parent_salt, seq, c);
                    let engine = Engine::for_members(world, plan.clone(), salt, health.clone(), 0);
                    groups.insert(c, (engine, ranks));
                }
                sp.groups = Some(groups);
            },
        )?;
        self.trace_join(seq);
        let my_rank = self.rank;
        let my_crash = self.crash.clone();
        let child = self.engine.wait_complete(seq, move |acc| {
            let sp = acc_slot_ref::<SplitAcc>(acc);
            #[expect(
                clippy::expect_used,
                reason = "finalize ran before any wait_complete returns, so the per-color groups \
                          exist"
            )]
            let (engine, ranks) = &sp.groups.as_ref().expect("groups built")[&color];
            #[expect(
                clippy::expect_used,
                reason = "this rank's own submission is in exactly one color group"
            )]
            let new_rank = ranks.iter().position(|&r| r == my_rank).expect("own rank in group");
            Communicator::new(engine.clone(), new_rank, my_crash)
        })?;
        self.trace_complete(seq);
        // Derived communicators report into the same per-thread recorder, so
        // the phase summary covers local and leader traffic alike.
        if let Some(w) = self.tracer_clone() {
            child.set_tracer(w);
        }
        Ok(child)
    }

    // ------------------------------------------------------------------
    // Shrink
    // ------------------------------------------------------------------

    /// Shrinks the communicator after a member failure (ULFM's
    /// `MPI_Comm_shrink`): every *living* member calls this; the result is a
    /// new, smaller communicator over exactly the survivors, ordered by
    /// parent rank. Dead members are excluded; a member that died between
    /// the failure and its own shrink call is excluded too (survivorship is
    /// decided by the shared health registry, so all survivors agree on the
    /// membership).
    ///
    /// Entering shrink abandons every in-flight operation on *all* of this
    /// rank's communicators: waiters elsewhere observe the abandonment as
    /// [`CommError::RankFailed`] and are expected to join the recovery
    /// themselves (the shrink-and-continue protocol of the drivers in
    /// `kadabra-core`). The child draws injected-fault streams from a salt
    /// derived from the shrink *generation*, independent of every `split`
    /// sibling and of the parent — survivors' op-sequence counters may have
    /// diverged at the failure point, so the generation (not the seq) is the
    /// coordinate all survivors share.
    pub fn shrink(&self) -> Result<Communicator, CommError> {
        // Deliberately no crash checkpoint: shrink is the recovery path.
        // A rank whose own crash already fired cannot get here (every
        // checkpoint after `die()` keeps failing), so survivors-only is
        // preserved without consuming a logical-clock tick.
        self.engine.health.begin_recovery(self.world_rank());
        let generation = self.shrink_gen.get();
        let (engine, new_rank) = self.engine.shrink(self.rank, generation)?;
        self.shrink_gen.set(generation + 1);
        let child = Communicator::new(engine, new_rank, self.crash.clone());
        if let Some(w) = self.tracer_clone() {
            child.set_tracer(w);
        }
        Ok(child)
    }

    // ------------------------------------------------------------------
    // Grow
    // ------------------------------------------------------------------

    /// Grows the communicator by admitting up to `extra` standby ranks at a
    /// collective boundary — the mirror of [`Communicator::shrink`]. Every
    /// live member calls this with the same `extra`; the result is a new,
    /// larger communicator whose members are the callers in parent-rank
    /// order followed by the admitted standbys (smallest world rank first).
    /// Admitted standbys receive their own handle on the same child through
    /// [`crate::StandbyRank::wait_admission`], already ranked after the
    /// incumbents. Returns the incumbent's handle on the child.
    ///
    /// Unlike shrink, grow is *not* a recovery path: the crash checkpoint
    /// applies, so a rank whose fault plan schedules a crash here dies
    /// instead of joining. Members that die while the grow is in flight are
    /// excused (the collective still completes over the survivors). The
    /// child's plan-hash salt is derived from the grow *generation* key with
    /// its own color, so grown communicators never alias the parent's hash
    /// stream, any `split` child's, or any shrink generation's.
    pub fn grow(&self, extra: usize) -> Result<Communicator, CommError> {
        self.crash_checkpoint()?;
        let generation = self.grow_gen.get();
        let (engine, new_rank, admitted) = self.engine.grow(self.rank, generation, extra)?;
        self.grow_gen.set(generation + 1);
        let child = Communicator::new(engine, new_rank, self.crash.clone());
        if let Some(w) = self.tracer_clone() {
            w.count(CounterId::RanksJoined, admitted as u64);
            child.set_tracer(w);
        }
        Ok(child)
    }
}
