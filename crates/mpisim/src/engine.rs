//! The collective-operation engine shared by all ranks of a communicator.
//!
//! Every collective call is assigned a per-rank sequence number; calls with
//! the same sequence number across ranks form one *operation instance*. An
//! instance lives in a slot map until all ranks have both **joined**
//! (contributed their input) and **retired** (observed completion) it.
//!
//! # Failure semantics
//!
//! Completion of an instance is, and stays, "all members joined" — latched
//! at the last join, so whether an op completes is a pure function of each
//! member's sequential program (and therefore of `(plan, seed)` under fault
//! injection). The crash-fault layer never revokes a completed op; it only
//! lets waiters escape ops that *provably cannot* complete: a member that
//! has joined neither the op nor (state-wise) the living — it is dead or in
//! shrink recovery — will never arrive, so after a bounded
//! confirm-and-backoff the wait fails with
//! [`CommError::RankFailed`](crate::CommError::RankFailed). Deadlock
//! timeouts and poison (protocol misuse) likewise surface as typed
//! [`CommError`]s carrying the `(plan, seed)` replay pair; the engine has no
//! panicking failure path.

use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::health::{RankCrashState, WorldHealth};
use crate::sync::{AtomicBool, AtomicU64, Ordering};
use kadabra_telemetry::{CounterId, EventWriter, MarkId};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking wait may stall before the runtime assumes a deadlock
/// (collective order mismatch in the algorithm under test) and fails with
/// [`CommError::Timeout`](crate::CommError::Timeout). Under a fault plan
/// this base budget is scaled by [`FaultPlan::timeout_scale`], because an
/// injected straggler legitimately keeps its peers waiting (see
/// [`Engine::deadlock_timeout`]).
pub(crate) const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(60);

/// Granularity of a blocking wait: waiters re-check completion, poison and
/// member health every slice, so a death needs no cross-engine wakeup
/// plumbing to be noticed promptly.
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// A stuck member must be re-confirmed this many times — with doubling
/// backoff slices between checks — before the wait fails. The backoff is
/// observation-only (completion is latched by joins), so it cannot change a
/// run's outcome; it only lets concurrent deaths settle so the reported
/// rank is usually the smallest stuck member.
const FAILURE_CONFIRM_RETRIES: u32 = 3;

/// Reserved key space for shrink generations in the slot map: ordinary op
/// sequence numbers are small, so `SHRINK_KEY_BASE | generation` can never
/// collide with them (or with the salts `split` derives from real seqs).
const SHRINK_KEY_BASE: u64 = 1 << 62;

/// Reserved key space for grow generations, disjoint from both ordinary op
/// sequence numbers and [`SHRINK_KEY_BASE`], so a communicator that both
/// shrinks and grows keeps the two generation streams apart.
const GROW_KEY_BASE: u64 = 1 << 61;

/// Operation kinds, used both for dispatch and for mismatch detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Barrier,
    Reduce { root: usize },
    Bcast { root: usize },
    Allreduce,
    Split,
    Shrink,
    Grow,
}

/// One collective instance.
pub(crate) struct OpSlot {
    pub kind: OpKind,
    /// Ranks that have joined so far.
    pub arrived: usize,
    /// Per-rank join flags (indexed by communicator rank), for stuck-member
    /// detection against [`WorldHealth`].
    pub joined: Vec<bool>,
    /// Ranks that have observed completion.
    pub retired: usize,
    /// Operation-specific accumulator (reduction value, bcast payload,
    /// split submissions / results...).
    pub acc: Option<Box<dyn Any + Send>>,
}

impl OpSlot {
    fn new(kind: OpKind, size: usize) -> Self {
        OpSlot { kind, arrived: 0, joined: vec![false; size], retired: 0, acc: None }
    }
}

/// Result of a completed shrink generation, shared by all survivors.
struct ShrinkAcc {
    /// Child engine plus the surviving ranks *of the parent communicator*,
    /// in ascending order (position = new rank).
    child: (Arc<Engine>, Vec<usize>),
}

/// Accumulator of a grow generation.
struct GrowAcc {
    /// Standby count requested by the first joiner; later joiners must
    /// request the same count (poison on mismatch, like any collective
    /// argument disagreement).
    extra: usize,
    /// Once built by the first completion observer: the child engine, the
    /// joining parent ranks (position = new rank), and how many standbys
    /// were actually admitted.
    child: Option<(Arc<Engine>, Vec<usize>, usize)>,
}

/// Engine state shared by all ranks of one communicator.
pub(crate) struct Engine {
    pub size: usize,
    /// World rank of each member, indexed by communicator rank. The world
    /// engine's members are `0..size`; `split`/`shrink` children carry the
    /// mapping through, so failures are always reported in world ranks.
    pub(crate) members: Vec<usize>,
    slots: Mutex<HashMap<u64, OpSlot>>,
    cv: Condvar,
    bytes: AtomicU64,
    /// Set when any rank detects protocol misuse; wakes and fails all
    /// waiters instead of letting them run into the deadlock timeout.
    poisoned: AtomicBool,
    /// Diagnostic written by the poisoning rank before the flag is set.
    poison_msg: Mutex<String>,
    /// Point-to-point mailbox shared by the communicator's ranks.
    pub(crate) mailbox: Arc<crate::p2p::Mailbox>,
    /// Fault plan this communicator runs under (None = free-running).
    pub(crate) plan: Option<Arc<FaultPlan>>,
    /// Per-communicator hash salt separating the plan's delay streams of
    /// parent, child, and sibling communicators (see `fault::derive_salt`).
    pub(crate) salt: u64,
    /// Liveness registry shared by every communicator of the world.
    pub(crate) health: Arc<WorldHealth>,
}

impl Engine {
    pub fn new(size: usize) -> Arc<Self> {
        Engine::with_plan(size, None, 0)
    }

    /// A *world* engine whose collectives consult `plan` (hash-salted by
    /// `salt`): members are `0..size` and the health registry is fresh.
    pub fn with_plan(size: usize, plan: Option<Arc<FaultPlan>>, salt: u64) -> Arc<Self> {
        Engine::for_members((0..size).collect(), plan, salt, WorldHealth::new(), 0)
    }

    /// A derived engine (`split` color group or `shrink` survivor set):
    /// `members` maps its ranks to world ranks, `health` is shared with the
    /// parent, and `carried_bytes` seeds the byte counter (shrink children
    /// carry the parent's tally so per-run communication volume survives
    /// recovery).
    pub(crate) fn for_members(
        members: Vec<usize>,
        plan: Option<Arc<FaultPlan>>,
        salt: u64,
        health: Arc<WorldHealth>,
        carried_bytes: u64,
    ) -> Arc<Self> {
        let timeout = match &plan {
            Some(p) => DEADLOCK_TIMEOUT * p.timeout_scale(),
            None => DEADLOCK_TIMEOUT,
        };
        Arc::new(Engine {
            size: members.len(),
            mailbox: crate::p2p::Mailbox::new(
                plan.clone(),
                salt,
                timeout,
                members.clone(),
                health.clone(),
            ),
            members,
            slots: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            bytes: AtomicU64::new(carried_bytes),
            poisoned: AtomicBool::new(false),
            poison_msg: Mutex::new(String::new()),
            plan,
            salt,
            health,
        })
    }

    /// The deadlock budget of this communicator's blocking waits: the 60 s
    /// ideal-schedule constant, scaled by the plan's worst injected latency
    /// so a straggler's deliberate lateness is not misdiagnosed as a hang.
    pub(crate) fn deadlock_timeout(&self) -> Duration {
        match &self.plan {
            Some(p) => DEADLOCK_TIMEOUT * p.timeout_scale(),
            None => DEADLOCK_TIMEOUT,
        }
    }

    /// The `(plan, seed)` replay pair every `Timeout`/`Poisoned` diagnostic
    /// carries (satisfying "replay any failure from its message alone").
    pub(crate) fn replay(&self) -> String {
        match &self.plan {
            Some(p) => p.summary(),
            None => "plan: none (free-running)".to_string(),
        }
    }

    /// Marks the communicator broken, wakes all waiters, and returns the
    /// typed error for the detecting rank.
    ///
    /// Release pairs with the Acquire loads in `check_poison`/waiters: a
    /// rank that observes the flag also observes the diagnostic written
    /// first. No stronger ordering is needed — there is no multi-flag
    /// consensus here, just one one-way latch.
    fn poison(&self, msg: String) -> CommError {
        *self.poison_msg.lock() = msg.clone();
        self.poisoned.store(true, Ordering::Release);
        self.cv.notify_all();
        CommError::Poisoned { detail: msg, replay: self.replay() }
    }

    fn poisoned_error(&self) -> CommError {
        let detail = self.poison_msg.lock().clone();
        CommError::Poisoned { detail, replay: self.replay() }
    }

    fn check_poison(&self) -> Result<(), CommError> {
        if self.poisoned.load(Ordering::Acquire) {
            Err(self.poisoned_error())
        } else {
            Ok(())
        }
    }

    /// Total payload bytes contributed to collectives so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn add_bytes(&self, b: u64) {
        self.bytes.fetch_add(b, Ordering::Relaxed);
    }

    /// Joins operation `seq` of kind `kind` as communicator rank `rank`,
    /// contributing via `deposit`, which receives the accumulator slot
    /// (None on first arrival). `finalize` runs exactly once, when the last
    /// rank arrives.
    pub fn join(
        &self,
        rank: usize,
        seq: u64,
        kind: OpKind,
        deposit: impl FnOnce(&mut Option<Box<dyn Any + Send>>),
        finalize: impl FnOnce(&mut Option<Box<dyn Any + Send>>),
    ) -> Result<(), CommError> {
        self.check_poison()?;
        let mut slots = self.slots.lock();
        let slot = slots.entry(seq).or_insert_with(|| OpSlot::new(kind, self.size));
        if slot.kind != kind {
            let msg = format!(
                "collective mismatch at seq {seq}: one rank called {:?}, another {kind:?}",
                slot.kind
            );
            drop(slots);
            return Err(self.poison(msg));
        }
        deposit(&mut slot.acc);
        assert!(!slot.joined[rank], "rank {rank} joined op seq {seq} twice");
        slot.joined[rank] = true;
        slot.arrived += 1;
        assert!(slot.arrived <= self.size, "more joins than communicator size at seq {seq}");
        if slot.arrived == self.size {
            finalize(&mut slot.acc);
            self.cv.notify_all();
        }
        Ok(())
    }

    /// Non-blocking check whether all ranks have joined op `seq`.
    #[expect(
        clippy::expect_used,
        reason = "`seq` comes from a Request this engine issued, and slots are only freed after \
                  the last retirement"
    )]
    pub fn is_complete(&self, seq: u64) -> bool {
        let slots = self.slots.lock();
        slots.get(&seq).expect("is_complete on unknown op").arrived == self.size
    }

    /// Completion collection; must only be called once [`Self::is_complete`]
    /// returned `true` (asserted). `collect` extracts this rank's result from
    /// the accumulator and the op is retired for this rank (slot freed after
    /// the last retirement).
    pub fn try_complete<T>(
        &self,
        seq: u64,
        collect: impl FnOnce(&mut Option<Box<dyn Any + Send>>) -> T,
    ) -> T {
        let mut slots = self.slots.lock();
        #[expect(
            clippy::expect_used,
            reason = "`seq` comes from a Request this engine issued, and this rank has not retired \
                      it yet"
        )]
        let slot = slots.get_mut(&seq).expect("try_complete on unknown op");
        assert!(slot.arrived == self.size, "try_complete before completion");
        let out = collect(&mut slot.acc);
        slot.retired += 1;
        if slot.retired == self.size {
            slots.remove(&seq);
        }
        out
    }

    /// Blocking completion: waits until all ranks joined, then collects.
    ///
    /// Fails fast with [`CommError::RankFailed`] once a member that has not
    /// joined is confirmed dead or recovering (after
    /// [`FAILURE_CONFIRM_RETRIES`] backoff re-checks), with
    /// [`CommError::Poisoned`] on protocol misuse elsewhere, and with
    /// [`CommError::Timeout`] when the plan-scaled deadlock budget runs out.
    pub fn wait_complete<T>(
        &self,
        seq: u64,
        collect: impl FnOnce(&mut Option<Box<dyn Any + Send>>) -> T,
    ) -> Result<T, CommError> {
        let mut slots = self.slots.lock();
        let budget = self.deadlock_timeout();
        let mut waited = Duration::ZERO;
        let mut stuck_checks = 0u32;
        let mut slice = WAIT_SLICE;
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(self.poisoned_error());
            }
            let (kind, arrived, stuck) = {
                #[expect(
                    clippy::expect_used,
                    reason = "`seq` comes from a Request this engine issued, and this rank has not \
                              retired it yet"
                )]
                let slot = slots.get_mut(&seq).expect("wait_complete on unknown op");
                if slot.arrived == self.size {
                    let out = collect(&mut slot.acc);
                    slot.retired += 1;
                    if slot.retired == self.size {
                        slots.remove(&seq);
                    }
                    return Ok(out);
                }
                let stuck = self.health.first_stuck_member(&self.members, &slot.joined);
                (slot.kind, slot.arrived, stuck)
            };
            if let Some(world_rank) = stuck {
                stuck_checks += 1;
                if stuck_checks > FAILURE_CONFIRM_RETRIES {
                    return Err(CommError::RankFailed { rank: world_rank });
                }
                slice = slice.saturating_mul(2); // confirm with backoff
            } else {
                stuck_checks = 0;
                slice = WAIT_SLICE;
            }
            if self.cv.wait_for(&mut slots, slice).timed_out() {
                waited += slice;
                if waited >= budget {
                    return Err(CommError::Timeout {
                        op: format!(
                            "op seq {seq} ({kind:?}) stuck with {arrived}/{} ranks \
                             after {budget:?}",
                            self.size
                        ),
                        replay: self.replay(),
                    });
                }
            }
        }
    }

    /// One generation of the shrink protocol (`MPI_Comm_shrink` in ULFM
    /// terms): every *living* member must call this with the same
    /// `generation`; the generation completes once each member has either
    /// joined it or been declared dead. The first rank to observe
    /// completion builds the child engine — survivors are exactly the
    /// joiners, in parent-rank order — and all survivors receive the same
    /// child. Returns the child engine plus this rank's new rank.
    ///
    /// The child's plan-hash salt is derived from the *generation key*, not
    /// from the op-sequence counter (survivors' seq counters legitimately
    /// diverge before a failure is noticed), which also guarantees the salt
    /// stream is independent of every `split` child and of other shrink
    /// generations.
    pub(crate) fn shrink(
        &self,
        rank: usize,
        generation: u64,
    ) -> Result<(Arc<Engine>, usize), CommError> {
        let key = SHRINK_KEY_BASE | generation;
        let mut slots = self.slots.lock();
        let slot = slots.entry(key).or_insert_with(|| OpSlot::new(OpKind::Shrink, self.size));
        assert!(slot.kind == OpKind::Shrink, "reserved shrink key collided with an op");
        assert!(!slot.joined[rank], "rank {rank} joined shrink generation {generation} twice");
        slot.joined[rank] = true;
        slot.arrived += 1;
        self.cv.notify_all();
        let budget = self.deadlock_timeout();
        let mut waited = Duration::ZERO;
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(self.poisoned_error());
            }
            {
                #[expect(
                    clippy::expect_used,
                    reason = "the slot is freed only after the last survivor retires, and this \
                              rank has not retired yet"
                )]
                let slot = slots.get_mut(&key).expect("shrink generation slot present");
                let done =
                    slot.acc.is_some() || self.health.shrink_complete(&self.members, &slot.joined);
                if done {
                    if slot.acc.is_none() {
                        // First observer: survivors = the joiners, in parent
                        // rank order (deterministic — a member dead at this
                        // point never joins this generation later).
                        let survivors: Vec<usize> =
                            (0..self.size).filter(|&r| slot.joined[r]).collect();
                        let world: Vec<usize> =
                            survivors.iter().map(|&r| self.members[r]).collect();
                        let salt = crate::fault::derive_salt(self.salt, key, 0);
                        let child = Engine::for_members(
                            world.clone(),
                            self.plan.clone(),
                            salt,
                            self.health.clone(),
                            self.bytes_transferred(),
                        );
                        self.health.end_recovery(&world);
                        slot.acc = Some(Box::new(ShrinkAcc { child: (child, survivors) }));
                        self.cv.notify_all();
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "just stored/observed above, and the reserved key space pins the \
                                  type"
                    )]
                    let acc = slot
                        .acc
                        .as_ref()
                        .and_then(|a| a.downcast_ref::<ShrinkAcc>())
                        .expect("shrink accumulator");
                    let (child, survivors) = (acc.child.0.clone(), acc.child.1.clone());
                    #[expect(
                        clippy::expect_used,
                        reason = "this rank joined, so it is among the survivors by construction"
                    )]
                    let new_rank = survivors
                        .iter()
                        .position(|&r| r == rank)
                        .expect("own rank among shrink survivors");
                    slot.retired += 1;
                    if slot.retired == survivors.len() {
                        slots.remove(&key);
                    }
                    return Ok((child, new_rank));
                }
            }
            if self.cv.wait_for(&mut slots, WAIT_SLICE).timed_out() {
                waited += WAIT_SLICE;
                if waited >= budget {
                    return Err(CommError::Timeout {
                        op: format!("shrink generation {generation} incomplete after {budget:?}"),
                        replay: self.replay(),
                    });
                }
            }
        }
    }

    /// Collective grow: every live member joins generation `generation`
    /// requesting `extra` additional ranks; completion builds the child
    /// engine — the joiners in parent-rank order, followed by up to `extra`
    /// standbys admitted from the world's standby pool (smallest world rank
    /// first) — and delivers each admitted standby its (engine, rank)
    /// ticket through [`WorldHealth::deliver_admission`]. Returns the child
    /// engine, this rank's new rank, and the number of standbys actually
    /// admitted (fewer than `extra` when the pool runs dry).
    ///
    /// Members dead at completion time are excused, exactly as in `shrink`,
    /// so a grow racing a crash still terminates. The child's plan-hash
    /// salt is derived from the *grow generation key* with color 1 —
    /// disjoint from the op-seq salts of `split` children (small seqs,
    /// their own colors) and from shrink generations (`SHRINK_KEY_BASE`
    /// keys, color 0) — so grown comms never alias any other hash stream.
    pub(crate) fn grow(
        &self,
        rank: usize,
        generation: u64,
        extra: usize,
    ) -> Result<(Arc<Engine>, usize, usize), CommError> {
        let key = GROW_KEY_BASE | generation;
        let mut slots = self.slots.lock();
        let slot = slots.entry(key).or_insert_with(|| {
            let mut s = OpSlot::new(OpKind::Grow, self.size);
            s.acc = Some(Box::new(GrowAcc { extra, child: None }));
            s
        });
        assert!(slot.kind == OpKind::Grow, "reserved grow key collided with an op");
        assert!(!slot.joined[rank], "rank {rank} joined grow generation {generation} twice");
        {
            #[expect(
                clippy::expect_used,
                reason = "deposited unconditionally at slot creation above; the reserved key space \
                          pins the type"
            )]
            let acc = slot
                .acc
                .as_mut()
                .and_then(|a| a.downcast_mut::<GrowAcc>())
                .expect("grow accumulator");
            if acc.extra != extra {
                let msg = format!(
                    "grow mismatch: rank {rank} requested {extra} extra ranks in generation \
                     {generation}, first joiner requested {}",
                    acc.extra
                );
                drop(slots);
                return Err(self.poison(msg));
            }
        }
        slot.joined[rank] = true;
        slot.arrived += 1;
        self.cv.notify_all();
        let budget = self.deadlock_timeout();
        let mut waited = Duration::ZERO;
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(self.poisoned_error());
            }
            {
                #[expect(
                    clippy::expect_used,
                    reason = "the slot is freed only after the last joiner retires, and this rank \
                              has not retired yet"
                )]
                let slot = slots.get_mut(&key).expect("grow generation slot present");
                #[expect(
                    clippy::expect_used,
                    reason = "the slot holds a GrowAcc from its creation; the reserved key space \
                              pins the type"
                )]
                let acc = slot
                    .acc
                    .as_mut()
                    .and_then(|a| a.downcast_mut::<GrowAcc>())
                    .expect("grow accumulator");
                let done =
                    acc.child.is_some() || self.health.shrink_complete(&self.members, &slot.joined);
                if done {
                    if acc.child.is_none() {
                        // First observer: joiners in parent rank order keep
                        // their relative order; admitted standbys append
                        // after them (deterministic — the pool hands out
                        // smallest world ranks first).
                        let joiners: Vec<usize> =
                            (0..self.size).filter(|&r| slot.joined[r]).collect();
                        let mut world: Vec<usize> =
                            joiners.iter().map(|&r| self.members[r]).collect();
                        let admitted = self.health.take_standbys(extra);
                        // xtask: allow(determinism) — a Vec drained from a
                        // BTreeSet: smallest world ranks first, no hash order.
                        world.extend(admitted.iter().copied());
                        let salt = crate::fault::derive_salt(self.salt, key, 1);
                        let child = Engine::for_members(
                            world,
                            self.plan.clone(),
                            salt,
                            self.health.clone(),
                            self.bytes_transferred(),
                        );
                        // xtask: allow(determinism) — same sorted Vec as above.
                        for (i, &wr) in admitted.iter().enumerate() {
                            self.health.deliver_admission(wr, child.clone(), joiners.len() + i);
                        }
                        acc.child = Some((child, joiners, admitted.len()));
                        self.cv.notify_all();
                    }
                    #[expect(clippy::expect_used, reason = "just stored/observed above")]
                    let (child, joiners, admitted) =
                        acc.child.as_ref().expect("grow child").clone();
                    #[expect(
                        clippy::expect_used,
                        reason = "this rank joined, so it is among the joiners by construction"
                    )]
                    let new_rank = joiners
                        .iter()
                        .position(|&r| r == rank)
                        .expect("own rank among grow joiners");
                    slot.retired += 1;
                    if slot.retired == joiners.len() {
                        slots.remove(&key);
                    }
                    return Ok((child, new_rank, admitted));
                }
            }
            if self.cv.wait_for(&mut slots, WAIT_SLICE).timed_out() {
                waited += WAIT_SLICE;
                if waited >= budget {
                    return Err(CommError::Timeout {
                        op: format!("grow generation {generation} incomplete after {budget:?}"),
                        replay: self.replay(),
                    });
                }
            }
        }
    }
}

/// Handle for a non-blocking collective. Obtain the result with
/// [`Request::wait`], or poll with [`Request::test`] and keep computing — the
/// overlap pattern of the paper's Algorithms 1 and 2.
pub struct Request<T> {
    engine: Arc<Engine>,
    seq: u64,
    /// Extractor for this rank's result; consumed on completion.
    collect: Option<Collector<T>>,
    result: Option<T>,
    /// Sticky failure: once an error is observed the request keeps
    /// reporting it.
    failed: Option<CommError>,
    /// Remaining injected polls before this rank may observe completion
    /// (the fault plan's logical clock; 0 when running without a plan).
    delay: u64,
    /// Crash schedule of the owning rank: each unsuccessful poll is one
    /// logical-clock tick of its `AfterPolls` fuse.
    crash: Option<Arc<RankCrashState>>,
    /// Telemetry writer of the owning rank thread: each unsuccessful
    /// `test()` ticks its logical clock (one overlapped unit of work) and
    /// completion records a `CollectiveComplete` marker.
    tracer: Option<EventWriter>,
}

/// Extractor applied to the op's accumulator once a collective completes.
type Collector<T> = Box<dyn FnOnce(&mut Option<Box<dyn Any + Send>>) -> T + Send>;

impl<T> Request<T> {
    pub(crate) fn new(
        engine: Arc<Engine>,
        seq: u64,
        delay: u64,
        collect: Collector<T>,
        crash: Option<Arc<RankCrashState>>,
        tracer: Option<EventWriter>,
    ) -> Self {
        Request {
            engine,
            seq,
            collect: Some(collect),
            result: None,
            failed: None,
            delay,
            crash,
            tracer,
        }
    }

    /// One overlapped (unsuccessful) poll: tick the logical clock, the
    /// overlap counter, and the owning rank's crash fuse.
    fn trace_poll(&mut self) -> Result<(), CommError> {
        if let Some(w) = &self.tracer {
            w.tick(1);
            w.count(CounterId::OverlapPolls, 1);
        }
        if let Some(c) = &self.crash {
            if let Err(e) = c.on_poll() {
                self.failed = Some(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    /// The collective resolved at this rank.
    fn trace_complete(&self) {
        if let Some(w) = &self.tracer {
            w.mark(MarkId::CollectiveComplete, self.seq);
        }
    }

    /// Polls for completion without blocking. Returns `Ok(true)` once the
    /// operation is complete (after which [`Request::into_result`] /
    /// [`Request::wait`] yield the value). Subsequent calls keep returning
    /// `Ok(true)`; a failed request keeps returning its error.
    ///
    /// Under a fault plan the poll sequence is *deterministic*: the request
    /// returns `Ok(false)` exactly as many times as the plan injected for
    /// this `(communicator, rank, seq)` — each `false` is one tick of the
    /// logical clock, i.e. one overlapped sample in the paper's algorithms —
    /// and the next call blocks until the collective genuinely completes,
    /// then returns `Ok(true)`. The number of overlapped iterations thus
    /// depends only on `(plan, seed)`, never on OS scheduling, which is what
    /// makes perturbed runs bit-reproducible.
    pub fn test(&mut self) -> Result<bool, CommError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.result.is_some() || self.collect.is_none() {
            return Ok(true);
        }
        if self.delay > 0 {
            self.delay -= 1;
            self.trace_poll()?;
            return Ok(false);
        }
        if self.engine.plan.is_some() {
            // Deterministic regime: injected polls exhausted — resolve now,
            // blocking if peers are still on their way (the wait respects
            // the plan-scaled deadlock budget).
            #[expect(
                clippy::unwrap_used,
                reason = "`collect` is consumed exactly once: here or below, both guarded by the \
                          early return above"
            )]
            let collect = self.collect.take().unwrap();
            match self.engine.wait_complete(self.seq, collect) {
                Ok(v) => {
                    self.result = Some(v);
                    self.trace_complete();
                    return Ok(true);
                }
                Err(e) => {
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
        if !self.engine.is_complete(self.seq) {
            self.trace_poll()?;
            return Ok(false);
        }
        // Completion is monotone and this rank has not retired yet, so the
        // slot is guaranteed to still exist for the collection step.
        #[expect(
            clippy::unwrap_used,
            reason = "`collect` is consumed exactly once: here on the first successful test(), \
                      guarded by the early return above"
        )]
        let collect = self.collect.take().unwrap();
        self.result = Some(self.engine.try_complete(self.seq, collect));
        self.trace_complete();
        Ok(true)
    }

    /// Blocks until completion and returns the result.
    pub fn wait(mut self) -> Result<T, CommError> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        if let Some(v) = self.result.take() {
            return Ok(v);
        }
        #[expect(
            clippy::expect_used,
            reason = "wait() takes self; if test() already collected, the result.take() above \
                      returned early"
        )]
        let collect = self.collect.take().expect("request already consumed");
        let out = self.engine.wait_complete(self.seq, collect)?;
        self.trace_complete();
        Ok(out)
    }

    /// Returns the result if `test()` previously succeeded.
    pub fn into_result(mut self) -> Option<T> {
        self.result.take()
    }
}
