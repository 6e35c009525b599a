//! The resident sampler pool: Algorithm 1's rank state, parked between
//! launches of the world so it survives across queries and edge updates.
//!
//! The MPI drivers ([`crate::mpi`]) run set-up and the adaptive loop once
//! and return. A resident tenant instead keeps the per-rank sampling state
//! ([`RankState`]: sampler streams, [`SampleLedger`] checkpoint, local
//! frame) alive between *rounds*, where a round is a fixed number of flat
//! reduction epochs of the one round loop (`mpi::adaptive_rounds`)
//! executed inside one [`Universe`] run. Inside a round the only stop is the
//! deterministic τ ≥ ω cap; stopping on a query's target ε happens *between*
//! rounds, in the caller. That is what makes a service deterministic: the
//! state after round `r` is a pure function of `(graph, config, fault
//! plans, seed)` and never of which queries happened to be in flight
//! (DESIGN.md §13).
//!
//! Crash faults follow the §10 protocol: a rank that observes its own
//! [`kadabra_mpisim::CommError::RankFailed`] leaves the pool, survivors
//! shrink the communicator and rebuild the global frame from their ledgers,
//! and later rounds run on the smaller pool. The caller chooses the plan of
//! every launch — [`FaultPlan::reseeded`] keeps the delivery knobs but drops
//! the crash schedule, so a scheduled crash fires exactly once.
//!
//! The pool is generic over the streams' [`SampleSink`]: `()` for a static
//! tenant, the dynamic crate's path store for one that maintains its sample
//! population across edge batches ([`SamplerPool::run`] launches that
//! crate's per-rank update on the same parked state).

use crate::bounds::achieved_epsilon;
use crate::calibration::Calibration;
use crate::chaos::Audit;
use crate::config::KadabraConfig;
use crate::frame::Frame;
use crate::mpi::{adaptive_rounds, Comms, RankState, SampleSink};
use crate::recovery::{CheckpointError, SampleLedger};
use crate::sampler::ADS_STREAM_OFFSET;
use kadabra_graph::PathSource;
use kadabra_mpisim::{Communicator, FaultPlan, Universe};
use kadabra_telemetry::{EventWriter, Telemetry};
use parking_lot::Mutex;

/// What one round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Σ survivor ledgers after the round: per-vertex counts plus τ in the
    /// last slot.
    pub global: Vec<u64>,
    /// Total confirmed samples after the round.
    pub tau: u64,
    /// The accuracy the global frame now supports: `max_v max(f, g)` under
    /// the calibrated δ budgets (at most the floor once τ ≥ ω, where the
    /// a-priori bound takes over).
    pub achieved: f64,
    /// Ranks still alive after the round.
    pub live: usize,
    /// Round index that just completed (0-based).
    pub round: u64,
}

/// The pool's numbers between rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStatus {
    /// Ranks alive.
    pub live: usize,
    /// Rounds completed.
    pub round: u64,
    /// Confirmed samples.
    pub tau: u64,
    /// Accuracy the confirmed frame supports (1.0 before any round).
    pub achieved: f64,
    /// The sample cap ω the pool is sampling toward.
    pub omega: u64,
}

/// A serialized pool image: the survivors' ledgers plus enough metadata to
/// resume sampling on fresh streams (see [`SamplerPool::restore`]).
pub struct EngineCheckpoint {
    /// Rounds completed when the image was taken.
    pub round: u64,
    /// Stream generation of the pool that produced the image.
    pub generation: u32,
    /// `(slot id, ledger bytes)` per live rank.
    pub images: Vec<(usize, Vec<u8>)>,
}

/// The resident sampler pool of one tenant.
pub struct SamplerPool<S> {
    n: usize,
    threads: usize,
    kcfg: KadabraConfig,
    omega: u64,
    /// One parked rank state per live rank, in communicator order. The lock
    /// is uncontended: inside a launch only the slot's own rank takes it.
    slots: Vec<Mutex<RankState<S>>>,
    round: u64,
    /// Slots ever created — the next fresh slot id. Grown slots get ids
    /// past every id this pool has handed out (alive or dead), so their
    /// sampler streams never collide with any earlier rank's.
    spawned: usize,
    /// Bumped on [`SamplerPool::restore`]: restored samplers draw from
    /// fresh streams, so a restored pool never replays samples the
    /// checkpoint already counted.
    generation: u32,
    last_achieved: f64,
    last_tau: u64,
}

impl<S: SampleSink + Send> SamplerPool<S> {
    /// A fresh pool of `ranks` resident ranks of `threads` sequential
    /// streams each, every stream with a sink from `sink`.
    ///
    /// `kcfg.epsilon` is the tenant's schedule floor (the tightest ε the
    /// service will ever chase); `omega` is the cap derived from it.
    pub fn new(
        n: usize,
        kcfg: KadabraConfig,
        omega: u64,
        ranks: usize,
        threads: usize,
        sink: impl Fn() -> S,
    ) -> Self {
        assert!(ranks >= 1, "a pool needs at least one sampler rank");
        assert!(threads >= 1, "a rank needs at least one sampling stream");
        let mut pool = SamplerPool::empty(n, threads, kcfg, omega);
        for id in 0..ranks {
            pool.push_slot(id, SampleLedger::new(n), &sink);
        }
        pool
    }

    /// A pool with no rank yet, before its first round.
    fn empty(n: usize, threads: usize, kcfg: KadabraConfig, omega: u64) -> Self {
        SamplerPool {
            n,
            threads,
            kcfg,
            omega,
            slots: Vec::new(),
            round: 0,
            spawned: 0,
            generation: 0,
            last_achieved: 1.0,
            last_tau: 0,
        }
    }

    /// Parks a rank with ledger `ledger` on this generation's streams of
    /// slot `id`.
    fn push_slot(&mut self, id: usize, ledger: SampleLedger, sink: impl Fn() -> S) {
        self.spawned = self.spawned.max(id + 1);
        let first = ADS_STREAM_OFFSET + self.generation as usize * self.threads;
        let sinks = (0..self.threads).map(|_| sink());
        let st = RankState { ledger, ..RankState::new(self.n, self.kcfg.seed, id, first, sinks) };
        self.slots.push(Mutex::new(st));
    }

    /// The configuration the pool samples under (its ε is the floor).
    pub fn config(&self) -> &KadabraConfig {
        &self.kcfg
    }

    /// The pool's numbers as of the last completed launch.
    pub fn status(&self) -> PoolStatus {
        PoolStatus {
            live: self.slots.len(),
            round: self.round,
            tau: self.last_tau,
            achieved: self.last_achieved,
            omega: self.omega,
        }
    }

    /// Raises the cap to `omega` if that is larger (ω only ratchets up:
    /// shrinking it would invalidate the a-priori cap argument for samples
    /// already drawn).
    pub fn raise_omega(&mut self, omega: u64) {
        self.omega = self.omega.max(omega);
    }

    /// Calls `f` on every parked rank state, in communicator order.
    pub fn for_each_rank(&self, mut f: impl FnMut(&RankState<S>)) {
        for slot in &self.slots {
            #[expect(clippy::disallowed_methods, reason = "a caller's walk over the parked ranks")]
            f(&slot.lock());
        }
    }

    /// Σ live ledgers — the consistent global frame (length `n + 1`; all
    /// zeros before the first round).
    pub fn frame(&self) -> Vec<u64> {
        let mut global = vec![0u64; self.n + 1];
        self.for_each_rank(|st| {
            for (a, &x) in global.iter_mut().zip(st.ledger.frame()) {
                *a += x;
            }
        });
        global
    }

    /// Re-reads τ and the supported accuracy off the ledgers — after a
    /// round, and after any surgery on them or on ω outside one — and
    /// reports the state in a round's shape (`round`: the next one's index).
    /// One rule at the cap: once τ ≥ ω the a-priori bound holds, so the
    /// claim is at most the floor.
    pub fn refresh(&mut self, calibration: &Calibration) -> RoundReport {
        let global = self.frame();
        let (tau, live, round) = (global[self.n], self.slots.len(), self.round);
        self.last_tau = tau;
        self.last_achieved = achieved_epsilon(&global[..self.n], tau, self.omega, calibration)
            .min(if tau >= self.omega { self.kcfg.epsilon } else { 1.0 });
        RoundReport { global, tau, achieved: self.last_achieved, live, round }
    }

    /// Launches a world of the live ranks under `plan` and runs `body` on
    /// every rank's parked state. A rank whose body returns `None` died: it
    /// leaves the pool. Returns the survivors' results in rank order.
    pub fn run<R: Send>(
        &mut self,
        plan: FaultPlan,
        tel: &Telemetry,
        body: impl Fn(Communicator, &mut RankState<S>, &EventWriter) -> Option<R> + Sync,
    ) -> Vec<R> {
        let slots = &self.slots;
        let outcomes = Universe::run_with_plan(slots.len(), plan, |comm| {
            #[expect(
                clippy::disallowed_methods,
                reason = "each rank locks its parked state once per launch, uncontended"
            )]
            let mut st = slots[comm.rank()].lock();
            let w = tel.writer(st.id as u32, 0);
            comm.set_tracer(w.clone());
            body(comm, &mut st, &w)
        });
        let mut survived = outcomes.iter().map(Option::is_some);
        self.slots.retain(|_| survived.next().unwrap_or(false));
        outcomes.into_iter().flatten().collect()
    }

    /// Runs one fixed-length round on `view` under `plan`: every live rank
    /// executes exactly `epochs` reduction epochs of Algorithm 1 (fewer only
    /// if τ reaches ω, which is itself a deterministic event). At the cap,
    /// or on an empty pool, reports the state as it is without sampling.
    pub fn round<G: PathSource + Sync>(
        &mut self,
        view: &G,
        plan: FaultPlan,
        epochs: u32,
        calibration: &Calibration,
        tel: &Telemetry,
    ) -> RoundReport {
        assert!(epochs >= 1, "a round must run at least one epoch");
        if self.slots.is_empty() || self.last_tau >= self.omega {
            return self.refresh(calibration);
        }
        let (kcfg, omega) = (self.kcfg, self.omega);
        let start = self.frame();
        self.run(plan, tel, |comm, st, w| {
            // The only in-round stop is the deterministic τ ≥ ω cap;
            // ε-targeted stopping happens *between* rounds (in the caller),
            // so round boundaries are query-independent.
            let cap = |s_global: &Frame| s_global.tau() >= omega;
            // S lives on the root; recovery hands every survivor a rebuilt one.
            let s_global =
                if comm.rank() == 0 { Frame::from_dense(start.clone()) } else { Frame::default() };
            let mut audit = Audit::off();
            let rounds = 0..epochs;
            adaptive_rounds(
                view,
                &kcfg,
                Comms { world: comm, hierarchy: None },
                st,
                None,
                s_global,
                rounds,
                cap,
                // A pool grows between rounds (`resize`), never inside one.
                None,
                &mut audit,
                w,
            )
            .map(drop)
        });
        let report = self.refresh(calibration);
        self.round += 1;
        report
    }

    /// Drops every sample drawn but never confirmed: the overlap a round
    /// leaves in the local frames (and, as records, in the sinks). Until
    /// the next round every sink then mirrors its rank's ledger exactly.
    pub fn drop_unconfirmed(&mut self) {
        for slot in &mut self.slots {
            let st = slot.get_mut();
            for stream in &mut st.streams {
                // A snapshot of the whole unconfirmed tail, discarded.
                stream.sink.snapshot();
                stream.sink.discard();
            }
            st.s_loc.clear();
        }
    }

    /// Serializes every live rank's ledger (the confirmed, crash-consistent
    /// part of the state; in-flight `s_loc` samples are deliberately not
    /// checkpointed — they were never globally counted).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let mut images = Vec::with_capacity(self.slots.len());
        self.for_each_rank(|st| images.push((st.id, st.ledger.to_bytes())));
        EngineCheckpoint { round: self.round, generation: self.generation, images }
    }
}

/// Membership surgery between rounds, for pools that retain nothing: a shed
/// or restored rank cannot hand over or rebuild a sink's records.
impl SamplerPool<()> {
    /// Elastically resizes the pool to `target` ranks between rounds,
    /// returning `(joined, shed)`.
    ///
    /// Growing appends fresh slots whose ids (and therefore sampler
    /// streams) have never been used by this pool; their empty ledgers
    /// contribute nothing, so the global `[Σc̃, τ]` frame is unchanged and
    /// later rounds simply run on the wider communicator with the per-rank
    /// epoch length re-derived for the new size. Shedding retires the
    /// youngest slots first and folds each victim's ledger into the oldest
    /// survivor's — confirmed samples are conserved, only future capacity
    /// changes. Resizing is deterministic state surgery: two pools that
    /// perform the same resizes at the same round boundaries stay
    /// bit-identical.
    pub fn resize(&mut self, target: usize) -> (usize, usize) {
        assert!(target >= 1, "a pool needs at least one sampler rank");
        let (mut joined, mut shed) = (0, 0);
        while self.slots.len() > target {
            #[expect(clippy::expect_used, reason = "the loop guard holds len > target >= 1")]
            let victim = self.slots.pop().expect("pool has a slot to shed").into_inner();
            if victim.ledger.tau() > 0 {
                self.slots[0].get_mut().ledger.confirm_dense(victim.ledger.frame());
            }
            shed += 1;
        }
        while self.slots.len() < target {
            self.push_slot(self.spawned, SampleLedger::new(self.n), || ());
            joined += 1;
        }
        (joined, shed)
    }

    /// Rebuilds a pool from a checkpoint: ledgers are restored bit-exactly,
    /// samplers restart on generation-bumped fresh streams (confirmed counts
    /// are conserved; future samples are new draws, never replays).
    pub fn restore(
        n: usize,
        kcfg: KadabraConfig,
        omega: u64,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let mut pool = SamplerPool::empty(n, 1, kcfg, omega);
        pool.round = ckpt.round;
        pool.generation = ckpt.generation + 1;
        for (id, bytes) in &ckpt.images {
            let ledger = SampleLedger::from_bytes(bytes)?;
            pool.last_tau += ledger.tau();
            pool.push_slot(*id, ledger, || ());
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::prepare_for_pool;
    use kadabra_graph::generators::{grid, GridConfig};
    use kadabra_graph::Graph;

    fn setup(ranks: usize, seed: u64) -> (Graph, KadabraConfig, u64, Calibration) {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        // Small epochs (n0_base) against a tight ε keep ω several rounds
        // away, so the tests below observe multi-round accumulation.
        let kcfg =
            KadabraConfig { epsilon: 0.05, delta: 0.1, seed, n0_base: 200.0, ..Default::default() };
        let p = prepare_for_pool(&g, &kcfg, ranks, 1);
        (g, kcfg, p.omega, p.calibration)
    }

    /// A static pool beside the plan a static tenant salts its rounds from,
    /// and their length.
    struct Stepped {
        pool: SamplerPool<()>,
        plan: FaultPlan,
        epochs: u32,
    }

    impl Stepped {
        fn new(g: &Graph, kcfg: KadabraConfig, omega: u64, ranks: usize, plan: FaultPlan) -> Self {
            let pool = SamplerPool::new(g.num_nodes(), kcfg, omega, ranks, 1, || ());
            Stepped { pool, plan, epochs: 2 }
        }

        fn step(&mut self, g: &Graph, cal: &Calibration, tel: &Telemetry) -> RoundReport {
            let plan = self.plan.reseeded(self.pool.status().round);
            self.pool.round(g, plan, self.epochs, cal, tel)
        }
    }

    #[test]
    fn rounds_accumulate_and_tighten() {
        let (g, kcfg, omega, cal) = setup(2, 11);
        let tel = Telemetry::stats_only();
        let mut eng = Stepped::new(&g, kcfg, omega, 2, FaultPlan::ideal(11));
        let r1 = eng.step(&g, &cal, &tel);
        assert!(r1.tau > 0);
        assert_eq!(r1.round, 0);
        let r2 = eng.step(&g, &cal, &tel);
        assert!(r2.tau > r1.tau, "τ must grow: {} vs {}", r2.tau, r1.tau);
        assert!(r2.achieved <= r1.achieved, "ε must tighten");
    }

    #[test]
    fn rounds_are_reproducible() {
        let (g, kcfg, omega, cal) = setup(3, 7);
        let tel = Telemetry::stats_only();
        let run = |rounds: usize| {
            let mut eng = Stepped::new(&g, kcfg, omega, 3, FaultPlan::ideal(7));
            let mut last = None;
            for _ in 0..rounds {
                last = Some(eng.step(&g, &cal, &tel));
            }
            last.unwrap()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.global, b.global, "round state must be a pure function of (plan, seed)");
        assert_eq!(a.tau, b.tau);
    }

    #[test]
    fn checkpoint_restore_conserves_ledger_state() {
        let (g, kcfg, omega, cal) = setup(2, 5);
        let tel = Telemetry::stats_only();
        let mut eng = Stepped::new(&g, kcfg, omega, 2, FaultPlan::ideal(5));
        eng.step(&g, &cal, &tel);
        eng.step(&g, &cal, &tel);
        let before = eng.pool.frame();
        let ckpt = eng.pool.checkpoint();
        eng.pool =
            SamplerPool::restore(g.num_nodes(), kcfg, omega, &ckpt).expect("valid checkpoint");
        assert_eq!(eng.pool.frame(), before, "restore must conserve [Σc̃, τ]");
        assert_eq!(eng.pool.status().tau, before[before.len() - 1]);
        // And the restored pool keeps sampling (fresh streams, new draws).
        let r = eng.step(&g, &cal, &tel);
        assert!(r.tau > restored_tau(&before), "restored pool must keep refining");
    }

    fn restored_tau(frame: &[u64]) -> u64 {
        frame[frame.len() - 1]
    }

    #[test]
    fn resize_conserves_ledger_state_and_stays_reproducible() {
        let (g, kcfg, omega, cal) = setup(2, 13);
        let tel = Telemetry::stats_only();
        let run = || {
            let mut eng = Stepped::new(&g, kcfg, omega, 2, FaultPlan::ideal(13));
            eng.step(&g, &cal, &tel);
            let before = eng.pool.frame();
            // Grow 2 → 4: the frame must be untouched, the next round must
            // run on the wider pool.
            assert_eq!(eng.pool.resize(4), (2, 0));
            assert_eq!(eng.pool.frame(), before, "grow must conserve [Σc̃, τ]");
            assert_eq!(eng.pool.status().live, 4);
            let grown = eng.step(&g, &cal, &tel);
            assert!(grown.tau > before[before.len() - 1]);
            // Shed 4 → 1: the victims' ledgers fold into the survivor.
            let wide = eng.pool.frame();
            assert_eq!(eng.pool.resize(1), (0, 3));
            assert_eq!(eng.pool.frame(), wide, "shed must conserve [Σc̃, τ]");
            assert_eq!(eng.pool.status().live, 1);
            eng.step(&g, &cal, &tel).global
        };
        assert_eq!(run(), run(), "resize surgery must be a pure function of (plan, seed)");
    }

    #[test]
    fn grown_slots_never_reuse_shed_stream_ids() {
        // Shed then regrow: the regrown slot must sample a *fresh* stream,
        // not replay the shed rank's — otherwise its draws double-count.
        let (g, kcfg, omega, cal) = setup(2, 17);
        let tel = Telemetry::stats_only();
        let mut eng = Stepped::new(&g, kcfg, omega, 2, FaultPlan::ideal(17));
        eng.step(&g, &cal, &tel);
        eng.pool.resize(1);
        eng.pool.resize(2);
        let mut replayed = Stepped::new(&g, kcfg, omega, 2, FaultPlan::ideal(17));
        replayed.step(&g, &cal, &tel);
        let a = eng.step(&g, &cal, &tel);
        let b = replayed.step(&g, &cal, &tel);
        assert_ne!(a.global, b.global, "regrown slot replayed a retired stream");
    }

    #[test]
    fn crash_shrinks_pool_and_rounds_continue() {
        let (g, kcfg, omega, cal) = setup(3, 9);
        let tel = Telemetry::stats_only();
        let plan = FaultPlan::ideal(42).with_crash_at_collective(2, 2);
        let mut eng = Stepped { epochs: 3, ..Stepped::new(&g, kcfg, omega, 3, plan) };
        let r1 = eng.step(&g, &cal, &tel);
        assert_eq!(r1.live, 2, "rank 2's crash must shrink the pool");
        let r2 = eng.step(&g, &cal, &tel);
        assert_eq!(r2.live, 2, "reseeded later rounds must not replay the crash");
        assert!(r2.tau > r1.tau);
    }
}
