//! The resident sampler pool: Algorithm 1's adaptive loop, re-hosted as a
//! stateful engine that survives across queries.
//!
//! The flat driver (`kadabra_core::mpi`) runs diameter → calibration →
//! adaptive sampling once and returns. A resident tenant instead keeps the
//! per-rank sampling state — sampler stream, [`SampleLedger`] checkpoint,
//! local frame — alive between *rounds*, where each round is a fixed number
//! of reduction epochs executed inside one [`Universe`] run. Fixing the
//! epoch count per round (instead of stopping when a query's target ε is
//! reached) is what makes the service deterministic: the state after round
//! `r` is a pure function of `(graph, config, fault plan, seed)` and never
//! of which queries happened to be in flight (DESIGN.md §13).
//!
//! Crash faults follow the PR 4 protocol: a rank that observes its own
//! [`CommError::RankFailed`] leaves the pool (its slot empties), survivors
//! shrink the communicator and rebuild the global frame from their ledgers
//! via [`shrink_and_rebuild`], and later rounds run on the smaller pool —
//! [`FaultPlan::reseeded`] keeps the delivery knobs but drops the crash
//! schedule, so a scheduled crash fires exactly once.

use kadabra_core::calibration::Calibration;
use kadabra_core::sampler::{ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_core::{CheckpointError, KadabraConfig, SampleLedger};
use kadabra_graph::Graph;
use kadabra_mpisim::{CommError, Communicator, FaultPlan, Universe};
use kadabra_telemetry::{CounterId, SpanId, Telemetry};
use parking_lot::Mutex;

/// Per-rank resident sampling state, parked in its slot between rounds.
struct RankState {
    /// The rank's adaptive sampling stream (survives across rounds, so no
    /// sample is ever replayed).
    sampler: ThreadSampler,
    /// Every frame whose reduction this rank observed — the recovery and
    /// checkpoint source of truth.
    ledger: SampleLedger,
    /// S_loc: samples drawn but not yet globally confirmed.
    s_loc: Vec<u64>,
}

/// One slot of the pool: a stable identity plus the parked state. The slot
/// stays (empty) after its rank dies so checkpoint images keep their ids.
struct EngineSlot {
    /// The rank's original pool index — stable across shrinks, used as the
    /// telemetry rank and the sampler stream id.
    id: usize,
    state: Mutex<Option<RankState>>,
}

/// What one engine round produced.
pub struct RoundReport {
    /// Σ survivor ledgers after the round: per-vertex counts plus τ in the
    /// last slot. Empty when no rank survived.
    pub global: Vec<u64>,
    /// Total confirmed samples after the round.
    pub tau: u64,
    /// The accuracy the global frame now supports: `max_v max(f, g)` under
    /// the tenant's calibrated δ budgets (floored at the schedule floor once
    /// τ ≥ ω, where the a-priori bound takes over).
    pub achieved: f64,
    /// Ranks still alive after the round.
    pub live: usize,
    /// Round index that just completed (0-based).
    pub round: u64,
}

/// A serialized engine image: the survivors' ledgers plus enough metadata
/// to resume sampling on fresh streams (see [`RefineEngine::restore`]).
pub struct EngineCheckpoint {
    /// Rounds completed when the image was taken.
    pub round: u64,
    /// Stream generation of the engine that produced the image.
    pub generation: u32,
    /// `(slot id, ledger bytes)` per live rank.
    pub images: Vec<(usize, Vec<u8>)>,
}

/// The resident sampler pool for one tenant.
pub struct RefineEngine {
    n: usize,
    kcfg: KadabraConfig,
    omega: u64,
    max_epochs_per_round: u32,
    base_plan: FaultPlan,
    slots: Vec<EngineSlot>,
    round: u64,
    /// Slots ever created — the next fresh slot id. Grown slots get ids
    /// past every id this engine has handed out (alive or dead), so their
    /// sampler streams never collide with any earlier rank's.
    spawned: usize,
    /// Bumped on [`RefineEngine::restore`]: restored samplers draw from
    /// fresh streams (offset `ADS_STREAM_OFFSET + generation`), so a
    /// restored engine never replays samples the checkpoint already counted.
    generation: u32,
    last_achieved: f64,
    last_tau: u64,
}

impl RefineEngine {
    /// A fresh pool of `ranks` resident samplers.
    ///
    /// `kcfg.epsilon` is the tenant's schedule floor (the tightest ε the
    /// service will ever chase); `omega` is the cap derived from it.
    pub fn new(
        n: usize,
        kcfg: KadabraConfig,
        omega: u64,
        ranks: usize,
        max_epochs_per_round: u32,
        base_plan: FaultPlan,
    ) -> Self {
        assert!(ranks >= 1, "a pool needs at least one sampler rank");
        assert!(max_epochs_per_round >= 1, "a round must run at least one epoch");
        let slots = (0..ranks)
            .map(|id| EngineSlot {
                id,
                state: Mutex::new(Some(RankState {
                    sampler: ThreadSampler::new(n, kcfg.seed, id, ADS_STREAM_OFFSET),
                    ledger: SampleLedger::new(n),
                    s_loc: vec![0u64; n + 1],
                })),
            })
            .collect();
        RefineEngine {
            n,
            kcfg,
            omega,
            max_epochs_per_round,
            base_plan,
            slots,
            round: 0,
            spawned: ranks,
            generation: 0,
            last_achieved: 1.0,
            last_tau: 0,
        }
    }

    /// Elastically resizes the pool to `target` ranks between rounds,
    /// returning `(joined, shed)`.
    ///
    /// Growing appends fresh slots whose ids (and therefore sampler
    /// streams) have never been used by this engine; their empty ledgers
    /// contribute nothing, so the global `[Σc̃, τ]` frame is unchanged and
    /// later rounds simply run on the wider communicator with the per-rank
    /// epoch length re-derived for the new size. Shedding retires the
    /// youngest slots first and folds each victim's ledger into the oldest
    /// survivor's — confirmed samples are conserved, only future capacity
    /// changes. Resizing is deterministic state surgery: two engines that
    /// perform the same resizes at the same round boundaries stay
    /// bit-identical.
    pub fn resize(&mut self, target: usize) -> (usize, usize) {
        assert!(target >= 1, "a pool needs at least one sampler rank");
        let (mut joined, mut shed) = (0, 0);
        while self.slots.len() > target {
            // xtask: allow(unwrap) — the loop guard holds len > target >= 1.
            let victim = self.slots.pop().expect("pool has a slot to shed");
            if let Some(st) = victim.state.lock().take() {
                if st.ledger.tau() > 0 {
                    if let Some(keeper) = self.slots[0].state.lock().as_mut() {
                        keeper.ledger.confirm(st.ledger.frame());
                    }
                }
            }
            shed += 1;
        }
        while self.slots.len() < target {
            let id = self.spawned;
            self.spawned += 1;
            self.slots.push(EngineSlot {
                id,
                state: Mutex::new(Some(RankState {
                    sampler: ThreadSampler::new(
                        self.n,
                        self.kcfg.seed,
                        id,
                        ADS_STREAM_OFFSET + self.generation as usize,
                    ),
                    ledger: SampleLedger::new(self.n),
                    s_loc: vec![0u64; self.n + 1],
                })),
            });
            joined += 1;
        }
        (joined, shed)
    }

    /// Σ live ledgers, as [`RoundReport::global`] reports it — the frame a
    /// caller publishes after out-of-round state surgery (resize, restore).
    pub fn current_frame(&self) -> Vec<u64> {
        self.fold_ledgers()
    }

    /// Ranks still alive in the pool.
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The accuracy reported by the last completed round (1.0 before any).
    pub fn last_achieved(&self) -> f64 {
        self.last_achieved
    }

    /// Confirmed samples after the last completed round.
    pub fn last_tau(&self) -> u64 {
        self.last_tau
    }

    /// The sample cap ω the pool is sampling toward.
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// Runs one fixed-length round: every live rank executes exactly
    /// `max_epochs_per_round` reduction epochs of Algorithm 1 (fewer only if
    /// τ reaches ω, which is itself a deterministic event). Returns the
    /// post-round global frame and the accuracy it supports.
    pub fn step(&mut self, g: &Graph, calibration: &Calibration, tel: &Telemetry) -> RoundReport {
        let live = self.slots.len();
        if live == 0 || self.last_tau >= self.omega {
            return RoundReport {
                global: self.fold_ledgers(),
                tau: self.last_tau,
                achieved: self.last_achieved,
                live,
                round: self.round,
            };
        }
        let plan = self.base_plan.reseeded(self.round);
        let slots = &self.slots;
        let kcfg = &self.kcfg;
        let (omega, max_epochs, n) = (self.omega, self.max_epochs_per_round, self.n);
        Universe::run_with_plan(live, plan, |comm| {
            run_round(g, n, kcfg, omega, max_epochs, slots, comm, tel)
        });
        // Compact: ranks that died this round left their slot empty.
        self.slots.retain(|s| s.state.lock().is_some());
        self.round += 1;
        let global = self.fold_ledgers();
        let tau = global.last().copied().unwrap_or(0);
        self.last_tau = tau;
        self.last_achieved =
            achieved_epsilon(&global[..self.n.min(global.len())], tau, self.omega, calibration)
                .min(if tau >= self.omega { self.kcfg.epsilon } else { 1.0 });
        RoundReport {
            global,
            tau,
            achieved: self.last_achieved,
            live: self.slots.len(),
            round: self.round - 1,
        }
    }

    /// Σ live ledgers — the consistent global frame (length `n + 1`; all
    /// zeros before the first round).
    fn fold_ledgers(&self) -> Vec<u64> {
        let mut global = vec![0u64; self.n + 1];
        for slot in &self.slots {
            if let Some(st) = slot.state.lock().as_ref() {
                for (a, &x) in global.iter_mut().zip(st.ledger.frame()) {
                    *a += x;
                }
            }
        }
        global
    }

    /// Serializes every live rank's ledger (the confirmed, crash-consistent
    /// part of the state; in-flight `s_loc` samples are deliberately not
    /// checkpointed — they were never globally counted).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let images = self
            .slots
            .iter()
            .filter_map(|s| s.state.lock().as_ref().map(|st| (s.id, st.ledger.to_bytes())))
            .collect();
        EngineCheckpoint { round: self.round, generation: self.generation, images }
    }

    /// Rebuilds a pool from a checkpoint: ledgers are restored bit-exactly,
    /// samplers restart on generation-bumped fresh streams (confirmed counts
    /// are conserved; future samples are new draws, never replays).
    pub fn restore(
        n: usize,
        kcfg: KadabraConfig,
        omega: u64,
        max_epochs_per_round: u32,
        base_plan: FaultPlan,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let generation = ckpt.generation + 1;
        let mut slots = Vec::with_capacity(ckpt.images.len());
        let mut tau = 0u64;
        for (id, bytes) in &ckpt.images {
            let ledger = SampleLedger::from_bytes(bytes)?;
            tau += ledger.tau();
            slots.push(EngineSlot {
                id: *id,
                state: Mutex::new(Some(RankState {
                    sampler: ThreadSampler::new(
                        n,
                        kcfg.seed,
                        *id,
                        ADS_STREAM_OFFSET + generation as usize,
                    ),
                    ledger,
                    s_loc: vec![0u64; n + 1],
                })),
            });
        }
        Ok(RefineEngine {
            n,
            kcfg,
            omega,
            max_epochs_per_round,
            base_plan,
            spawned: ckpt.images.iter().map(|(id, _)| id + 1).max().unwrap_or(0),
            slots,
            round: ckpt.round,
            generation,
            last_achieved: 1.0,
            last_tau: tau,
        })
    }
}

pub use kadabra_core::achieved_epsilon;

/// Per-rank body of one engine round: `max_epochs` epochs of the Algorithm 1
/// reduction loop, with the PR 4 shrink-and-continue protocol. Returns
/// `Some(())` from survivors (after parking their state back in the slot),
/// `None` from ranks that died (their slot stays empty).
#[allow(clippy::too_many_arguments)]
fn run_round(
    g: &Graph,
    n: usize,
    kcfg: &KadabraConfig,
    omega: u64,
    max_epochs: u32,
    slots: &[EngineSlot],
    comm: Communicator,
    tel: &Telemetry,
) -> Option<()> {
    let me = comm.rank();
    let my_world = comm.world_rank();
    let id = slots[me].id;
    let w = tel.writer(id as u32, 0);
    comm.set_tracer(w.clone());
    let mut st = slots[me].state.lock().take()?;

    let mut comm = comm;
    let mut n0 = kcfg.n0(comm.size());
    // Every rank carries a fold of its own ledger as the round's starting
    // global frame; only the root's copy is consulted, and after a shrink
    // every survivor resets to the rebuilt (identical) frame.
    let mut s_global = st.ledger.frame().to_vec();
    let mut epoch = 0u32;
    let mut dead = false;
    let sp_round = w.begin(SpanId::AdaptiveSampling);

    while epoch < max_epochs {
        w.set_epoch(epoch);
        let RankState { sampler, ledger, s_loc } = &mut st;
        let round = (|| -> Result<bool, CommError> {
            let sp = w.begin(SpanId::SampleBatch);
            {
                let frame = &mut *s_loc;
                sampler.sample_batch(g, n0, |interior| {
                    for &v in interior {
                        frame[v as usize] += 1;
                    }
                    frame[n] += 1;
                });
            }
            w.end(sp);
            let snapshot = std::mem::replace(s_loc, vec![0u64; n + 1]);
            let sp = w.begin(SpanId::IreduceWait);
            let mut req = comm.ireduce_sum_u64(0, &snapshot)?;
            let mut overlapped = 0u64;
            while !req.test()? {
                for &v in sampler.sample(g) {
                    s_loc[v as usize] += 1;
                }
                s_loc[n] += 1;
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::BytesReduced, snapshot.len() as u64 * 8);
            ledger.confirm(&snapshot);

            let mut d = 0u64;
            if comm.rank() == 0 {
                // xtask: allow(unwrap) — the request completed (test() was
                // true) and this rank is the reduction root, so both layers
                // are Some.
                let reduced = req.into_result().unwrap().expect("root receives reduction");
                let sp = w.begin(SpanId::Check);
                for (a, &x) in s_global.iter_mut().zip(&reduced) {
                    *a += x;
                }
                // The only in-round stop is the deterministic τ ≥ ω cap;
                // ε-targeted stopping happens *between* rounds (in the
                // tenant), so round boundaries are query-independent.
                d = u64::from(s_global[n] >= omega);
                w.end(sp);
            }
            let sp = w.begin(SpanId::BcastStop);
            let mut breq = comm.ibcast_u64(0, (comm.rank() == 0).then_some(d))?;
            while !breq.test()? {
                for &v in sampler.sample(g) {
                    s_loc[v as usize] += 1;
                }
                s_loc[n] += 1;
                overlapped += 1;
            }
            w.end(sp);
            w.count(CounterId::Samples, n0 + overlapped);
            // xtask: allow(unwrap) — test() returned true above.
            Ok(breq.into_result().unwrap() != 0)
        })();

        match round {
            Ok(stop) => {
                w.count(CounterId::Epochs, 1);
                epoch += 1;
                if stop {
                    break;
                }
            }
            Err(CommError::RankFailed { rank }) if rank == my_world => {
                dead = true; // own scheduled crash: the slot stays empty
                break;
            }
            Err(CommError::RankFailed { .. }) => match shrink_and_rebuild_here(&comm, &st, &w) {
                Ok((small, rebuilt)) => {
                    comm = small;
                    s_global = rebuilt;
                    n0 = kcfg.n0(comm.size());
                    epoch += 1;
                }
                Err(e) if e.failed_rank() == Some(my_world) => {
                    dead = true;
                    break;
                }
                Err(e) => panic!("unrecoverable communicator failure: {e}"),
            },
            Err(e) => panic!("unrecoverable communicator failure: {e}"),
        }
    }
    w.end(sp_round);
    if dead {
        return None;
    }
    *slots[me].state.lock() = Some(st);
    Some(())
}

/// Borrow shim: `run_round` holds `st` by value, recovery needs its ledger.
fn shrink_and_rebuild_here(
    comm: &Communicator,
    st: &RankState,
    w: &kadabra_telemetry::EventWriter,
) -> Result<(Communicator, Vec<u64>), CommError> {
    kadabra_core::shrink_and_rebuild(comm, &st.ledger, w)
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use kadabra_core::phases::prepare_for_pool;
    use kadabra_graph::generators::{grid, GridConfig};

    fn setup(ranks: usize, seed: u64) -> (Graph, KadabraConfig, u64, Calibration) {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        // Small epochs (n0_base) against a tight ε keep ω several rounds
        // away, so the tests below observe multi-round accumulation.
        let kcfg =
            KadabraConfig { epsilon: 0.05, delta: 0.1, seed, n0_base: 200.0, ..Default::default() };
        let p = prepare_for_pool(&g, &kcfg, ranks, 1);
        (g, kcfg, p.omega, p.calibration)
    }

    #[test]
    fn rounds_accumulate_and_tighten() {
        let (g, kcfg, omega, cal) = setup(2, 11);
        let tel = Telemetry::stats_only();
        let mut eng = RefineEngine::new(g.num_nodes(), kcfg, omega, 2, 2, FaultPlan::ideal(11));
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
            let mut eng = RefineEngine::new(g.num_nodes(), kcfg, omega, 3, 2, FaultPlan::ideal(7));
            let mut last = None;
            for _ in 0..rounds {
                last = Some(eng.step(&g, &cal, &tel));
            }
            // xtask: allow(unwrap) — rounds >= 1 below.
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
        let mut eng = RefineEngine::new(g.num_nodes(), kcfg, omega, 2, 2, FaultPlan::ideal(5));
        eng.step(&g, &cal, &tel);
        eng.step(&g, &cal, &tel);
        let before = eng.fold_ledgers();
        let ckpt = eng.checkpoint();
        let mut restored =
            RefineEngine::restore(g.num_nodes(), kcfg, omega, 2, FaultPlan::ideal(5), &ckpt)
                .expect("valid checkpoint");
        assert_eq!(restored.fold_ledgers(), before, "restore must conserve [Σc̃, τ]");
        assert_eq!(restored.last_tau(), before[before.len() - 1]);
        // And the restored pool keeps sampling (fresh streams, new draws).
        let r = restored.step(&g, &cal, &tel);
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
            let mut eng = RefineEngine::new(g.num_nodes(), kcfg, omega, 2, 2, FaultPlan::ideal(13));
            eng.step(&g, &cal, &tel);
            let before = eng.current_frame();
            // Grow 2 → 4: the frame must be untouched, the next round must
            // run on the wider pool.
            assert_eq!(eng.resize(4), (2, 0));
            assert_eq!(eng.current_frame(), before, "grow must conserve [Σc̃, τ]");
            assert_eq!(eng.live(), 4);
            let grown = eng.step(&g, &cal, &tel);
            assert!(grown.tau > before[before.len() - 1]);
            // Shed 4 → 1: the victims' ledgers fold into the survivor.
            let wide = eng.current_frame();
            assert_eq!(eng.resize(1), (0, 3));
            assert_eq!(eng.current_frame(), wide, "shed must conserve [Σc̃, τ]");
            assert_eq!(eng.live(), 1);
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
        let mut eng = RefineEngine::new(g.num_nodes(), kcfg, omega, 2, 2, FaultPlan::ideal(17));
        eng.step(&g, &cal, &tel);
        eng.resize(1);
        eng.resize(2);
        let mut replayed =
            RefineEngine::new(g.num_nodes(), kcfg, omega, 2, 2, FaultPlan::ideal(17));
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
        let mut eng = RefineEngine::new(g.num_nodes(), kcfg, omega, 3, 3, plan);
        let r1 = eng.step(&g, &cal, &tel);
        assert_eq!(r1.live, 2, "rank 2's crash must shrink the pool");
        let r2 = eng.step(&g, &cal, &tel);
        assert_eq!(r2.live, 2, "reseeded later rounds must not replay the crash");
        assert!(r2.tau > r1.tau);
    }
}
