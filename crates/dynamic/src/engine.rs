//! The incremental sampling engine: a resident pool of per-rank,
//! per-thread samplers whose retained sample population is *maintained*
//! across streaming edge updates instead of being redrawn from scratch.
//!
//! Refinement rounds mirror the server's resident engine (Algorithm 1
//! epochs inside one [`Universe`] run, fixed epoch budget per round, crash
//! recovery via ledger shrink-and-rebuild), with two differences: every
//! confirmed sample is also *recorded* — `(s, t, L)` plus its interior in a
//! per-thread [`PathStore`] — and sampling traverses the [`DeltaLog`]'s
//! overlay view, so no CSR rebuild sits between a batch and the next epoch.
//!
//! An update batch ([`DynamicEngine::apply_update`]) runs the §14 pipeline:
//!
//! 1. **Sweep (old view)** — BFS distance tables from the deletion
//!    endpoints, before the batch applies.
//! 2. **Append** — the batch enters the [`DeltaLog`]; the overlay now
//!    serves the new graph.
//! 3. **Sweep (new view)** — tables from the insertion endpoints.
//! 4. **Classify + re-sample** — inside one [`Universe`] run, every rank
//!    classifies each retained record against the tables
//!    ([`classify_samples`]), then redraws exactly the invalidated ones on
//!    the new view through `kadabra_core::resample_invalidated`, which
//!    retracts the stale interior mass and confirms the redrawn mass in one
//!    τ-conserving ledger transaction. Redraws come from dedicated
//!    per-`(seed, batch, rank, thread)` streams, so the maintained estimate
//!    stays a pure deterministic function of
//!    `(graph, update sequence, config, seed)`.
//!
//! # Fault-plan policy
//!
//! [`FaultPlan::reseeded`] keeps the crash schedule only at round 0, so the
//! engine routes salts deliberately: refinement rounds use odd salts ≥ 1
//! and later batches even salts ≥ 2 (both crash-free), while the **first**
//! update batch runs under the base plan verbatim — a plan-scheduled crash
//! therefore fires *mid-update-batch*, the hardest point for the recovery
//! protocol (exercised by `tests/dynamic_chaos.rs`).

use kadabra_core::calibration::Calibration;
use kadabra_core::sampler::{mix_seed, ThreadSampler, ADS_STREAM_OFFSET};
use kadabra_core::{
    achieved_epsilon, resample_invalidated, KadabraConfig, ResampleScratch, SampleLedger,
    ValidityBitmap,
};
use kadabra_graph::bibfs::sample_shortest_path_into;
use kadabra_graph::scratch::UNREACHED;
use kadabra_graph::{Graph, NodeId};
use kadabra_mpisim::{CommError, Communicator, FaultPlan, Universe};
use kadabra_telemetry::{CounterId, SpanId, Telemetry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::invalidate::{classify_samples, vertex_diameter_bound, PathStore, SweepScratch};
use crate::log::{DeltaLog, UpdateBatch, UpdateError};
use crate::overlay::DynamicGraph;

/// Salt folded into redraw streams so they can never collide with the
/// adaptive streams (`ADS_STREAM_OFFSET` space) or the calibration streams.
const REDRAW_STREAM_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// One sampling thread of one rank: its adaptive stream plus the retained
/// samples it has confirmed.
struct DynThread {
    sampler: ThreadSampler,
    store: PathStore,
}

/// Per-rank resident state, parked in its slot between runs.
struct DynRankState {
    threads: Vec<DynThread>,
    /// Confirmed frames — recovery and checkpoint source of truth. The
    /// thread stores mirror exactly this ledger's mass (rollback on failed
    /// reductions keeps them in lockstep).
    ledger: SampleLedger,
    /// Samples drawn but not yet globally confirmed (one frame per rank,
    /// shared by its threads).
    s_loc: Vec<u64>,
    bitmap: ValidityBitmap,
    rescratch: ResampleScratch,
}

struct DynSlot {
    /// Original pool index — stable across shrinks; telemetry rank and
    /// sampler stream id.
    id: usize,
    state: Mutex<Option<DynRankState>>,
}

/// What one refinement round produced (shape mirrors the server engine's
/// `RoundReport`).
#[derive(Debug, Clone, PartialEq)]
pub struct DynRoundReport {
    /// Σ survivor ledgers: per-vertex counts plus τ in the last slot.
    pub global: Vec<u64>,
    /// Total confirmed samples.
    pub tau: u64,
    /// Accuracy the frame supports under the calibrated δ budgets.
    pub achieved: f64,
    /// Ranks still alive.
    pub live: usize,
    /// Refinement rounds completed (across the engine's lifetime).
    pub round: u64,
}

/// What one applied update batch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateReport {
    /// Sequence number the batch was assigned by the [`DeltaLog`].
    pub seq: u64,
    /// Σ survivor ledgers after classification and re-sampling.
    pub global: Vec<u64>,
    /// Total confirmed samples (unchanged by the update unless a rank died
    /// mid-batch, which drops its mass).
    pub tau: u64,
    /// Accuracy the maintained frame supports on the *new* graph.
    pub achieved: f64,
    /// Retained samples that had to be redrawn.
    pub invalidated: u64,
    /// Retained samples kept as-is (provably valid).
    pub retained: u64,
    /// Ranks still alive.
    pub live: usize,
    /// Whether the log compacted after this batch.
    pub compacted: bool,
}

/// The resident incremental engine for one dynamic tenant.
pub struct DynamicEngine {
    n: usize,
    threads: usize,
    kcfg: KadabraConfig,
    omega: u64,
    vd: u32,
    max_epochs_per_round: u32,
    base_plan: FaultPlan,
    log: DeltaLog,
    slots: Vec<DynSlot>,
    refine_runs: u64,
    batches: u64,
    last_global: Vec<u64>,
    last_tau: u64,
    last_achieved: f64,
    sweep: SweepScratch,
    vd_dist: Vec<u32>,
    vd_queue: Vec<NodeId>,
    /// Cumulative classification/diagnostic BFS edges (engine-level, not
    /// tied to any rank's sampler).
    sweep_edges: u64,
}

impl DynamicEngine {
    /// A fresh incremental pool of `ranks × threads` sampler streams over
    /// `base`. `omega`/`vd` come from the caller's diameter phase on the
    /// base graph (the engine re-bounds them itself after every batch).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        base: Graph,
        kcfg: KadabraConfig,
        omega: u64,
        vd: u32,
        ranks: usize,
        threads: usize,
        max_epochs_per_round: u32,
        base_plan: FaultPlan,
    ) -> Self {
        assert!(ranks >= 1, "a pool needs at least one sampler rank");
        assert!(threads >= 1, "a rank needs at least one sampling thread");
        assert!(max_epochs_per_round >= 1, "a round must run at least one epoch");
        let n = base.num_nodes();
        let slots = (0..ranks)
            .map(|id| DynSlot {
                id,
                state: Mutex::new(Some(DynRankState {
                    threads: (0..threads)
                        .map(|t| DynThread {
                            sampler: ThreadSampler::new(n, kcfg.seed, id, ADS_STREAM_OFFSET + t),
                            store: PathStore::new(n),
                        })
                        .collect(),
                    ledger: SampleLedger::new(n),
                    s_loc: vec![0u64; n + 1],
                    bitmap: ValidityBitmap::all_valid(0),
                    rescratch: ResampleScratch::new(n),
                })),
            })
            .collect();
        DynamicEngine {
            n,
            threads,
            kcfg,
            omega,
            vd,
            max_epochs_per_round,
            base_plan,
            log: DeltaLog::new(base),
            slots,
            refine_runs: 0,
            batches: 0,
            last_global: vec![0u64; n + 1],
            last_tau: 0,
            last_achieved: 1.0,
            sweep: SweepScratch::new(),
            vd_dist: Vec::new(),
            vd_queue: Vec::new(),
            sweep_edges: 0,
        }
    }

    /// The current graph view (base CSR ± applied deltas).
    pub fn view(&self) -> &DynamicGraph {
        self.log.view()
    }

    /// The delta log (sequence, history, compaction stats).
    pub fn log(&self) -> &DeltaLog {
        &self.log
    }

    /// Ranks still alive in the pool.
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// Update batches applied so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Refinement rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.refine_runs
    }

    /// The sample cap ω currently in force.
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// The vertex-diameter bound currently in force.
    pub fn vertex_diameter(&self) -> u32 {
        self.vd
    }

    /// Accuracy reported by the last completed run (1.0 before any).
    pub fn last_achieved(&self) -> f64 {
        self.last_achieved
    }

    /// Confirmed samples after the last completed run.
    pub fn last_tau(&self) -> u64 {
        self.last_tau
    }

    /// The maintained global frame (per-vertex counts + τ).
    pub fn last_global(&self) -> &[u64] {
        &self.last_global
    }

    /// Total traversal edges scanned across the engine's lifetime: every
    /// live sampler stream, every redraw, and every classification /
    /// diameter sweep. The deterministic work measure `bench_dynamic`
    /// gates on.
    pub fn work_edges(&self) -> u64 {
        let mut total = self.sweep_edges;
        for slot in &self.slots {
            if let Some(st) = slot.state.lock().as_ref() {
                for th in &st.threads {
                    total += th.sampler.stats.edges_scanned + th.store.redraw_stats.edges_scanned;
                }
            }
        }
        total
    }

    /// Serialized ledger images of every live rank (`(slot id, bytes)`),
    /// the engine's durable state for service checkpointing.
    pub fn checkpoint_ledgers(&self) -> Vec<(usize, Vec<u8>)> {
        self.slots
            .iter()
            .filter_map(|s| s.state.lock().as_ref().map(|st| (s.id, st.ledger.to_bytes())))
            .collect()
    }

    /// Splits the rank's epoch quota `n0` across its threads (earlier
    /// threads take the remainder — deterministic).
    fn thread_share(n0: u64, threads: usize, t: usize) -> u64 {
        let base = n0 / threads as u64;
        let extra = u64::from((t as u64) < n0 % threads as u64);
        base + extra
    }

    /// Runs one fixed-length refinement round: every live rank executes up
    /// to `max_epochs_per_round` allreduce epochs on the current view,
    /// recording every confirmed sample in its thread stores. Deterministic
    /// per `(graph, updates, config, seed, round)`.
    pub fn refine(&mut self, calibration: &Calibration, tel: &Telemetry) -> DynRoundReport {
        let live = self.slots.len();
        assert!(live > 0, "refine on an empty pool");
        if self.last_tau >= self.omega {
            // At the cap a round has nothing to add: the a-priori bound
            // already covers the floor (as in the static pool's `step`).
            return DynRoundReport {
                global: self.last_global.clone(),
                tau: self.last_tau,
                achieved: self.last_achieved,
                live,
                round: self.refine_runs,
            };
        }
        // Odd salts ≥ 1: crash-free (the crash schedule is reserved for the
        // first update batch — see the module docs).
        let plan = self.base_plan.reseeded(1 + 2 * self.refine_runs);
        self.refine_runs += 1;
        let view = self.log.view();
        let (n, kcfg, omega, max_epochs, threads) =
            (self.n, &self.kcfg, self.omega, self.max_epochs_per_round, self.threads);
        let slots = &self.slots;
        let start_global = self.last_global.clone();
        let results = Universe::run_with_plan(live, plan, |comm| {
            run_refine_round(
                view,
                n,
                kcfg,
                omega,
                max_epochs,
                threads,
                slots,
                &start_global,
                comm,
                tel,
            )
        });
        self.slots.retain(|s| s.state.lock().is_some());
        let global = results.into_iter().flatten().next().unwrap_or_else(|| vec![0u64; self.n + 1]);
        self.last_tau = global[self.n];
        self.last_achieved =
            achieved_epsilon(&global[..self.n], self.last_tau, self.omega, calibration)
                .min(if self.last_tau >= self.omega { self.kcfg.epsilon } else { 1.0 });
        self.last_global = global.clone();
        DynRoundReport {
            global,
            tau: self.last_tau,
            achieved: self.last_achieved,
            live: self.slots.len(),
            round: self.refine_runs - 1,
        }
    }

    /// Refines until the maintained frame supports `target_eps` (or τ hits
    /// ω, or `max_rounds` elapse, or the pool empties). Returns the last
    /// round's report.
    pub fn refine_until(
        &mut self,
        target_eps: f64,
        max_rounds: u64,
        calibration: &Calibration,
        tel: &Telemetry,
    ) -> DynRoundReport {
        let mut report = DynRoundReport {
            global: self.last_global.clone(),
            tau: self.last_tau,
            achieved: self.last_achieved,
            live: self.live(),
            round: self.refine_runs,
        };
        let mut rounds = 0;
        while report.achieved > target_eps
            && report.tau < self.omega
            && rounds < max_rounds
            && self.live() > 0
        {
            report = self.refine(calibration, tel);
            rounds += 1;
        }
        report
    }

    /// Applies one update batch end-to-end (module docs give the
    /// pipeline). On validation error nothing changes.
    pub fn apply_update(
        &mut self,
        batch: &UpdateBatch,
        calibration: &Calibration,
        tel: &Telemetry,
    ) -> Result<UpdateReport, UpdateError> {
        self.log.validate(batch)?;
        assert!(!self.slots.is_empty(), "apply_update on an empty pool");

        // Depth caps for the sweeps (see `invalidate` module docs): the
        // deletion sweep only needs distances up to the largest finite L;
        // the insertion sweep must run uncapped if any retained pair was
        // disconnected (an insert can reconnect it at any distance).
        let (lmax, any_disconnected) = self.record_horizon();
        let del_cap = lmax;
        let ins_cap = if any_disconnected { u32::MAX } else { lmax };

        let mut eps = Vec::new();
        batch.delete_endpoints(&mut eps);
        self.sweep_edges += self.sweep.sweep_old(self.log.view(), eps, del_cap, batch.deletes());

        // xtask: allow(unwrap) — `validate` ran on this exact batch above;
        // append re-checks the same invariants against an unchanged view.
        let seq = self.log.append(batch).expect("batch validated above");
        tel.writer(0, 0).count(CounterId::EdgesApplied, batch.len() as u64);

        let mut eps = Vec::new();
        batch.insert_endpoints(&mut eps);
        self.sweep_edges += self.sweep.sweep_new(self.log.view(), eps, ins_cap, batch.inserts());

        // First batch runs under the base plan verbatim (crash schedule
        // armed); later batches use crash-free even salts ≥ 2.
        let plan = if self.batches == 0 {
            self.base_plan.clone()
        } else {
            self.base_plan.reseeded(2 * self.batches)
        };
        self.batches += 1;

        let live = self.slots.len();
        let view = self.log.view();
        let (n, kcfg) = (self.n, &self.kcfg);
        let (slots, sweep) = (&self.slots, &self.sweep);
        let results = Universe::run_with_plan(live, plan, |comm| {
            run_update(view, n, kcfg, seq, slots, sweep, comm, tel)
        });
        self.slots.retain(|s| s.state.lock().is_some());
        // The frame is allreduced (identical on every survivor) but the
        // classification tallies are rank-local: take the first frame, sum
        // the tallies.
        let mut global = None;
        let (mut invalidated, mut retained) = (0u64, 0u64);
        for (frame, inv, ret) in results.into_iter().flatten() {
            global.get_or_insert(frame);
            invalidated += inv;
            retained += ret;
        }
        let global = global.unwrap_or_else(|| vec![0u64; self.n + 1]);

        // Re-bound ω on the mutated graph: the vertex diameter may have
        // grown. ω only ratchets up (shrinking it would invalidate the
        // a-priori cap argument for samples already drawn).
        let (vd_bound, scanned) =
            vertex_diameter_bound(self.log.view(), &mut self.vd_dist, &mut self.vd_queue);
        self.sweep_edges += scanned;
        self.vd = self.vd.max(vd_bound.min(self.n as u32));
        self.omega = self.omega.max(kadabra_core::omega(
            self.kcfg.c,
            self.kcfg.epsilon,
            self.kcfg.delta,
            self.vd,
        ));

        self.last_tau = global[self.n];
        self.last_achieved =
            achieved_epsilon(&global[..self.n], self.last_tau, self.omega, calibration)
                .min(if self.last_tau >= self.omega { self.kcfg.epsilon } else { 1.0 });
        self.last_global = global.clone();
        let compacted = self.log.maybe_compact();
        Ok(UpdateReport {
            seq,
            global,
            tau: self.last_tau,
            achieved: self.last_achieved,
            invalidated,
            retained,
            live: self.slots.len(),
            compacted,
        })
    }

    /// `(largest finite L, any disconnected pair?)` over every retained
    /// record of every live rank.
    fn record_horizon(&self) -> (u32, bool) {
        let mut lmax = 0u32;
        let mut any_disconnected = false;
        for slot in &self.slots {
            if let Some(st) = slot.state.lock().as_ref() {
                for th in &st.threads {
                    for r in th.store.recs() {
                        if r.dist == UNREACHED {
                            any_disconnected = true;
                        } else {
                            lmax = lmax.max(r.dist);
                        }
                    }
                }
            }
        }
        (lmax, any_disconnected)
    }
}

/// Per-rank body of one refinement round: allreduce epochs over the
/// overlay view, with sample recording and the shrink-and-continue crash
/// protocol. Survivors return `Some(global frame)`; dead ranks `None`.
#[allow(clippy::too_many_arguments)]
fn run_refine_round(
    view: &DynamicGraph,
    n: usize,
    kcfg: &KadabraConfig,
    omega: u64,
    max_epochs: u32,
    threads: usize,
    slots: &[DynSlot],
    start_global: &[u64],
    comm: Communicator,
    tel: &Telemetry,
) -> Option<Vec<u64>> {
    let me = comm.rank();
    let my_world = comm.world_rank();
    let id = slots[me].id;
    let w = tel.writer(id as u32, 0);
    comm.set_tracer(w.clone());
    let mut st = slots[me].state.lock().take()?;

    let mut comm = comm;
    let mut n0 = kcfg.n0(comm.size() * threads) * threads as u64;
    let mut s_global = start_global.to_vec();
    let mut epoch = 0u32;
    let mut dead = false;
    let sp_round = w.begin(SpanId::AdaptiveSampling);

    while epoch < max_epochs {
        w.set_epoch(epoch);
        let DynRankState { threads: ths, ledger, s_loc, .. } = &mut st;
        let marks: Vec<(usize, usize)> = ths.iter().map(|t| t.store.mark()).collect();
        let outcome = (|| -> Result<bool, CommError> {
            let sp = w.begin(SpanId::SampleBatch);
            for (t, th) in ths.iter_mut().enumerate() {
                let share = DynamicEngine::thread_share(n0, threads, t);
                let frame = &mut *s_loc;
                let store = &mut th.store;
                th.sampler.sample_batch_records(view, share, |s, tt, dist, interior| {
                    for &v in interior {
                        frame[v as usize] += 1;
                    }
                    frame[n] += 1;
                    store.push(s, tt, dist, interior);
                });
            }
            w.end(sp);
            let sp = w.begin(SpanId::IreduceWait);
            let reduced = comm.allreduce_sum_u64(s_loc)?;
            w.end(sp);
            w.count(CounterId::BytesReduced, s_loc.len() as u64 * 8);
            ledger.confirm(s_loc);
            s_loc.iter_mut().for_each(|x| *x = 0);
            w.count(CounterId::Samples, n0);
            let sp = w.begin(SpanId::Check);
            for (a, &x) in s_global.iter_mut().zip(&reduced) {
                *a += x;
            }
            // The only in-round stop is the deterministic τ ≥ ω cap; the
            // allreduce hands every rank the same frame, so the decision
            // needs no broadcast.
            let stop = s_global[n] >= omega;
            w.end(sp);
            Ok(stop)
        })();

        match outcome {
            Ok(stop) => {
                w.count(CounterId::Epochs, 1);
                epoch += 1;
                if stop {
                    break;
                }
            }
            Err(CommError::RankFailed { rank }) if rank == my_world => {
                dead = true;
                break;
            }
            Err(CommError::RankFailed { .. }) => {
                // The epoch's frame was never confirmed anywhere: roll the
                // stores back to their pre-epoch marks so they stay
                // ledger-exact, then shrink and resync from the survivors'
                // ledgers.
                for (th, &mark) in st.threads.iter_mut().zip(&marks) {
                    th.store.truncate_to(mark);
                }
                st.s_loc.iter_mut().for_each(|x| *x = 0);
                match kadabra_core::shrink_and_rebuild(&comm, &st.ledger, &w) {
                    Ok((small, rebuilt)) => {
                        comm = small;
                        s_global = rebuilt;
                        n0 = kcfg.n0(comm.size() * threads) * threads as u64;
                        epoch += 1;
                    }
                    Err(e) if e.failed_rank() == Some(my_world) => {
                        dead = true;
                        break;
                    }
                    Err(e) => panic!("unrecoverable communicator failure: {e}"),
                }
            }
            Err(e) => panic!("unrecoverable communicator failure: {e}"),
        }
    }
    w.end(sp_round);
    if dead {
        return None;
    }
    *slots[me].state.lock() = Some(st);
    Some(s_global)
}

/// Per-rank body of one update batch: classify every retained record,
/// redraw the invalidated ones on the new view, and allreduce the post-
/// transaction ledgers into the new global frame. Survivors return
/// `Some((global, invalidated, retained))`.
#[allow(clippy::too_many_arguments)]
fn run_update(
    view: &DynamicGraph,
    n: usize,
    kcfg: &KadabraConfig,
    seq: u64,
    slots: &[DynSlot],
    sweep: &SweepScratch,
    comm: Communicator,
    tel: &Telemetry,
) -> Option<(Vec<u64>, u64, u64)> {
    let me = comm.rank();
    let my_world = comm.world_rank();
    let id = slots[me].id;
    let w = tel.writer(id as u32, 0);
    comm.set_tracer(w.clone());
    let mut st = slots[me].state.lock().take()?;
    let sp_update = w.begin(SpanId::Update);

    let mut invalidated = 0u64;
    let mut retained = 0u64;
    {
        let DynRankState { threads: ths, ledger, bitmap, rescratch, .. } = &mut st;
        let sp = w.begin(SpanId::Invalidate);
        for (t, th) in ths.iter_mut().enumerate() {
            bitmap.reset(th.store.len());
            classify_samples(
                th.store.recs(),
                n,
                &sweep.del_slots,
                &sweep.dist_old,
                &sweep.ins_slots,
                &sweep.dist_new,
                bitmap,
            );
            let mut rng = StdRng::seed_from_u64(mix_seed(
                kcfg.seed ^ REDRAW_STREAM_SALT ^ seq,
                id as u64,
                t as u64,
            ));
            let store = &mut th.store;
            let redrawn = resample_invalidated(bitmap, ledger, rescratch, |i, retract, confirm| {
                for &v in store.interior(i) {
                    retract[v as usize] += 1;
                }
                let rec = store.recs()[i];
                let info = {
                    let PathStore { scratch, redraw_stats, .. } = store;
                    sample_shortest_path_into(view, rec.s, rec.t, scratch, &mut rng, redraw_stats)
                };
                let dist = info.map_or(UNREACHED, |inf| inf.distance);
                store.replace_with_scratch_path(i, dist);
                for &v in store.interior(i) {
                    confirm[v as usize] += 1;
                }
            });
            store.compact_pool();
            invalidated += redrawn as u64;
            retained += store.len() as u64 - redrawn as u64;
        }
        w.end(sp);
    }
    w.count(CounterId::SamplesInvalidated, invalidated);
    w.count(CounterId::SamplesRetained, retained);

    // The collective: Σ live ledgers is the new global frame. A crash here
    // fires *after* the local transaction, so survivors' ledgers are
    // already post-update — shrink_and_rebuild recomputes the same sum over
    // the smaller pool.
    let global = match comm.allreduce_sum_u64(st.ledger.frame()) {
        Ok(g) => g,
        Err(CommError::RankFailed { rank }) if rank == my_world => {
            w.end(sp_update);
            return None;
        }
        Err(CommError::RankFailed { .. }) => {
            // shrink_and_rebuild's allreduce over the survivors *is* the
            // collective this batch needs: Σ survivor ledgers.
            match kadabra_core::shrink_and_rebuild(&comm, &st.ledger, &w) {
                Ok((_small, rebuilt)) => rebuilt,
                Err(e) if e.failed_rank() == Some(my_world) => {
                    w.end(sp_update);
                    return None;
                }
                Err(e) => panic!("unrecoverable communicator failure: {e}"),
            }
        }
        Err(e) => panic!("unrecoverable communicator failure: {e}"),
    };
    w.end(sp_update);
    *slots[me].state.lock() = Some(st);
    Some((global, invalidated, retained))
}
