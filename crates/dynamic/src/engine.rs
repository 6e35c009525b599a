//! The incremental sampling engine: what is *dynamic* about a dynamic
//! tenant — the [`DeltaLog`], the sweeps, the per-rank update body, the ω
//! ratchet and the fault-plan salts — around the resident pool every tenant
//! samples with (`kadabra_core::pool`). The pool's streams record every
//! sample they draw in a [`PathStore`] and its rounds traverse the log's
//! overlay view, so the retained population is *maintained* across edge
//! updates and no CSR rebuild sits between a batch and the next epoch.
//!
//! An update batch ([`DynamicEngine::apply_update`]) runs the §14 pipeline:
//!
//! 1. **Sweep (old view)** — BFS distance tables from the deletion
//!    endpoints, before the batch applies.
//! 2. **Append** — the batch enters the [`DeltaLog`]; the overlay now
//!    serves the new graph.
//! 3. **Sweep (new view)** — tables from the insertion endpoints.
//! 4. **Classify + re-sample** — inside one launch of the pool's world,
//!    every rank classifies each retained record against the tables
//!    ([`classify_samples`]), then redraws exactly the invalidated ones on
//!    the new view through `kadabra_core::resample_invalidated`, which
//!    retracts the stale interior mass and confirms the redrawn mass in one
//!    τ-conserving ledger transaction. Redraws come from dedicated
//!    per-`(seed, batch, rank, thread)` streams, so the maintained estimate
//!    stays a pure deterministic function of
//!    `(graph, update sequence, config, seed)`.
//!
//! # The mirror invariant
//!
//! Classification reads the stores, the transaction writes the ledger: at
//! that moment every store must hold exactly the samples its rank's ledger
//! counts. A round parks its last overlap unconfirmed, with records in the
//! stores, so `apply_update` drops it first (DESIGN.md §14.4).
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
use kadabra_core::sampler::mix_seed;
use kadabra_core::{
    own_crash_or_fatal, resample_invalidated, shrink_and_rebuild, KadabraConfig, RankState,
    ResampleScratch, RoundReport, SamplerPool, ValidityBitmap,
};
use kadabra_graph::bibfs::sample_shortest_path_into;
use kadabra_graph::scratch::UNREACHED;
use kadabra_graph::{Graph, GraphView, NodeId};
use kadabra_mpisim::{CommError, Communicator, FaultPlan};
use kadabra_telemetry::{CounterId, EventWriter, SpanId, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::invalidate::{classify_samples, vertex_diameter_bound, PathStore, SweepScratch};
use crate::log::{DeltaLog, UpdateBatch, UpdateError};
use crate::overlay::DynamicGraph;

/// Salt folded into redraw streams so they can never collide with the
/// adaptive streams (`ADS_STREAM_OFFSET` space) or the calibration streams.
const REDRAW_STREAM_SALT: u64 = 0xD1B5_4A32_D192_ED03;

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
    /// The resident ranks; every stream retains its samples in a
    /// [`PathStore`] that mirrors the rank's ledger (module docs).
    pool: SamplerPool<PathStore>,
    vd: u32,
    max_epochs_per_round: u32,
    base_plan: FaultPlan,
    log: DeltaLog,
    sweep: SweepScratch,
    vd_dist: Vec<u32>,
    vd_queue: Vec<NodeId>,
    /// Cumulative classification/diagnostic BFS edges (engine-level, not
    /// tied to any rank's sampler).
    sweep_edges: u64,
}

impl DynamicEngine {
    /// A fresh incremental pool of `ranks × threads` sampler streams over
    /// `base`, which may be shared with other engines (see
    /// [`DeltaLog::new`]). `omega`/`vd` come from the caller's diameter
    /// phase on the base graph (the engine re-bounds them itself after
    /// every batch).
    #[expect(
        clippy::too_many_arguments,
        reason = "the pool's shape, the diameter bound and the base plan"
    )]
    pub fn new(
        base: impl Into<Arc<Graph>>,
        kcfg: KadabraConfig,
        omega: u64,
        vd: u32,
        ranks: usize,
        threads: usize,
        max_epochs_per_round: u32,
        base_plan: FaultPlan,
    ) -> Self {
        assert!(max_epochs_per_round >= 1, "a round must run at least one epoch");
        let base = base.into();
        let n = base.num_nodes();
        DynamicEngine {
            pool: SamplerPool::new(n, kcfg, omega, ranks, threads, || PathStore::new(n)),
            vd,
            max_epochs_per_round,
            base_plan,
            log: DeltaLog::new(base),
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

    /// The resident pool: live ranks, rounds, τ, accuracy, ω, checkpoint.
    pub fn pool(&self) -> &SamplerPool<PathStore> {
        &self.pool
    }

    /// The sample cap ω currently in force.
    pub fn omega(&self) -> u64 {
        self.pool.status().omega
    }

    /// The vertex-diameter bound currently in force.
    pub fn vertex_diameter(&self) -> u32 {
        self.vd
    }

    /// Confirmed samples after the last completed run.
    pub fn last_tau(&self) -> u64 {
        self.pool.status().tau
    }

    /// The maintained global frame (per-vertex counts + τ).
    pub fn last_global(&self) -> Vec<u64> {
        self.pool.frame()
    }

    /// Total traversal edges scanned across the engine's lifetime: every
    /// live sampler stream, every redraw, and every classification /
    /// diameter sweep. The deterministic work measure
    /// `tests/dynamic_conformance.rs` holds an update's cost to.
    pub fn work_edges(&self) -> u64 {
        let mut total = self.sweep_edges;
        self.pool.for_each_rank(|st| {
            for th in &st.streams {
                total += th.sampler.stats.edges_scanned + th.sink.redraw_stats.edges_scanned;
            }
        });
        total
    }

    /// Runs one fixed-length refinement round on the current view: every
    /// live rank executes up to `max_epochs_per_round` epochs, recording
    /// every sample in its stream stores. Deterministic per
    /// `(graph, updates, config, seed, round)`.
    pub fn refine(&mut self, calibration: &Calibration, tel: &Telemetry) -> RoundReport {
        // Odd salts ≥ 1: crash-free (the crash schedule is reserved for the
        // first update batch — see the module docs).
        let plan = self.base_plan.reseeded(1 + 2 * self.pool.status().round);
        self.pool.round(self.log.view(), plan, self.max_epochs_per_round, calibration, tel)
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
    ) -> RoundReport {
        let mut report = self.pool.refresh(calibration);
        let mut rounds = 0;
        while report.achieved > target_eps
            && report.tau < self.omega()
            && rounds < max_rounds
            && report.live > 0
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
        assert!(self.pool.status().live > 0, "apply_update on an empty pool");
        // The mirror invariant (module docs): from here to the end of the
        // batch every store holds exactly what its rank's ledger counts.
        self.pool.drop_unconfirmed();

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

        #[expect(
            clippy::expect_used,
            reason = "`validate` ran on this exact batch above; append re-checks the same \
                      invariants against an unchanged view"
        )]
        let seq = self.log.append(batch).expect("batch validated above");
        tel.writer(0, 0).count(CounterId::EdgesApplied, batch.len() as u64);

        let mut eps = Vec::new();
        batch.insert_endpoints(&mut eps);
        self.sweep_edges += self.sweep.sweep_new(self.log.view(), eps, ins_cap, batch.inserts());

        // First batch (seq 1) runs under the base plan verbatim — salt 0,
        // crash schedule armed; later batches use crash-free even salts ≥ 2.
        let plan = self.base_plan.reseeded(2 * (seq - 1));

        let kcfg = *self.pool.config();
        let (view, sweep) = (self.log.view(), &self.sweep);
        // The classification tallies are rank-local: sum them.
        let (invalidated, retained) = self
            .pool
            .run(plan, tel, |comm, st, w| run_update(view, &kcfg, seq, sweep, comm, st, w))
            .into_iter()
            .fold((0, 0), |(inv, ret), (i, r)| (inv + i, ret + r));

        // Re-bound ω on the mutated graph: the vertex diameter may have
        // grown.
        let (vd_bound, scanned) =
            vertex_diameter_bound(self.log.view(), &mut self.vd_dist, &mut self.vd_queue);
        self.sweep_edges += scanned;
        self.vd = self.vd.max(vd_bound.min(self.log.view().num_nodes() as u32));
        self.pool.raise_omega(kadabra_core::omega(kcfg.c, kcfg.epsilon, kcfg.delta, self.vd));

        // Σ survivor ledgers — post-transaction — is the maintained frame
        // on the *new* graph.
        let rep = self.pool.refresh(calibration);
        let compacted = self.log.maybe_compact();
        Ok(UpdateReport {
            seq,
            global: rep.global,
            tau: rep.tau,
            achieved: rep.achieved,
            invalidated,
            retained,
            live: rep.live,
            compacted,
        })
    }

    /// `(largest finite L, any disconnected pair?)` over every retained
    /// record of every live rank.
    fn record_horizon(&self) -> (u32, bool) {
        let mut lmax = 0u32;
        let mut any_disconnected = false;
        self.pool.for_each_rank(|st| {
            for th in &st.streams {
                for r in th.sink.recs() {
                    if r.dist == UNREACHED {
                        any_disconnected = true;
                    } else {
                        lmax = lmax.max(r.dist);
                    }
                }
            }
        });
        (lmax, any_disconnected)
    }
}

/// Per-rank body of one update batch: classify every retained record,
/// redraw the invalidated ones on the new view, then join the batch's one
/// collective. Survivors return `Some((invalidated, retained))`.
fn run_update(
    view: &DynamicGraph,
    kcfg: &KadabraConfig,
    seq: u64,
    sweep: &SweepScratch,
    comm: Communicator,
    st: &mut RankState<PathStore>,
    w: &EventWriter,
) -> Option<(u64, u64)> {
    let my_world = comm.world_rank();
    let n = view.num_nodes();
    let sp_update = w.begin(SpanId::Update);

    let mut invalidated = 0u64;
    let mut retained = 0u64;
    {
        let RankState { id, streams, ledger, .. } = st;
        let mut bitmap = ValidityBitmap::all_valid(0);
        let mut rescratch = ResampleScratch::new(n);
        let sp = w.begin(SpanId::Invalidate);
        for (t, th) in streams.iter_mut().enumerate() {
            let store = &mut th.sink;
            bitmap.reset(store.len());
            classify_samples(
                store.recs(),
                n,
                &sweep.del_slots,
                &sweep.dist_old,
                &sweep.ins_slots,
                &sweep.dist_new,
                &mut bitmap,
            );
            let mut rng = StdRng::seed_from_u64(mix_seed(
                kcfg.seed ^ REDRAW_STREAM_SALT ^ seq,
                *id as u64,
                t as u64,
            ));
            let redrawn =
                resample_invalidated(&bitmap, ledger, &mut rescratch, |i, retract, confirm| {
                    for &v in store.interior(i) {
                        retract[v as usize] += 1;
                    }
                    let rec = store.recs()[i];
                    let info = {
                        let PathStore { scratch, redraw_stats, .. } = store;
                        sample_shortest_path_into(
                            view,
                            rec.s,
                            rec.t,
                            scratch,
                            &mut rng,
                            redraw_stats,
                        )
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

    // The collective: Σ live ledgers is the new global frame (the engine
    // folds it from the parked ledgers once the world has returned). A
    // crash here fires *after* the local transaction, so survivors' ledgers
    // are already post-update — shrink_and_rebuild's allreduce over the
    // survivors *is* the collective this batch needs.
    let joined = match comm.allreduce_sum_u64(st.ledger.frame()) {
        Err(CommError::RankFailed { rank }) if rank != my_world => {
            shrink_and_rebuild(&comm, &st.ledger, w).map(drop)
        }
        other => other.map(drop),
    };
    w.end(sp_update);
    if let Err(e) = joined {
        // Its own scheduled crash: this rank leaves the pool.
        let batch = u32::try_from(seq).unwrap_or(u32::MAX);
        own_crash_or_fatal(&e, &comm, kcfg, "an update batch", batch);
        return None;
    }
    Some((invalidated, retained))
}
