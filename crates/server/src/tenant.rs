//! A tenant: one named resident graph with its own sampler pool, estimate
//! cache, δ calibration, and admission gate.
//!
//! Building a tenant runs the same setup phases as the flat driver —
//! degree-relabel, iFUB diameter, calibration with per-rank sampler
//! streams — so a tenant's estimates are comparable sample-for-sample with a
//! `kadabra_mpi_flat` run at the same seed and rank count. The first two
//! are the graph's alone and come in a [`PreparedGraph`], which a server
//! shares among the tenants on one graph; calibration and everything after
//! it are the tenant's own. Queries read the [`EstimateCache`] without
//! touching the pool; refinement locks the pool and advances it in
//! deterministic fixed-length rounds.

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::{EstimateCache, FrontierSnapshot, StageSnapshot};
use crate::prepared::PreparedGraph;
use crate::sync::{AtomicU64, Ordering};
use crate::QueryError;
use kadabra_core::bounds::{f_bound, g_bound};
use kadabra_core::calibration::Calibration;
use kadabra_core::phases::{calibrate_for_pool, Prepared};
use kadabra_core::pool::{EngineCheckpoint, PoolStatus, RoundReport, SamplerPool};
use kadabra_core::KadabraConfig;
use kadabra_dynamic::{DynamicEngine, UpdateBatch};
use kadabra_graph::{Graph, NodeId};
use kadabra_mpisim::FaultPlan;
use kadabra_telemetry::{CounterId, EventWriter, SpanId, Telemetry};
use parking_lot::Mutex;
use std::sync::Arc;

/// How a tenant is provisioned.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Resident sampler ranks in the tenant's pool.
    pub pool_ranks: usize,
    /// Failure probability δ of every guarantee the tenant hands out.
    pub delta: f64,
    /// Master seed; with the same seed, graph, and fault plan the tenant's
    /// whole cache history is bit-reproducible.
    pub seed: u64,
    /// Strictly descending ε stages; the last entry is the floor the
    /// background pool refines toward, and the tightest `estimate` queries
    /// can ask for.
    pub schedule: Vec<f64>,
    /// Reduction epochs per pool round — the determinism quantum (see
    /// [`kadabra_core::pool`]).
    pub max_epochs_per_round: u32,
    /// Base of the epoch-length rule (smaller epochs = finer-grained
    /// rounds); defaults to the driver's `KadabraConfig` default.
    pub n0_base: f64,
    /// Rounds run synchronously at build time, so the cache is warm before
    /// the first query.
    pub warmup_rounds: u32,
    /// Per-tenant admission limits.
    pub admission: AdmissionConfig,
    /// Fault plan for the pool's collectives (crash faults included — the
    /// chaos harness injects them here).
    pub plan: FaultPlan,
    /// Provision the pool as an incremental [`DynamicEngine`] that accepts
    /// streaming edge updates ([`Tenant::update`]). Static tenants reject
    /// updates with [`QueryError::NotDynamic`].
    pub dynamic: bool,
}

impl TenantConfig {
    /// Service defaults at the given seed: 2 ranks, δ = 0.1, a four-stage
    /// schedule down to ε = 0.06, ideal (fault-free) delivery.
    pub fn new(seed: u64) -> Self {
        TenantConfig {
            pool_ranks: 2,
            delta: 0.1,
            seed,
            schedule: vec![0.5, 0.25, 0.12, 0.06],
            max_epochs_per_round: 2,
            n0_base: KadabraConfig::default().n0_base,
            warmup_rounds: 1,
            admission: AdmissionConfig::default(),
            plan: FaultPlan::ideal(seed),
            dynamic: false,
        }
    }

    /// Panics on nonsense: empty/non-descending schedules, out-of-range δ,
    /// an empty pool.
    pub fn validate(&self) {
        assert!(self.pool_ranks >= 1, "pool_ranks must be >= 1");
        assert!(self.delta > 0.0 && self.delta < 1.0, "delta must be in (0, 1)");
        assert!(!self.schedule.is_empty(), "schedule must have at least one stage");
        for w in self.schedule.windows(2) {
            assert!(w[1] < w[0], "schedule must be strictly descending");
        }
        for &e in &self.schedule {
            assert!(e > 0.0 && e < 1.0, "stage epsilons must be in (0, 1)");
        }
        assert!(self.max_epochs_per_round >= 1, "rounds must run at least one epoch");
        assert!(self.n0_base >= 1.0, "n0_base must be at least 1");
    }
}

/// Reusable per-client query buffers: queries fill these in place, so the
/// steady-state read path performs no allocation (counted by
/// `tests/read_vertex_alloc.rs`).
pub struct QueryScratch {
    /// Frontier snapshot target.
    pub frontier: FrontierSnapshot,
    /// Frozen-stage snapshot target.
    pub stage: StageSnapshot,
    /// Index permutation reused by top-k selection.
    pub idx: Vec<u32>,
}

impl QueryScratch {
    /// Scratch sized for an `n`-vertex tenant.
    pub fn new(n: usize) -> Self {
        QueryScratch {
            frontier: FrontierSnapshot::new(n),
            stage: StageSnapshot::new(n),
            idx: (0..n as u32).collect(),
        }
    }
}

/// A per-vertex answer: the point estimate plus its two-sided confidence
/// interval at the tenant's δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexEstimate {
    /// The queried vertex (original id).
    pub vertex: NodeId,
    /// Betweenness point estimate c̃/τ.
    pub estimate: f64,
    /// Lower confidence bound `max(0, b̃ − f)`.
    pub lower: f64,
    /// Upper confidence bound `min(1, b̃ + g)`.
    pub upper: f64,
    /// Accuracy of the frontier the answer came from.
    pub eps: f64,
    /// Samples behind the answer.
    pub tau: u64,
    /// Engine round that published the answer.
    pub round: u64,
}

/// Metadata accompanying a full-vector or top-k answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateMeta {
    /// Accuracy of the snapshot the answer came from (a frozen stage ε for
    /// `estimate`, the live frontier ε for `topk`).
    pub eps: f64,
    /// Samples behind the answer.
    pub tau: u64,
    /// Engine round that published the snapshot.
    pub round: u64,
}

/// What an update call achieved (dynamic tenants only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// Sequence number the batch was assigned in the tenant's delta log.
    pub seq: u64,
    /// Retained samples that crossed the batch and were redrawn.
    pub invalidated: u64,
    /// Retained samples kept as-is (provably unaffected).
    pub retained: u64,
    /// Confirmed samples after the update (and any follow-up refinement).
    pub tau: u64,
    /// Accuracy the maintained frame supports on the updated graph.
    pub achieved: f64,
    /// Cache generation the post-update answers publish under.
    pub generation: u64,
    /// Sampler ranks still alive.
    pub live: usize,
    /// Whether the delta log compacted back into a fresh CSR.
    pub compacted: bool,
}

/// What a resize call achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizeOutcome {
    /// Fresh ranks added to the pool.
    pub joined: usize,
    /// Ranks retired from the pool (their ledgers folded into a survivor).
    pub shed: usize,
    /// Pool size after the call.
    pub live: usize,
    /// Cache generation the post-resize frontier publishes under
    /// (unchanged when the call was a no-op).
    pub generation: u64,
    /// Confirmed samples after the call — always conserved across resizes.
    pub tau: u64,
}

/// What a refine call achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOutcome {
    /// Accuracy after the call.
    pub achieved: f64,
    /// Confirmed samples after the call.
    pub tau: u64,
    /// Engine rounds actually run (0 if the target was already met).
    pub rounds_run: u32,
    /// Sampler ranks still alive.
    pub live: usize,
}

/// The tenant's sampler pool: one that retains nothing, stepped here, or
/// the incremental [`DynamicEngine`] around one whose retained sample
/// population is maintained across streaming edge updates.
enum TenantEngine {
    Static {
        /// The prepared graph's degree-relabeled CSR.
        g: Arc<Graph>,
        pool: Box<SamplerPool<()>>,
        /// Round `r` runs under `plan.reseeded(r)`: the crash schedule is
        /// armed in round 0 only.
        plan: FaultPlan,
        epochs: u32,
    },
    /// Starts from the prepared graph's CSR as its base; the live graph
    /// evolves inside the engine's delta log, whose first compaction gives
    /// the tenant a private base.
    Dynamic(Box<DynamicEngine>),
}

impl TenantEngine {
    /// The pool's numbers between rounds (a dynamic pool's ω ratchets up as
    /// updates stretch the graph).
    fn status(&self) -> PoolStatus {
        match self {
            TenantEngine::Static { pool, .. } => pool.status(),
            TenantEngine::Dynamic(e) => e.pool().status(),
        }
    }

    /// One fixed-length round, under the engine's own plan-salt policy.
    fn round(&mut self, calibration: &Calibration, tel: &Telemetry) -> RoundReport {
        match self {
            TenantEngine::Static { g, pool, plan, epochs } => {
                let g: &Graph = g;
                pool.round(g, plan.reseeded(pool.status().round), *epochs, calibration, tel)
            }
            TenantEngine::Dynamic(e) => e.refine(calibration, tel),
        }
    }

    /// The base CSR the engine samples.
    fn base(&self) -> &Arc<Graph> {
        match self {
            TenantEngine::Static { g, .. } => g,
            TenantEngine::Dynamic(e) => e.view().shared_base(),
        }
    }
}

/// One resident graph and everything needed to answer queries about it.
pub struct Tenant {
    name: String,
    /// Vertex count of the resident graph, which the engine holds.
    n: usize,
    /// Relabeled CSR, permutation and diameter bound, possibly shared with
    /// other tenants on the same graph.
    prepared: Arc<PreparedGraph>,
    /// Provisioned pool size — what an elastic refine sheds back to.
    base_ranks: usize,
    /// Sample cap in force; mirrors the dynamic engine's ratcheting ω so
    /// the lock-free confidence-interval path stays honest after updates.
    omega: AtomicU64,
    floor: f64,
    delta: f64,
    calibration: Calibration,
    cache: EstimateCache,
    engine: Mutex<TenantEngine>,
    admission: Admission,
}

impl Tenant {
    /// Provisions a tenant on its own: prepares `g` (relabel, diameter) and
    /// goes on as [`Tenant::on_prepared`].
    pub fn build(name: &str, g: &Graph, cfg: &TenantConfig, tel: &Telemetry) -> Tenant {
        cfg.validate();
        Tenant::on_prepared(name, Arc::new(PreparedGraph::new(g)), cfg, tel)
    }

    /// Provisions a tenant on a prepared graph: calibration (mirroring the
    /// flat driver's per-rank streams at `pool_ranks`), engine, and
    /// `warmup_rounds` synchronous rounds so the cache starts warm.
    pub fn on_prepared(
        name: &str,
        prepared: Arc<PreparedGraph>,
        cfg: &TenantConfig,
        tel: &Telemetry,
    ) -> Tenant {
        cfg.validate();
        let rg = prepared.graph();
        let n = rg.num_nodes();
        #[expect(clippy::unwrap_used, reason = "validate() rejects empty schedules")]
        let floor = *cfg.schedule.last().unwrap();
        let kcfg = KadabraConfig {
            epsilon: floor,
            delta: cfg.delta,
            seed: cfg.seed,
            n0_base: cfg.n0_base,
            ..Default::default()
        };
        // Calibration, sequentially replaying each pool rank's stream so the
        // δ budgets match what `kadabra_mpi_flat` at the same (seed, ranks)
        // would derive.
        let Prepared { omega, calibration, .. } =
            calibrate_for_pool(rg.as_ref(), &kcfg, prepared.vertex_diameter(), cfg.pool_ranks, 1);

        let engine = if cfg.dynamic {
            // One sampling stream per rank: the dynamic pool's adaptive
            // streams then coincide with a static pool's, so a dynamic
            // tenant that never receives an update samples identically.
            TenantEngine::Dynamic(Box::new(DynamicEngine::new(
                Arc::clone(rg),
                kcfg,
                omega,
                prepared.vertex_diameter(),
                cfg.pool_ranks,
                1,
                cfg.max_epochs_per_round,
                cfg.plan.clone(),
            )))
        } else {
            TenantEngine::Static {
                g: Arc::clone(rg),
                pool: Box::new(SamplerPool::new(n, kcfg, omega, cfg.pool_ranks, 1, || ())),
                plan: cfg.plan.clone(),
                epochs: cfg.max_epochs_per_round,
            }
        };
        let tenant = Tenant {
            name: name.to_string(),
            n,
            prepared,
            base_ranks: cfg.pool_ranks,
            omega: AtomicU64::new(omega),
            floor,
            delta: cfg.delta,
            calibration,
            cache: EstimateCache::new(n, &cfg.schedule),
            engine: Mutex::new(engine),
            admission: Admission::new(cfg.admission),
        };
        if cfg.warmup_rounds > 0 {
            let w = tel.writer(crate::SERVICE_RANK, 0);
            // Refine toward the floor with a `warmup_rounds` budget: the
            // cache is guaranteed at least one publication before the first
            // query.
            tenant.refine(0.0, cfg.warmup_rounds, tel, &w);
        }
        tenant
    }

    /// The prepared graph the tenant was built on.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// The base CSR the tenant's engine samples: the prepared graph's until
    /// a dynamic tenant's first compaction, a private one after it.
    pub fn base_graph(&self) -> Arc<Graph> {
        Arc::clone(self.engine.lock().base())
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vertex count of the resident graph.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The tightest ε the schedule reaches.
    pub fn floor_eps(&self) -> f64 {
        self.floor
    }

    /// The ε schedule.
    pub fn schedule(&self) -> Vec<f64> {
        self.cache.schedule()
    }

    /// Sample cap ω for the schedule floor (ratchets up on dynamic tenants
    /// as updates stretch the graph).
    pub fn omega(&self) -> u64 {
        self.omega.load(Ordering::Relaxed)
    }

    /// Whether this tenant accepts streaming edge updates.
    pub fn is_dynamic(&self) -> bool {
        matches!(&*self.engine.lock(), TenantEngine::Dynamic(_))
    }

    /// Vertex-diameter upper bound used to derive ω.
    pub fn vertex_diameter(&self) -> u32 {
        self.prepared.vertex_diameter()
    }

    /// Failure probability δ of the tenant's guarantees.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The admission gate (exposed for the front-end and tests).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The estimate cache (exposed for tests and the bench harness).
    pub fn cache(&self) -> &EstimateCache {
        &self.cache
    }

    /// The accuracy currently published in the frontier (1.0 before the
    /// first publication).
    pub fn achieved_eps(&self) -> f64 {
        self.cache.read_vertex(0).map_or(1.0, |r| r.eps)
    }

    /// Advances the engine until the frontier supports `target_eps` (clamped
    /// at the schedule floor), up to `max_rounds` rounds, publishing each
    /// round's frame to the cache. Deterministic: round boundaries never
    /// depend on the caller, only the number of rounds run does.
    pub fn refine(
        &self,
        target_eps: f64,
        max_rounds: u32,
        tel: &Telemetry,
        w: &EventWriter,
    ) -> RefineOutcome {
        let target = target_eps.max(self.floor);
        let mut eng = self.engine.lock();
        let mut rounds = 0u32;
        let mut at = eng.status();
        while rounds < max_rounds && at.live > 0 && at.achieved > target && at.tau < at.omega {
            let rep = eng.round(&self.calibration, tel);
            let sp = w.begin(SpanId::CachePublish);
            let counts = &rep.global[..self.n];
            self.cache.publish_frontier(counts, rep.tau, rep.achieved, rep.round);
            w.end(sp);
            rounds += 1;
            at = eng.status();
        }
        RefineOutcome { achieved: at.achieved, tau: at.tau, rounds_run: rounds, live: at.live }
    }

    /// Provisioned pool size (what [`Tenant::refine_elastic`] sheds back to).
    pub fn base_ranks(&self) -> usize {
        self.base_ranks
    }

    /// Sampler ranks currently in the pool.
    pub fn pool_ranks(&self) -> usize {
        self.engine.lock().status().live
    }

    /// Elastically resizes the pool to `ranks` sampler ranks at a round
    /// boundary (static tenants only — dynamic pools own their retained
    /// samples per rank and return [`QueryError::NotResizable`]).
    ///
    /// Under the engine lock: the pool grows with fresh-stream ranks or
    /// sheds its youngest ranks (folding their ledgers into a survivor —
    /// `[Σc̃, τ]` is conserved either way) and the cache moves to a new
    /// generation whose first frontier is the current frame, in one cache
    /// call, so readers never see answers that straddle the membership
    /// change and never find the frontier missing. A no-op resize leaves
    /// the generation alone.
    pub fn resize(
        &self,
        ranks: usize,
        _tel: &Telemetry,
        w: &EventWriter,
    ) -> Result<ResizeOutcome, QueryError> {
        assert!(ranks >= 1, "a pool needs at least one sampler rank");
        let mut eng = self.engine.lock();
        let TenantEngine::Static { pool, .. } = &mut *eng else {
            return Err(QueryError::NotResizable);
        };
        let at = pool.status();
        if at.live == ranks {
            return Ok(ResizeOutcome {
                joined: 0,
                shed: 0,
                live: ranks,
                generation: self.cache.generation(),
                tau: at.tau,
            });
        }
        let sp = w.begin(SpanId::Rebalance);
        let (joined, shed) = pool.resize(ranks);
        if joined > 0 {
            w.count(CounterId::RanksJoined, joined as u64);
        }
        let global = pool.frame();
        let n = self.n;
        let tau = global[n];
        let frame = (tau > 0).then(|| (&global[..n], tau, at.achieved, at.round));
        let generation = self.cache.advance_generation(frame);
        w.end(sp);
        Ok(ResizeOutcome { joined, shed, live: ranks, generation, tau })
    }

    /// Refines toward `target_eps` within a hard budget of `round_budget`
    /// engine rounds, elastically resizing the pool under deadline pressure:
    /// if the first half of the budget ends short of the target, the pool
    /// grows to `max_ranks` (publishing post-grow frontiers under a new
    /// cache generation) and spends the rest of the budget at the wider
    /// size; afterwards — target met or budget exhausted — the pool sheds
    /// back to its provisioned size. Deterministic: the grow decision
    /// depends only on round counts and the engine's own ε trajectory.
    ///
    /// Dynamic tenants never resize; for them this is plain [`Tenant::refine`].
    pub fn refine_elastic(
        &self,
        target_eps: f64,
        round_budget: u32,
        max_ranks: usize,
        tel: &Telemetry,
        w: &EventWriter,
    ) -> RefineOutcome {
        assert!(max_ranks >= 1);
        let target = target_eps.max(self.floor);
        let probe_budget = (round_budget / 2).max(1).min(round_budget);
        let mut out = self.refine(target_eps, probe_budget, tel, w);
        if out.achieved > target && round_budget > probe_budget {
            // Deadline pressure: half the budget is gone and the target is
            // still out of reach — grow (where possible) and spend the rest
            // of the budget at the wider size.
            if self.pool_ranks() < max_ranks {
                let _ = self.resize(max_ranks, tel, w);
            }
            let rest = self.refine(target_eps, round_budget - probe_budget, tel, w);
            out = RefineOutcome { rounds_run: out.rounds_run + rest.rounds_run, ..rest };
        }
        if self.pool_ranks() > self.base_ranks {
            // Idle again (or out of budget): shed back to the provisioned
            // size so the grown capacity does not outlive the pressure.
            if let Ok(r) = self.resize(self.base_ranks, tel, w) {
                out.live = r.live;
            }
        }
        out
    }

    /// Checkpoints the pool's ledgers (see [`SamplerPool::checkpoint`]).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        match &*self.engine.lock() {
            TenantEngine::Static { pool, .. } => pool.checkpoint(),
            TenantEngine::Dynamic(e) => e.pool().checkpoint(),
        }
    }

    /// Applies one batch of edge updates to a dynamic tenant (original
    /// vertex ids). Under the engine lock: the batch enters the delta log,
    /// exactly the invalidated samples are redrawn, and one cache call
    /// retires every answer about the old graph while publishing the
    /// maintained post-update frame as the new generation's first frontier,
    /// so readers never see a mixed-generation answer and never find the
    /// frontier missing. Afterwards up to
    /// `refine_rounds` rounds re-converge the invalidated mass toward the
    /// schedule floor.
    pub fn update(
        &self,
        inserts: &[(NodeId, NodeId)],
        deletes: &[(NodeId, NodeId)],
        refine_rounds: u32,
        tel: &Telemetry,
        w: &EventWriter,
    ) -> Result<UpdateOutcome, QueryError> {
        let n = self.n;
        let map = |pairs: &[(NodeId, NodeId)]| -> Result<Vec<(NodeId, NodeId)>, QueryError> {
            pairs
                .iter()
                .map(|&(u, v)| {
                    if (u as usize) >= n || (v as usize) >= n {
                        return Err(QueryError::BadVertex);
                    }
                    let perm = self.prepared.perm();
                    Ok((perm.to_new(u), perm.to_new(v)))
                })
                .collect()
        };
        let batch = UpdateBatch::new(map(inserts)?, map(deletes)?)
            .map_err(|e| QueryError::BadUpdate(e.to_string()))?;

        let mut eng = self.engine.lock();
        let TenantEngine::Dynamic(dyn_eng) = &mut *eng else {
            return Err(QueryError::NotDynamic);
        };
        let sp = w.begin(SpanId::Update);
        let rep = dyn_eng
            .apply_update(&batch, &self.calibration, tel)
            .map_err(|e| QueryError::BadUpdate(e.to_string()))?;
        self.omega.store(dyn_eng.omega(), Ordering::Relaxed);
        let frame = (&rep.global[..n], rep.tau, rep.achieved, dyn_eng.pool().status().round);
        let generation = self.cache.advance_generation(Some(frame));
        w.end(sp);
        drop(eng);

        let mut out = UpdateOutcome {
            seq: rep.seq,
            invalidated: rep.invalidated,
            retained: rep.retained,
            tau: rep.tau,
            achieved: rep.achieved,
            generation,
            live: rep.live,
            compacted: rep.compacted,
        };
        if refine_rounds > 0 {
            let r = self.refine(0.0, refine_rounds, tel, w);
            out.achieved = r.achieved;
            out.tau = r.tau;
            out.live = r.live;
        }
        Ok(out)
    }

    /// Answers a per-vertex query from the frontier: point estimate plus the
    /// Bernstein confidence interval at the tenant's δ. Lock- and
    /// allocation-free.
    pub fn vertex_estimate(&self, v: NodeId) -> Result<VertexEstimate, QueryError> {
        if (v as usize) >= self.n {
            return Err(QueryError::BadVertex);
        }
        let j = self.prepared.perm().to_new(v);
        let read =
            self.cache.read_vertex(j as usize).ok_or(QueryError::NotReady { achieved: 1.0 })?;
        let b = read.count as f64 / read.tau.max(1) as f64;
        let omega = self.omega.load(Ordering::Relaxed);
        let f = f_bound(b, self.calibration.delta_l[j as usize], omega, read.tau);
        let g = g_bound(b, self.calibration.delta_u[j as usize], omega, read.tau);
        Ok(VertexEstimate {
            vertex: v,
            estimate: b,
            lower: (b - f).max(0.0),
            upper: (b + g).min(1.0),
            eps: read.eps,
            tau: read.tau,
            round: read.round,
        })
    }

    /// Answers a full-vector query at accuracy `eps` from the matching
    /// *frozen stage* (never the moving frontier), so repeated calls are
    /// bit-identical regardless of concurrent refinement. `out` is filled in
    /// original (pre-relabel) vertex order.
    pub fn estimate_into(
        &self,
        eps: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<f64>,
    ) -> Result<EstimateMeta, QueryError> {
        let stage =
            self.cache.stage_for(eps).ok_or(QueryError::UnsatisfiableEps { floor: self.floor })?;
        if !self.cache.read_stage_into(stage, &mut scratch.stage) {
            return Err(QueryError::NotReady { achieved: self.achieved_eps() });
        }
        let n = self.n;
        if out.len() != n {
            out.resize(n, 0.0);
        }
        let tau = scratch.stage.tau.max(1) as f64;
        let perm = self.prepared.perm();
        for (j, &c) in scratch.stage.counts.iter().enumerate() {
            out[perm.to_old(j as NodeId) as usize] = c as f64 / tau;
        }
        Ok(EstimateMeta {
            eps: self.cache.stage_eps(stage),
            tau: scratch.stage.tau,
            round: scratch.stage.round,
        })
    }

    /// Answers a top-k query from the frontier. Ties break like
    /// `BetweennessResult::top_k`: descending score, then ascending original
    /// vertex id. `out` receives `(vertex, score)` pairs.
    pub fn topk_into(
        &self,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<(NodeId, f64)>,
    ) -> Result<EstimateMeta, QueryError> {
        if !self.cache.read_frontier_into(&mut scratch.frontier) {
            return Err(QueryError::NotReady { achieved: 1.0 });
        }
        let n = self.n;
        let counts = &scratch.frontier.counts;
        let perm = self.prepared.perm();
        for (i, slot) in scratch.idx.iter_mut().enumerate() {
            *slot = i as u32;
        }
        scratch.idx.sort_unstable_by(|&a, &b| {
            counts[b as usize]
                .cmp(&counts[a as usize])
                .then_with(|| perm.to_old(a).cmp(&perm.to_old(b)))
        });
        let tau = scratch.frontier.tau.max(1) as f64;
        out.clear();
        for &j in scratch.idx.iter().take(k.min(n)) {
            out.push((perm.to_old(j), counts[j as usize] as f64 / tau));
        }
        Ok(EstimateMeta {
            eps: scratch.frontier.eps,
            tau: scratch.frontier.tau,
            round: scratch.frontier.round,
        })
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};

    fn small_tenant(seed: u64) -> (Tenant, Telemetry) {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let tel = Telemetry::stats_only();
        let cfg = TenantConfig { warmup_rounds: 2, ..TenantConfig::new(seed) };
        let t = Tenant::build("grid", &g, &cfg, &tel);
        (t, tel)
    }

    #[test]
    fn warmup_makes_the_frontier_readable() {
        let (t, _tel) = small_tenant(3);
        assert!(t.achieved_eps() < 1.0, "warmup must publish a frontier");
        let v = t.vertex_estimate(12).expect("frontier answer");
        assert!(v.tau > 0);
        assert!(v.lower <= v.estimate && v.estimate <= v.upper);
    }

    #[test]
    fn bad_vertex_is_rejected() {
        let (t, _tel) = small_tenant(3);
        assert!(matches!(t.vertex_estimate(10_000), Err(QueryError::BadVertex)));
    }

    #[test]
    fn estimate_requires_a_frozen_stage() {
        let (t, tel) = small_tenant(4);
        let mut scratch = QueryScratch::new(t.num_vertices());
        let mut out = Vec::new();
        // ε tighter than the floor is unsatisfiable by construction.
        assert!(matches!(
            t.estimate_into(0.001, &mut scratch, &mut out),
            Err(QueryError::UnsatisfiableEps { .. })
        ));
        // Refine to the coarsest stage, which must then answer.
        let w = tel.writer(7, 0);
        let outcome = t.refine(t.schedule()[0], 64, &tel, &w);
        assert!(outcome.achieved <= t.schedule()[0]);
        let meta = t.estimate_into(t.schedule()[0], &mut scratch, &mut out).expect("stage frozen");
        assert_eq!(out.len(), t.num_vertices());
        assert!(meta.tau > 0);
        let sum: f64 = out.iter().sum();
        assert!(sum > 0.0);
    }

    fn small_dynamic_tenant(seed: u64) -> (Tenant, Telemetry) {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let tel = Telemetry::stats_only();
        let cfg = TenantConfig { dynamic: true, warmup_rounds: 2, ..TenantConfig::new(seed) };
        let t = Tenant::build("grid", &g, &cfg, &tel);
        (t, tel)
    }

    #[test]
    fn static_tenants_reject_updates() {
        let (t, tel) = small_tenant(3);
        let w = tel.writer(7, 0);
        assert!(!t.is_dynamic());
        assert_eq!(t.update(&[(0, 24)], &[], 0, &tel, &w).unwrap_err(), QueryError::NotDynamic);
    }

    #[test]
    fn dynamic_update_bumps_the_generation_and_stays_answerable() {
        let (t, tel) = small_dynamic_tenant(11);
        let w = tel.writer(7, 0);
        t.refine(0.25, 64, &tel, &w);
        let gen_before = t.cache().generation();
        let v_before = t.vertex_estimate(12).expect("pre-update answer");

        // A valid batch: one chord in, one grid edge out.
        let out = t.update(&[(0, 24)], &[(0, 1)], 8, &tel, &w).expect("update applies");
        assert_eq!(out.seq, 1);
        assert!(out.generation > gen_before, "update must retire the old generation");
        assert_eq!(out.invalidated + out.retained, v_before.tau, "τ conserved across the batch");
        let v_after = t.vertex_estimate(12).expect("post-update answer");
        assert!(v_after.tau > 0);

        // Bad batches are typed: unknown vertex, then a duplicate insert.
        let w2 = tel.writer(8, 0);
        assert_eq!(t.update(&[(0, 10_000)], &[], 0, &tel, &w2).unwrap_err(), QueryError::BadVertex);
        assert!(matches!(
            t.update(&[(0, 24)], &[], 0, &tel, &w2).unwrap_err(),
            QueryError::BadUpdate(_)
        ));
    }

    #[test]
    fn dynamic_tenant_without_updates_matches_the_static_pool() {
        // Same seed, same pool: until the first update arrives, the dynamic
        // engine must publish the exact frames the static engine publishes.
        check_dynamic_matches_static(|dynamic| {
            if dynamic {
                small_dynamic_tenant(21)
            } else {
                small_tenant(21)
            }
        });
        // Also where τ reaches ω while the adaptive bounds still stand a
        // little above the floor (0.081 against 0.08): the a-priori bound
        // then covers the floor, so both floor stages must freeze.
        let g = crate::testkit::corpus_graph(23);
        let cfg =
            TenantConfig { schedule: vec![0.5, 0.08], n0_base: 150.0, ..TenantConfig::new(7) };
        check_dynamic_matches_static(|dynamic| {
            let tel = Telemetry::stats_only();
            (Tenant::build("gnm", &g, &TenantConfig { dynamic, ..cfg.clone() }, &tel), tel)
        });
    }

    fn check_dynamic_matches_static(build: impl Fn(bool) -> (Tenant, Telemetry)) {
        let (ts, tel_s) = build(false);
        let (td, tel_d) = build(true);
        let (ws, wd) = (tel_s.writer(7, 0), tel_d.writer(7, 0));
        let s = ts.refine(ts.floor_eps(), 64, &tel_s, &ws);
        let d = td.refine(td.floor_eps(), 64, &tel_d, &wd);
        assert_eq!(s.tau, d.tau, "stream-for-stream identical pools diverged");
        assert_eq!(s.achieved, d.achieved);
        let mut sc_s = QueryScratch::new(ts.num_vertices());
        let mut sc_d = QueryScratch::new(td.num_vertices());
        let (mut out_s, mut out_d) = (Vec::new(), Vec::new());
        ts.estimate_into(ts.floor_eps(), &mut sc_s, &mut out_s).expect("static stage");
        td.estimate_into(td.floor_eps(), &mut sc_d, &mut out_d).expect("dynamic stage");
        assert_eq!(out_s, out_d, "estimate vectors diverged");
    }

    #[test]
    fn resize_bumps_generation_and_conserves_tau() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let tel = Telemetry::stats_only();
        // Small rounds against a tight floor keep ω several rounds away, so
        // the pool still has headroom to refine after the resizes below.
        let cfg = TenantConfig {
            warmup_rounds: 2,
            n0_base: 200.0,
            schedule: vec![0.5, 0.25, 0.05],
            ..TenantConfig::new(7)
        };
        let t = Tenant::build("grid", &g, &cfg, &tel);
        let w = tel.writer(7, 0);
        t.refine(0.25, 8, &tel, &w);
        let tau_before = t.vertex_estimate(12).expect("frontier ready").tau;
        let gen_before = t.cache().generation();

        let grown = t.resize(4, &tel, &w).expect("static pools resize");
        assert_eq!((grown.joined, grown.shed, grown.live), (2, 0, 4));
        assert!(grown.generation > gen_before, "grow must retire the old generation");
        assert_eq!(grown.tau, tau_before, "τ conserved across grow");
        let v = t.vertex_estimate(12).expect("post-grow frontier published");
        assert_eq!(v.tau, tau_before);

        let shed = t.resize(1, &tel, &w).expect("static pools shed");
        assert_eq!((shed.joined, shed.shed, shed.live), (0, 3, 1));
        assert_eq!(shed.tau, tau_before, "τ conserved across shed");
        // And the narrow pool keeps refining.
        let r = t.refine(t.floor_eps(), 4, &tel, &w);
        assert!(r.tau > tau_before);
        // A no-op resize leaves the generation alone.
        let gen = t.cache().generation();
        assert_eq!(t.resize(1, &tel, &w).expect("no-op resize").generation, gen);
    }

    #[test]
    fn dynamic_tenants_reject_resize() {
        let (t, tel) = small_dynamic_tenant(7);
        let w = tel.writer(7, 0);
        assert_eq!(t.resize(4, &tel, &w).unwrap_err(), QueryError::NotResizable);
        assert_eq!(t.pool_ranks(), 2);
    }

    #[test]
    fn elastic_refine_grows_under_pressure_and_sheds_after() {
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        let tel = Telemetry::stats_only();
        // No warmup, small rounds, and a tight floor: the first half of a
        // small budget cannot reach the floor, so the deadline-pressure grow
        // must fire.
        let cfg = TenantConfig {
            warmup_rounds: 0,
            n0_base: 200.0,
            schedule: vec![0.5, 0.05],
            ..TenantConfig::new(9)
        };
        let t = Tenant::build("grid", &g, &cfg, &tel);
        let w = tel.writer(7, 0);
        let out = t.refine_elastic(t.floor_eps(), 6, 6, &tel, &w);
        assert!(out.rounds_run > 0);
        assert_eq!(t.pool_ranks(), t.base_ranks(), "grown capacity must be shed when idle");
        assert!(t.cache().generation() >= 2, "grow and shed each retire a generation");
        assert!(t.achieved_eps() < 1.0);
        // Deterministic: an identically provisioned tenant lands on the
        // same post-elastic state.
        let tel2 = Telemetry::stats_only();
        let t2 = Tenant::build("grid", &g, &cfg, &tel2);
        let w2 = tel2.writer(7, 0);
        let out2 = t2.refine_elastic(t2.floor_eps(), 6, 6, &tel2, &w2);
        assert_eq!(out.tau, out2.tau, "elastic refine diverged across identical tenants");
        assert_eq!(out.achieved, out2.achieved);
    }

    #[test]
    fn topk_is_sorted_and_tie_broken() {
        let (t, tel) = small_tenant(5);
        let w = tel.writer(7, 0);
        t.refine(0.25, 64, &tel, &w);
        let mut scratch = QueryScratch::new(t.num_vertices());
        let mut top = Vec::new();
        let meta = t.topk_into(10, &mut scratch, &mut top).expect("frontier ready");
        assert_eq!(top.len(), 10);
        assert!(meta.tau > 0);
        for pair in top.windows(2) {
            let ((va, sa), (vb, sb)) = (pair[0], pair[1]);
            assert!(sa > sb || (sa == sb && va < vb), "order violated: {pair:?}");
        }
    }
}
