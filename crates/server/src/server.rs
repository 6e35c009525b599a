//! The service front-end: a resident [`Server`] owning named tenants, and
//! per-thread [`Client`] handles that answer queries through the admission
//! gate with every request recorded as a telemetry span.
//!
//! Tenants added on one input graph share its
//! [`PreparedGraph`](crate::PreparedGraph): the server keeps a registry of
//! prepared graphs by the input's identity, so relabel and diameter run
//! once per graph, not once per tenant.
//!
//! Queries (`vertex`, `estimate`, `topk`) only read the estimate cache —
//! they never block on the engine. `refine` locks the tenant's engine and
//! advances it in deterministic rounds. An optional background worker per
//! tenant keeps refining toward the schedule floor until it is reached, so
//! an idle server converges to its tightest ε on its own.

use crate::prepared::PreparedRegistry;
use crate::sync::{AtomicBool, AtomicU32, Ordering};
use crate::tenant::{
    EstimateMeta, QueryScratch, RefineOutcome, Tenant, TenantConfig, UpdateOutcome, VertexEstimate,
};
use kadabra_core::pool::EngineCheckpoint;
use kadabra_graph::{Graph, NodeId};
use kadabra_telemetry::{CounterId, EventWriter, SpanId, Telemetry};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Telemetry rank id of service-side writers (tenant warmup); client and
/// background-worker writers are offset from it. Far above any sampler rank
/// so event streams sort service activity after pool activity.
pub const SERVICE_RANK: u32 = 1 << 16;

/// Why a query was not answered.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// No tenant with that name is resident.
    UnknownTenant,
    /// The tenant's admission gate shed the request (in-flight cap and
    /// waiter queue both full).
    Overloaded,
    /// The cache cannot answer yet at the requested accuracy; `achieved` is
    /// the accuracy it currently supports (1.0 before the first round).
    NotReady {
        /// Currently supported accuracy.
        achieved: f64,
    },
    /// The requested ε is tighter than the tenant's schedule floor.
    UnsatisfiableEps {
        /// The tightest ε the tenant will ever serve.
        floor: f64,
    },
    /// The queried vertex id is out of range.
    BadVertex,
    /// The tenant was provisioned statically and cannot accept streaming
    /// edge updates.
    NotDynamic,
    /// The tenant's pool cannot be elastically resized (dynamic pools own
    /// their retained-sample population per rank, so [`crate::Tenant::resize`]
    /// only applies to static pools).
    NotResizable,
    /// The update batch was structurally invalid or inconsistent with the
    /// tenant's live graph (the message carries the delta-log diagnosis).
    BadUpdate(String),
    /// The request itself was malformed (wire front-end only).
    BadRequest(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTenant => write!(f, "unknown tenant"),
            QueryError::Overloaded => write!(f, "overloaded: request shed by admission control"),
            QueryError::NotReady { achieved } => {
                write!(f, "not ready: cache supports eps {achieved} so far")
            }
            QueryError::UnsatisfiableEps { floor } => {
                write!(f, "unsatisfiable eps: schedule floor is {floor}")
            }
            QueryError::BadVertex => write!(f, "vertex id out of range"),
            QueryError::NotDynamic => {
                write!(f, "not dynamic: tenant does not accept streaming updates")
            }
            QueryError::NotResizable => {
                write!(f, "not resizable: dynamic pools cannot change rank count")
            }
            QueryError::BadUpdate(why) => write!(f, "bad update: {why}"),
            QueryError::BadRequest(why) => write!(f, "bad request: {why}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// How the server is provisioned.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Use the deterministic telemetry clock (chaos/conformance runs); the
    /// default wall clock otherwise.
    pub deterministic: bool,
    /// Spawn one background worker per tenant that refines toward the
    /// schedule floor. Disable for deterministic test fixtures that drive
    /// refinement explicitly.
    pub background_refine: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { deterministic: false, background_refine: true }
    }
}

pub(crate) struct Inner {
    pub(crate) tel: Arc<Telemetry>,
    pub(crate) tenants: Mutex<Vec<Arc<Tenant>>>,
    prepared: PreparedRegistry,
    next_client: AtomicU32,
    background: bool,
    stop: Arc<AtomicBool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    pub(crate) fn find(&self, name: &str) -> Result<Arc<Tenant>, QueryError> {
        self.tenants
            .lock()
            .iter()
            .find(|t| t.name() == name)
            .cloned()
            .ok_or(QueryError::UnknownTenant)
    }
}

/// The resident service. Owns the tenants, the telemetry registry, and the
/// background refinement workers; [`Server::client`] hands out per-thread
/// query handles.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// An empty server.
    pub fn new(cfg: ServerConfig) -> Self {
        let tel =
            if cfg.deterministic { Telemetry::deterministic(0) } else { Telemetry::stats_only() };
        Server {
            inner: Arc::new(Inner {
                tel: Arc::new(tel),
                tenants: Mutex::new(Vec::new()),
                prepared: PreparedRegistry::default(),
                next_client: AtomicU32::new(0),
                background: cfg.background_refine,
                stop: Arc::new(AtomicBool::new(false)),
                workers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Loads `g` as tenant `name` (setup phases + warmup run synchronously;
    /// the call returns with the tenant queryable). A tenant on a graph —
    /// the same `Graph` or a clone of it — that another resident tenant was
    /// added on shares that tenant's [`PreparedGraph`](crate::PreparedGraph);
    /// calibration, pool, cache and overlay are always the new tenant's
    /// own. Panics if the name is already taken.
    pub fn add_tenant(&self, name: &str, g: &Graph, cfg: &TenantConfig) {
        assert!(self.inner.find(name).is_err(), "tenant {name:?} is already resident");
        cfg.validate();
        let prepared = self.inner.prepared.prepare(g);
        let tenant = Arc::new(Tenant::on_prepared(name, prepared, cfg, &self.inner.tel));
        self.inner.tenants.lock().push(Arc::clone(&tenant));
        if self.inner.background {
            let tel = Arc::clone(&self.inner.tel);
            let stop = Arc::clone(&self.inner.stop);
            let worker_id = SERVICE_RANK + 4096 + self.inner.workers.lock().len() as u32;
            let handle = std::thread::spawn(move || {
                let w = tel.writer(worker_id, 0);
                let floor = tenant.floor_eps();
                while !stop.load(Ordering::Relaxed) {
                    let out = tenant.refine(floor, 1, &tel, &w);
                    if out.rounds_run == 0 || out.achieved <= floor || out.live == 0 {
                        break; // converged (or the whole pool died)
                    }
                }
            });
            self.inner.workers.lock().push(handle);
        }
    }

    /// The tenant handle, if resident.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>, QueryError> {
        self.inner.find(name)
    }

    /// Names of the resident tenants, in load order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.inner.tenants.lock().iter().map(|t| t.name().to_string()).collect()
    }

    /// The server's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.tel
    }

    /// A fresh per-thread query handle with its own telemetry writer (one
    /// client per thread — the writer is single-writer by contract).
    pub fn client(&self) -> Client {
        Client::from_inner(&self.inner)
    }

    /// Checkpoints a tenant's sampling state (see
    /// [`kadabra_core::pool::SamplerPool::checkpoint`]).
    pub fn checkpoint(&self, name: &str) -> Result<EngineCheckpoint, QueryError> {
        Ok(self.inner.find(name)?.checkpoint())
    }

    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// Waits for every background worker to converge to its tenant's
    /// schedule floor (returns immediately when background refinement is
    /// off).
    pub fn drain_background(&self) {
        let workers = std::mem::take(&mut *self.inner.workers.lock());
        for h in workers {
            // A panicked worker already tore down its own refinement loop;
            // draining must not propagate its panic.
            let _ = h.join();
        }
    }

    /// Stops background refinement and joins the workers.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.drain_background();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A per-thread query handle. All query methods go through the tenant's
/// admission gate and record a telemetry span; answers come from the
/// estimate cache only ([`Client::refine`] is the one engine-touching call).
pub struct Client {
    inner: Arc<Inner>,
    w: EventWriter,
}

impl Client {
    pub(crate) fn from_inner(inner: &Arc<Inner>) -> Client {
        let idx = inner.next_client.fetch_add(1, Ordering::Relaxed);
        let w = inner.tel.writer(SERVICE_RANK + 1 + idx, 0);
        Client { inner: Arc::clone(inner), w }
    }

    /// Scratch buffers sized for the named tenant.
    pub fn scratch(&self, tenant: &str) -> Result<QueryScratch, QueryError> {
        Ok(QueryScratch::new(self.inner.find(tenant)?.num_vertices()))
    }

    /// Names of the resident tenants, in load order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.inner.tenants.lock().iter().map(|t| t.name().to_string()).collect()
    }

    /// Admission + span + served/shed accounting around one query body.
    fn guarded<T>(
        &self,
        t: &Tenant,
        span: SpanId,
        f: impl FnOnce() -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let sp = self.w.begin(span);
        let res = match t.admission().admit() {
            Ok(_permit) => {
                let r = f();
                self.w.count(CounterId::QueriesServed, 1);
                r
            }
            Err(_) => {
                self.w.count(CounterId::QueriesShed, 1);
                Err(QueryError::Overloaded)
            }
        };
        self.w.end(sp);
        res
    }

    /// Per-vertex estimate with its confidence interval, from the frontier.
    pub fn vertex(&self, tenant: &str, v: NodeId) -> Result<VertexEstimate, QueryError> {
        let t = self.inner.find(tenant)?;
        self.guarded(&t, SpanId::Query, || t.vertex_estimate(v))
    }

    /// Full estimate vector at accuracy `eps`, from the matching frozen
    /// stage (bit-stable across calls). `out` is filled in original vertex
    /// order.
    pub fn estimate_into(
        &self,
        tenant: &str,
        eps: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<f64>,
    ) -> Result<EstimateMeta, QueryError> {
        let t = self.inner.find(tenant)?;
        self.guarded(&t, SpanId::Query, || t.estimate_into(eps, scratch, out))
    }

    /// Top-k vertices by estimated betweenness, from the frontier.
    pub fn topk_into(
        &self,
        tenant: &str,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<(NodeId, f64)>,
    ) -> Result<EstimateMeta, QueryError> {
        let t = self.inner.find(tenant)?;
        self.guarded(&t, SpanId::Query, || t.topk_into(k, scratch, out))
    }

    /// Accuracy-on-deadline: refines the tenant until the frontier supports
    /// `eps`, running at most `max_rounds` engine rounds. Errs with
    /// [`QueryError::UnsatisfiableEps`] below the schedule floor;
    /// [`QueryError::NotReady`] when the budget ran out first (the partial
    /// progress is still published).
    pub fn refine(
        &self,
        tenant: &str,
        eps: f64,
        max_rounds: u32,
    ) -> Result<RefineOutcome, QueryError> {
        let t = self.inner.find(tenant)?;
        if eps < t.floor_eps() {
            return Err(QueryError::UnsatisfiableEps { floor: t.floor_eps() });
        }
        self.guarded(&t, SpanId::Refine, || {
            let out = t.refine(eps, max_rounds, &self.inner.tel, &self.w);
            if out.achieved > eps {
                return Err(QueryError::NotReady { achieved: out.achieved });
            }
            Ok(out)
        })
    }

    /// Applies one batch of edge updates (original vertex ids) to a dynamic
    /// tenant, then re-refines for up to `refine_rounds` rounds. Errs with
    /// [`QueryError::NotDynamic`] on static tenants and
    /// [`QueryError::BadUpdate`] on batches the delta log rejects.
    pub fn update(
        &self,
        tenant: &str,
        inserts: &[(NodeId, NodeId)],
        deletes: &[(NodeId, NodeId)],
        refine_rounds: u32,
    ) -> Result<UpdateOutcome, QueryError> {
        let t = self.inner.find(tenant)?;
        self.guarded(&t, SpanId::Update, || {
            t.update(inserts, deletes, refine_rounds, &self.inner.tel, &self.w)
        })
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;
    use kadabra_graph::generators::{grid, GridConfig};

    fn fixture() -> Server {
        let s = Server::new(ServerConfig { deterministic: true, background_refine: false });
        let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 0 });
        s.add_tenant("grid", &g, &TenantConfig::new(17));
        s
    }

    #[test]
    fn unknown_tenant_is_typed() {
        let s = fixture();
        let c = s.client();
        assert_eq!(c.vertex("nope", 0).unwrap_err(), QueryError::UnknownTenant);
    }

    #[test]
    fn refine_then_query_round_trip() {
        let s = fixture();
        let c = s.client();
        let out = c.refine("grid", 0.25, 64).expect("refine to 0.25");
        assert!(out.achieved <= 0.25);
        let v = c.vertex("grid", 12).expect("vertex answer");
        assert!(v.tau > 0);
        let mut scratch = c.scratch("grid").expect("tenant");
        let mut top = Vec::new();
        let meta = c.topk_into("grid", 5, &mut scratch, &mut top).expect("topk");
        assert_eq!(top.len(), 5);
        assert!(meta.eps <= 0.25);
    }

    #[test]
    fn refine_below_floor_is_rejected_without_admission() {
        let s = fixture();
        let c = s.client();
        let e = c.refine("grid", 1e-9, 1).unwrap_err();
        assert!(matches!(e, QueryError::UnsatisfiableEps { .. }));
    }

    #[test]
    fn background_worker_converges_to_the_floor() {
        let s = Server::new(ServerConfig { deterministic: true, background_refine: true });
        let g = grid(GridConfig { rows: 4, cols: 4, diagonal_prob: 0.0, seed: 0 });
        s.add_tenant("grid", &g, &TenantConfig::new(3));
        s.drain_background();
        let t = s.tenant("grid").expect("resident");
        assert!(
            t.achieved_eps() <= t.floor_eps(),
            "idle server must converge to the floor, got {}",
            t.achieved_eps()
        );
    }

    #[test]
    fn served_and_shed_counters_flow_to_telemetry() {
        let s = fixture();
        let c = s.client();
        c.refine("grid", 0.5, 64).expect("refine");
        let _ = c.vertex("grid", 0);
        let summary = s.telemetry().summary();
        let served = summary.counter(CounterId::QueriesServed);
        assert!(served >= 2, "refine + vertex must count as served, got {served}");
    }
}
