//! `serve-mixed`: a resident `Server` with three identical dynamic tenants.
//!
//! One writer (this thread, through an in-process `Client`) refines each
//! tenant to the floor ε in turn (phase A). Beside it one reader holds a
//! single socket connection and sends an **open loop** of 20 requests/s at
//! the tenant being written — nine `vertex` reads, then a `topk` — each timed
//! from the moment it was due, sleeping between sends. That is all a plain run
//! reports, so it is all a plain run does. The traced run goes on: the writer
//! streams update batches into the first tenant beside the same reader
//! (phase B), and with the engine idle again the connection runs a **closed
//! loop** of `vertex` reads (phase C): one caller waiting for each reply
//! before sending the next.

use crate::inputs::Input;
use crate::solve::{against_brandes, config, max_deviation, WALL_RATE};
use crate::spans::Tracer;
use crate::speed::{at_nominal, Reference};
use crate::stats::{derive_seed, highest_supported_percentile, median, percentile, SplitMix64};
use crate::workload::{describe, peak_rss_mib, repeat_setup, Options, Record, DELTA};
use kadabra_core::kadabra_sequential;
use kadabra_graph::csr::graph_from_edges;
use kadabra_graph::{io, Graph, NodeId};
use kadabra_server::wire::SocketServer;
use kadabra_server::{Client, QueryError, Server, ServerConfig, TenantConfig};
use kadabra_telemetry::json::Json;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tenant names.
pub const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
/// Gap between paced requests: 20 requests/s. A reply takes up to one
/// delayed-ACK interval (≈ 40 ms) on this wire, so a faster schedule would
/// queue without bound.
const PERIOD: Duration = Duration::from_millis(50);
/// A paced read that completes later than this after its due time is late.
const DEADLINE: Duration = Duration::from_millis(100);
/// Every `TOPK_EVERY`-th paced request is a `topk`.
const TOPK_EVERY: u64 = 10;
/// ε of the from-scratch solve the served estimate is held against.
const CHECK_EPS: f64 = 0.01;
/// Largest ε, in floors, the small tenant of the Brandes check may claim.
const CLAIM_CAP: f64 = 1.5;

/// The ε schedule of a tenant whose floor is `floor`.
pub fn schedule(floor: f64) -> Vec<f64> {
    [0.5, 0.25, 0.1, 0.02].into_iter().filter(|&e| e > floor).chain([floor]).collect()
}

/// One sampler rank per tenant, dynamic, service defaults otherwise.
pub fn tenant_config(seed: u64, floor: f64) -> TenantConfig {
    TenantConfig {
        pool_ranks: 1,
        delta: DELTA,
        schedule: schedule(floor),
        dynamic: true,
        ..TenantConfig::new(seed)
    }
}

/// A server without background refinement: the benchmark drives every round.
pub fn new_server() -> Server {
    Server::new(ServerConfig { deterministic: false, background_refine: false })
}

/// One client connection speaking the line-delimited JSON protocol the way a
/// plain synchronous client would: one `write` per request, then a blocking
/// read of the reply line.
pub struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Wire {
    /// Connects to a listening server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Wire { stream, reader, line: String::new() })
    }

    /// Sends one request line and returns the parsed reply.
    pub fn ask(&mut self, request: &str) -> Result<Json, String> {
        debug_assert!(request.ends_with('\n'));
        self.stream.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
        self.line.clear();
        self.reader.read_line(&mut self.line).map_err(|e| e.to_string())?;
        Json::parse(self.line.trim_end())
    }

    /// A `vertex` read, checked: `Ok` carries nothing, `Err` says what failed.
    pub fn vertex(&mut self, tenant: &str, v: NodeId) -> Result<(), ReadError> {
        let reply = self.ask(&format!("{{\"op\":\"vertex\",\"tenant\":\"{tenant}\",\"v\":{v}}}\n"));
        let reply = refused(reply)?;
        let field = |k: &str| reply.get(k).and_then(Json::as_f64);
        match (field("vertex"), field("lower"), field("estimate"), field("upper"), field("tau")) {
            (Some(id), Some(lo), Some(est), Some(hi), Some(tau))
                if id == f64::from(v) && lo <= est && est <= hi && tau >= 1.0 =>
            {
                Ok(())
            }
            _ => Err(ReadError::Wrong(format!("vertex {v}: incoherent reply {reply:?}"))),
        }
    }

    /// A `topk` read, checked: `k` entries in descending score order.
    pub fn topk(&mut self, tenant: &str, k: usize) -> Result<(), ReadError> {
        let reply = self.ask(&format!("{{\"op\":\"topk\",\"tenant\":\"{tenant}\",\"k\":{k}}}\n"));
        let reply = refused(reply)?;
        let scores: Option<Vec<f64>> = reply
            .get("top")
            .and_then(Json::as_array)
            .and_then(|top| top.iter().map(|e| e.get("score").and_then(Json::as_f64)).collect());
        match scores {
            Some(s) if s.len() == k && s.windows(2).all(|w| w[0] >= w[1]) => Ok(()),
            _ => Err(ReadError::Wrong(format!("topk {k}: unsorted or short reply {reply:?}"))),
        }
    }
}

/// Why a read did not produce a usable answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadError {
    /// `not_ready`: the cache had nothing to serve (ROADMAP item 1's window).
    NotReady,
    /// `overloaded`: shed by admission control.
    Shed,
    /// Transport failure or another error code.
    Other(String),
    /// The reply arrived and is wrong.
    Wrong(String),
}

fn refused(reply: Result<Json, String>) -> Result<Json, ReadError> {
    let reply = reply.map_err(ReadError::Other)?;
    if matches!(reply.get("ok"), Some(Json::Bool(true))) {
        return Ok(reply);
    }
    Err(match reply.get("code").and_then(Json::as_str) {
        Some("not_ready") => ReadError::NotReady,
        Some("overloaded") => ReadError::Shed,
        other => ReadError::Other(format!("error reply {other:?}")),
    })
}

/// Time source of the open loop; the tests substitute a scripted one.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Sleeps (never spins) until `t`; returns at once if `t` has passed.
    fn sleep_until(&self, t: Duration);
}

/// The wall clock.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One request of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When it was sent — later than `due` if the previous reply stalled.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
}

impl Paced {
    /// Latency as an independent user sees it: from the due time, so the
    /// wait a stalled reply imposes on later requests is charged to them.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }
    /// How late the generator ran.
    pub fn lateness(&self) -> Duration {
        self.sent - self.due
    }
}

/// Sends request `i` at `start + i·period` for as long as `keep_going`, one
/// at a time over one connection. The schedule never slips: a request whose
/// due time passed while the previous one was in flight goes out at once.
pub fn open_loop(
    clock: &impl Clock,
    period: Duration,
    mut keep_going: impl FnMut() -> bool,
    mut exchange: impl FnMut(u64),
) -> Vec<Paced> {
    let start = clock.now();
    let mut out = Vec::new();
    for i in 0u64.. {
        let due = start + period * i as u32;
        clock.sleep_until(due);
        if !keep_going() {
            break;
        }
        let sent = clock.now();
        exchange(i);
        out.push(Paced { due, sent, done: clock.now() });
    }
    out
}

/// An edge list in original vertex ids.
pub type Edges = Vec<(NodeId, NodeId)>;

/// Generates update batches that are valid against the evolving edge set:
/// deletions come from base edges still present, insertions are pairs absent
/// from the base and not inserted before.
pub struct BatchGen<'g> {
    base: &'g Graph,
    rng: SplitMix64,
    deleted: BTreeSet<(NodeId, NodeId)>,
    inserted: BTreeSet<(NodeId, NodeId)>,
}

impl<'g> BatchGen<'g> {
    /// A generator over `base` at `seed`.
    pub fn new(base: &'g Graph, seed: u64) -> Self {
        BatchGen {
            base,
            rng: SplitMix64::new(seed),
            deleted: BTreeSet::new(),
            inserted: BTreeSet::new(),
        }
    }

    fn vertex(&mut self) -> NodeId {
        self.rng.below(self.base.num_nodes() as u64) as NodeId
    }

    /// The next batch: `(inserts, deletes)`, `edges` of each.
    pub fn next_batch(&mut self, edges: usize) -> (Edges, Edges) {
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        while del.len() < edges {
            let u = self.vertex();
            let nbrs = self.base.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            let v = nbrs[self.rng.below(nbrs.len() as u64) as usize];
            let e = (u.min(v), u.max(v));
            if self.deleted.insert(e) {
                del.push(e);
            }
        }
        while ins.len() < edges {
            let (u, v) = (self.vertex(), self.vertex());
            let e = (u.min(v), u.max(v));
            if u != v && !self.base.has_edge(u, v) && self.inserted.insert(e) {
                ins.push(e);
            }
        }
        (ins, del)
    }

    /// The graph after every batch handed out so far.
    pub fn current_graph(&self) -> Graph {
        let kept = self.base.edges().filter(|&(u, v)| u < v && !self.deleted.contains(&(u, v)));
        let edges: Vec<(NodeId, NodeId)> = kept.chain(self.inserted.iter().copied()).collect();
        graph_from_edges(self.base.num_nodes(), &edges)
    }
}

/// A running server with its socket front-end.
struct Running {
    server: Server,
    socket: SocketServer,
}

/// The set-up a user of the service pays with the input on disk: load the
/// graph, start the server, add the tenants (relabel, diameter, calibration
/// and a warm-up round each), listen.
fn boot(input: &Input, cfg: &TenantConfig, tracer: &mut Tracer) -> (Graph, Running) {
    let open = tracer.begin("setup");
    let (g, _) = tracer.timed("setup:graph.read_path", || io::read_path(&input.path));
    let g = g.expect("verified input loads");
    let server = new_server();
    for name in TENANTS {
        let ((), _) = tracer.timed("setup:server.add_tenant", || server.add_tenant(name, &g, cfg));
    }
    let socket = server.listen("127.0.0.1:0").expect("bind a loopback port");
    tracer.end(open);
    (g, Running { server, socket })
}

/// The whole served estimate of `tenant` (the frontier, in original vertex
/// order) and the ε the server claims for it.
fn served_scores(client: &Client, tenant: &str, n: usize) -> Result<(Vec<f64>, f64), QueryError> {
    let mut scratch = client.scratch(tenant)?;
    let mut top = Vec::new();
    let meta = client.topk_into(tenant, n, &mut scratch, &mut top)?;
    let mut scores = vec![0.0; n];
    for (v, score) in top {
        scores[v as usize] = score;
    }
    Ok((scores, meta.eps))
}

/// The served path on a small instance, held against Brandes: every vertex
/// within the ε the server claims for its answer. On so small a graph the
/// engine can stop at the sample cap ω with a claim a little above the floor
/// (`refine` then reports `NotReady`, which is not a failure here), so a claim
/// up to [`CLAIM_CAP`] floors is taken at its word; a larger one fails the
/// check, since a claim of ε = 1 would admit any estimate.
fn oracle(opts: &Options, rec: &mut Record) {
    let floor = 0.05;
    against_brandes(opts, rec, |small| {
        let server = new_server();
        let cfg = tenant_config(derive_seed(opts.seed, opts.workload.name, 0), floor);
        server.add_tenant("small", small, &cfg);
        let client = server.client();
        match client.refine("small", floor, u32::MAX) {
            Ok(_) | Err(QueryError::NotReady { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
        let (scores, eps) =
            served_scores(&client, "small", small.num_nodes()).map_err(|e| e.to_string())?;
        if eps > CLAIM_CAP * floor {
            return Err(format!(
                "refined to the floor {floor}, the server claims only ε = {eps:.4}"
            ));
        }
        Ok((scores, eps.max(floor)))
    });
}

/// What the reader thread brings back.
struct Reads {
    wire: Wire,
    tracer: Tracer,
    /// `(is_topk, timing, outcome)` per paced request.
    samples: Vec<(bool, Paced, Result<(), ReadError>)>,
}

/// The open loop beside the writer, on its own thread. A refused read is not
/// asked again: `not_ready` after a tenant's first publish is the window of
/// ROADMAP item 1, and it counts as a failed operation.
fn reader(
    mut wire: Wire,
    mut tracer: Tracer,
    n: usize,
    seed: u64,
    current: &AtomicUsize,
    stop: &AtomicBool,
) -> Reads {
    let mut rng = SplitMix64::new(seed);
    let mut outcomes = Vec::new();
    let paced = open_loop(
        &Wall(Instant::now()),
        PERIOD,
        || !stop.load(Ordering::Relaxed),
        |i| {
            let tenant = TENANTS[current.load(Ordering::Relaxed)];
            let topk = i % TOPK_EVERY == TOPK_EVERY - 1;
            tracer.next_op();
            let open = tracer.begin(if topk { "read:topk" } else { "read:vertex" });
            let v = rng.below(n as u64) as NodeId;
            let outcome = if topk { wire.topk(tenant, 10) } else { wire.vertex(tenant, v) };
            tracer.end(open);
            outcomes.push((topk, outcome));
        },
    );
    let samples = paced.into_iter().zip(outcomes).map(|(p, (k, o))| (k, p, o)).collect();
    Reads { wire, tracer, samples }
}

/// Why a paced read is a failed operation, if it is one: refused —
/// `not_ready` after the tenant's first publish (ROADMAP item 1's window) and
/// `overloaded` included, with no second try — or wrong. A read that is merely
/// late is counted ([`DEADLINE`], `server.reads_late`) but does not fail: on
/// this shared host a stall of the whole VM makes a handful of reads late in
/// one run and none in the next, and a count of failures that differs between
/// two runs of the same code cannot gate anything.
fn failure(outcome: &Result<(), ReadError>) -> Option<String> {
    outcome.as_ref().err().map(|e| format!("{e:?}"))
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Set-up, checks and the measured phases. Returns the loaded graph for the
/// layer probes.
pub fn measure(opts: &Options, input: &Input, tracer: &mut Tracer, rec: &mut Record) -> Graph {
    let w = opts.workload;
    let floor = w.eps;
    let cfg = tenant_config(derive_seed(opts.seed, w.name, 1), floor);
    let at = |what: &str, rep: usize| format!("{what} ({}, seed {}, rep {rep})", w.name, opts.seed);

    tracer.next_op();
    let ((g, running), setup) = repeat_setup(|| boot(input, &cfg, tracer));
    let n = g.num_nodes();
    describe(w, &g);
    rec.set_median("setup_s", &setup);
    let mut reference = Reference::new(w.threads(), w.memory_share);

    oracle(opts, rec);

    // Phases B and C produce only per-layer numbers, and only the traced run
    // reports those: a plain run skips them. Each gets half of `--seconds`.
    let phase = Duration::from_secs_f64(opts.seconds / 2.0);
    let client: Client = running.server.client();
    let current = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let wire = Wire::connect(running.socket.addr()).expect("connect to the listener");
    let reader_tracer = Tracer::new(opts.trace, tracer.origin(), 1);
    let read_seed = derive_seed(opts.seed, w.name, 2);

    let (mut refine_s, mut rates, mut rounds, mut traced, mut untraced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut walls, mut wall_rates) = (Vec::new(), Vec::new());
    let (mut update_ms, mut invalidated, mut inv_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut batches = BatchGen::new(&g, derive_seed(opts.seed, w.name, 3));

    let reads = std::thread::scope(|s| {
        let handle = s.spawn(|| reader(wire, reader_tracer, n, read_seed, &current, &stop));

        // Phase A: each tenant from its warm-up round to the floor ε.
        let mut slowdown = rec.read_speed(&mut reference, tracer);
        for (i, name) in TENANTS.into_iter().enumerate() {
            current.store(i, Ordering::Relaxed);
            let spans_on = opts.trace && i != 1;
            tracer.set_enabled(spans_on);
            tracer.next_op();
            let before = client.vertex(name, 0).map_or(0, |v| v.tau);
            let (out, wall) = tracer.timed("refine", || client.refine(name, floor, u32::MAX));
            let was = std::mem::replace(&mut slowdown, rec.read_speed(&mut reference, tracer));
            rec.ops += 1;
            match out {
                Ok(out) => {
                    let took = at_nominal(wall.as_secs_f64(), was, slowdown);
                    eprintln!(
                        "# {} rep {i}: {:.4} s wall, {took:.4} s at the nominal speed, {} samples",
                        w.name,
                        wall.as_secs_f64(),
                        out.tau - before
                    );
                    refine_s.push(took);
                    rates.push((out.tau - before) as f64 / took);
                    walls.push(wall.as_secs_f64());
                    wall_rates.push((out.tau - before) as f64 / wall.as_secs_f64());
                    rounds.push(f64::from(out.rounds_run));
                    if spans_on { &mut traced } else { &mut untraced }.push(took);
                    rec.set_one("core.samples", out.tau as f64);
                }
                Err(e) => rec.fail(at(&format!("refine {name}: {e}"), i)),
            }
        }
        tracer.set_enabled(opts.trace);

        // Phase B: update batches into t0, the reader following.
        current.store(0, Ordering::Relaxed);
        let began = Instant::now();
        while opts.trace && (update_ms.len() < 4 || began.elapsed() < phase) {
            let rep = update_ms.len();
            let (ins, del) = batches.next_batch(opts.sizes.batch_edges);
            tracer.next_op();
            let (out, took) = tracer.timed("update", || client.update(TENANTS[0], &ins, &del, 0));
            rec.ops += 1;
            update_ms.push(took.as_secs_f64() * 1e3);
            match out {
                Ok(out) => {
                    invalidated.push(out.invalidated as f64);
                    inv_ratio.push(
                        out.invalidated as f64 / (out.invalidated + out.retained).max(1) as f64,
                    );
                }
                Err(e) => rec.wrong(at(&format!("update t0: {e}"), rep)),
            }
        }
        stop.store(true, Ordering::Relaxed);
        handle.join().expect("reader thread")
    });
    let Reads { mut wire, tracer: reader_tracer, samples } = reads;

    // Phase C: engine idle, one caller waiting for each reply.
    if opts.trace {
        let mut rng = SplitMix64::new(derive_seed(opts.seed, w.name, 4));
        let began = Instant::now();
        let mut sync_reads = 0u64;
        tracer.next_op();
        let open = tracer.begin("closed-loop reads");
        while began.elapsed() < phase {
            rec.ops += 1;
            match wire.vertex(TENANTS[0], rng.below(n as u64) as NodeId) {
                Ok(()) => sync_reads += 1,
                Err(ReadError::Wrong(why)) => {
                    rec.wrong(at(&format!("sync read: {why}"), sync_reads as usize));
                }
                Err(e) => rec.fail(at(&format!("sync read: {e:?}"), sync_reads as usize)),
            }
        }
        tracer.end(open);
        rec.set_one("sync_reads_per_s", sync_reads as f64 / began.elapsed().as_secs_f64());
    }

    // The paced reads: each is an operation.
    let (mut vertex_us, mut topk_us, mut late_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut not_ready, mut shed, mut late) = (0u32, 0u32, 0u32);
    for (i, (topk, paced, outcome)) in samples.iter().enumerate() {
        rec.ops += 1;
        late_us.push(micros(paced.lateness()));
        if *topk { &mut topk_us } else { &mut vertex_us }.push(micros(paced.latency()));
        not_ready += u32::from(*outcome == Err(ReadError::NotReady));
        shed += u32::from(*outcome == Err(ReadError::Shed));
        late += u32::from(paced.latency() > DEADLINE);
        if let Some(why) = failure(outcome) {
            let what = at(&format!("paced read: {why}"), i);
            if matches!(outcome, Err(ReadError::Wrong(_))) {
                rec.wrong(what);
            } else {
                rec.fail(what);
            }
        }
    }

    // What t0 serves now against a from-scratch solve of the graph it now
    // holds (the post-update one in the traced run): apart by at most the sum
    // of the two ε.
    tracer.next_op();
    let open = tracer.begin("harness:served-estimate check");
    match served_scores(&client, TENANTS[0], n) {
        Ok((served, eps)) => {
            let fresh = kadabra_sequential(
                &batches.current_graph(),
                &config(CHECK_EPS, derive_seed(opts.seed, w.name, 5)),
            );
            let (dev, allowed) = (max_deviation(&served, &fresh.scores), eps + CHECK_EPS);
            if dev > allowed {
                rec.wrong(at(&format!("served estimate after {} updates: {dev:.5} from a fresh solve, allowed {allowed:.5}", update_ms.len()), 0));
            }
            rec.set_one("core.err_over_eps", dev / allowed);
        }
        Err(e) => rec.wrong(at(&format!("full read of t0: {e}"), 0)),
    }
    tracer.end(open);

    let tenant = running.server.tenant(TENANTS[1]).expect("tenant is resident");
    rec.set_one("core.omega", tenant.omega() as f64);
    rec.set_one("core.samples_over_omega", rec.get("core.samples") / tenant.omega() as f64);
    rec.set_median("solve_s", &refine_s);
    rec.set_median("samples_per_s", &rates);
    rec.set_median("harness.solve_wall_s", &walls);
    rec.set_median(WALL_RATE, &wall_rates);
    rec.set_one("peak_rss_mib", peak_rss_mib(w.threads()));
    rec.set_median("server.refine_rounds", &rounds);
    rec.set_one("server.engine_round_ms", median(&walls) * 1e3 / median(&rounds));
    rec.set_median("update_p50_ms", &update_ms);
    rec.set_median("read_p50_us", &vertex_us);
    if !vertex_us.is_empty() {
        rec.set_one("server.read_p95_us", percentile(&vertex_us, 0.95));
        rec.set_one("server.read_max_us", percentile(&vertex_us, 1.0));
    }
    rec.set_median("topk_p50_us", &topk_us);
    rec.set_one("server.reads_not_ready", f64::from(not_ready));
    rec.set_one("server.reads_shed", f64::from(shed));
    rec.set_one("server.reads_late", f64::from(late));
    rec.set_median("server.generator_late_us", &late_us);
    rec.set_median("dynamic.invalidated_per_batch", &invalidated);
    rec.set_median("dynamic.invalidated_ratio", &inv_ratio);
    rec.set_trace_overhead(&traced, &untraced);
    let tail = highest_supported_percentile(vertex_us.len(), &[0.5, 0.9, 0.95, 0.99]);
    println!(
        "# {}: {} paced vertex reads, {} paced topk reads, {} update batches; highest percentile with 10 samples beyond it: {tail:?}",
        w.name,
        vertex_us.len(),
        topk_us.len(),
        update_ms.len()
    );
    tracer.absorb(reader_tracer);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_dynamic::UpdateBatch;
    use kadabra_graph::generators::{gnm, GnmConfig};
    use std::cell::Cell;

    /// A clock the test scripts: sleeping jumps to the target, an exchange
    /// advances it by that request's service time.
    struct Scripted(Cell<Duration>);

    impl Clock for Scripted {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_stalled_reply_charges_its_wait_to_the_requests_queued_behind_it() {
        let clock = Scripted(Cell::new(Duration::ZERO));
        // 50 ms schedule; request 1 stalls for 180 ms, the others take 1 ms.
        let service = [1, 180, 1, 1, 1, 1];
        let paced = open_loop(
            &clock,
            50 * MS,
            || clock.now() < 300 * MS,
            |i| clock.0.set(clock.now() + service[i as usize] * MS),
        );
        let got: Vec<(u128, u128, u128)> = paced
            .iter()
            .map(|p| (p.due.as_millis(), p.lateness().as_millis(), p.latency().as_millis()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 1),
                (50, 0, 180),
                // Due at 100 and 150 while request 1 was still in flight: sent
                // late, and timed from when they were due.
                (100, 130, 131),
                (150, 81, 82),
                (200, 32, 33),
                // The schedule has caught up; it never slipped.
                (250, 0, 1),
            ]
        );
    }

    #[test]
    fn a_refused_read_fails_and_an_answer_does_not_however_late() {
        assert_eq!(failure(&Ok(())), None);
        for refused in [ReadError::NotReady, ReadError::Shed, ReadError::Other("eof".into())] {
            assert!(failure(&Err(refused)).is_some());
        }
        // Lateness is counted from the due time, so a read queued behind a
        // stalled reply is late even though its own round trip was short.
        let queued = Paced { due: 50 * MS, sent: 140 * MS, done: 151 * MS };
        assert!(queued.latency() > DEADLINE);
    }

    #[test]
    fn the_open_loop_sleeps_to_each_due_time_when_replies_are_fast() {
        let clock = Scripted(Cell::new(Duration::ZERO));
        let paced = open_loop(
            &clock,
            50 * MS,
            || clock.now() < 120 * MS,
            |_| clock.0.set(clock.now() + MS),
        );
        assert_eq!(paced.len(), 3);
        assert!(paced.iter().all(|p| p.lateness().is_zero() && p.latency() == MS));
    }

    #[test]
    fn batches_repeat_per_seed_and_stay_valid_against_the_evolving_graph() {
        let g = gnm(GnmConfig { n: 60, m: 200, seed: 5 });
        let mut a = BatchGen::new(&g, 11);
        let mut b = BatchGen::new(&g, 11);
        let mut live = g.clone();
        for _ in 0..6 {
            let (ins, del) = a.next_batch(8);
            assert_eq!((ins.clone(), del.clone()), b.next_batch(8));
            assert_eq!((ins.len(), del.len()), (8, 8));
            let batch = UpdateBatch::new(ins, del).expect("no duplicates within a batch");
            batch.validate_against(&live).expect("valid against the edge set so far");
            live = a.current_graph();
            assert_eq!(live.num_edges(), g.num_edges());
        }
        assert_ne!(BatchGen::new(&g, 12).next_batch(8), BatchGen::new(&g, 11).next_batch(8));
    }

    #[test]
    fn the_schedule_ends_at_the_floor_and_descends() {
        assert_eq!(schedule(0.005), vec![0.5, 0.25, 0.1, 0.02, 0.005]);
        assert_eq!(schedule(0.05), vec![0.5, 0.25, 0.1, 0.05]);
        tenant_config(1, 0.05).validate();
    }
}
