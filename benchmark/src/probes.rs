//! Layer probes of the traced run: unit costs, timed from outside through
//! each layer's public functions, on the workload's own input. Every probe
//! is a span in the trace; none of them runs during a measured section.

use crate::inputs::Input;
use crate::serve::{new_server, tenant_config, BatchGen, Wire};
use crate::solve::{config, EPOCH_SHAPE, WALL_RATE};
use crate::spans::Tracer;
use crate::stats::{derive_seed, median};
use crate::workload::{Driver, Kind, Options, Record};
use kadabra_alloctrack::CountingAlloc;
use kadabra_cluster::{simulate, ClusterSpec, CostModel, ReduceStrategy, SimConfig};
use kadabra_core::bounds::{achieved_epsilon, stopping_condition};
use kadabra_core::{prepare, ClusterShape, KadabraConfig, KernelOptions, Prepared, ThreadSampler};
use kadabra_dynamic::{DynamicEngine, UpdateBatch};
use kadabra_epoch::EpochFramework;
use kadabra_graph::diameter::diameter;
use kadabra_graph::{io, Graph, GraphView, NodeId};
use kadabra_mpisim::{FaultPlan, Universe};
use kadabra_telemetry::{SpanId, Telemetry};
use std::hint::black_box;
use std::time::Instant;

/// Samples per kernel probe, taken in batches of [`KERNEL_BATCH`] after one
/// warm-up batch of the same size (the drivers sample in batches too; the
/// first batch sizes the sampler's buffers).
const KERNEL_SAMPLES: u64 = 2000;
const KERNEL_BATCH: u64 = 500;

/// Times `f` `reps` times inside one span; returns the per-call seconds.
fn timed_reps<T>(
    tracer: &mut Tracer,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    let open = tracer.begin(name);
    let times = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    tracer.end(open);
    times
}

/// Seconds per call of `f` over one timed loop of `calls` (for calls too
/// short to time singly).
fn per_call<T>(tracer: &mut Tracer, name: &str, calls: u64, mut f: impl FnMut(u64) -> T) -> f64 {
    let ((), took) = tracer.timed(name, || {
        for i in 0..calls {
            black_box(f(i));
        }
    });
    took.as_secs_f64() / calls as f64
}

/// What one kernel probe measured.
struct KernelProbe {
    ns_per_sample: f64,
    edges_per_sample: f64,
    allocs_per_sample: f64,
    counts: Vec<u64>,
}

/// `sample_batch` on one thread after a warm-up batch, counting interiors
/// the way every driver does.
fn kernel<G: GraphView>(
    tracer: &mut Tracer,
    name: &str,
    g: &G,
    seed: u64,
    options: KernelOptions,
    alloc: &CountingAlloc,
) -> KernelProbe {
    let n = g.num_nodes();
    let mut sampler = ThreadSampler::with_kernel(n, seed, 0, 0, options);
    let mut counts = vec![0u64; n];
    let mut tally = |interior: &[NodeId]| {
        for &v in interior {
            counts[v as usize] += 1;
        }
    };
    sampler.sample_batch(g, KERNEL_BATCH, &mut tally);
    let edges = |s: &ThreadSampler| match s.kernel_physical_edges() {
        0 => s.stats.edges_scanned,
        physical => physical,
    };
    let (edges_before, heap_before) = (edges(&sampler), alloc.counts());
    let ((), took) = tracer.timed(name, || {
        for _ in 0..KERNEL_SAMPLES / KERNEL_BATCH {
            sampler.sample_batch(g, KERNEL_BATCH, &mut tally);
        }
    });
    let heap = alloc.counts().since(&heap_before);
    let k = KERNEL_SAMPLES as f64;
    KernelProbe {
        ns_per_sample: took.as_secs_f64() * 1e9 / k,
        edges_per_sample: (edges(&sampler) - edges_before) as f64 / k,
        allocs_per_sample: heap.allocs as f64 / k,
        counts,
    }
}

/// Runs every probe on `g` (the workload's input as loaded) and derives the
/// ratios that need both a probe and the measured section.
pub fn run(
    opts: &Options,
    input: &Input,
    g: &Graph,
    alloc: &CountingAlloc,
    tracer: &mut Tracer,
    rec: &mut Record,
) {
    let w = opts.workload;
    let n = g.num_nodes();
    let seed = derive_seed(opts.seed, w.name, 100);
    let cfg = config(w.eps, seed);
    tracer.next_op();
    let all = tracer.begin("probes");

    // graph
    // On the solve workloads set-up *is* `read_path`, timed there already.
    if !rec.values.contains_key("graph.read_path_s") {
        let loads = timed_reps(tracer, "probe:graph.read_path", 3, || io::read_path(&input.path));
        rec.set_median("graph.read_path_s", &loads);
    }
    rec.set_median(
        "graph.relabel_s",
        &timed_reps(tracer, "probe:graph.relabel", 3, || g.relabel_by_degree()),
    );
    let (rg, _) = g.relabel_by_degree();
    let root = (0..n as NodeId).max_by_key(|&v| rg.degree(v)).expect("non-empty graph");
    rec.set_median(
        "graph.diameter_s",
        &timed_reps(tracer, "probe:graph.diameter", 3, || {
            diameter(&rg, root, cfg.diameter_bfs_budget)
        }),
    );
    let default = kernel(tracer, "probe:graph.kernel", &rg, seed, KernelOptions::default(), alloc);
    let scalar =
        kernel(tracer, "probe:graph.kernel_scalar", &rg, seed, KernelOptions::scalar(), alloc);
    rec.set_one("graph.kernel_ns_per_sample", default.ns_per_sample);
    rec.set_one("graph.kernel_scalar_ns_per_sample", scalar.ns_per_sample);
    rec.set_one("graph.kernel_edges_per_sample", default.edges_per_sample);
    // Computed, not measured: one 4-byte adjacency entry per edge decoded.
    rec.set_one("graph.kernel_bytes_per_sample_computed", 4.0 * default.edges_per_sample);
    rec.set_one("graph.kernel_allocs_per_sample", default.allocs_per_sample);

    // core: the two O(n) evaluations every epoch / engine round pays, on a
    // real count vector. ε = ∞ keeps the stopping check from returning at the
    // first unconverged vertex, so it costs what a passing check costs.
    let prepared = prepare(&rg, &cfg);
    let (counts, tau) = (&default.counts, KERNEL_SAMPLES + KERNEL_BATCH);
    let cal = &prepared.calibration;
    let checks = timed_reps(tracer, "probe:core.stopping_condition", 20, || {
        stopping_condition(counts, tau, f64::INFINITY, prepared.omega, &cal.delta_l, &cal.delta_u)
    });
    rec.set_one("core.check_us", median(&checks) * 1e6);
    let achieved = timed_reps(tracer, "probe:core.achieved_epsilon", 20, || {
        achieved_epsilon(counts, tau, prepared.omega, cal)
    });
    rec.set_one("core.achieved_epsilon_us", median(&achieved) * 1e6);
    let rate = rec.get(WALL_RATE);
    rec.set_one(
        "core.parallel_efficiency",
        rate / (w.threads() as f64 * 1e9 / default.ns_per_sample),
    );

    epoch_probes(tracer, rec, n);
    mpisim_probes(tracer, rec, n);

    // telemetry: the span pair every `Client` call wraps itself in.
    let tel = Telemetry::stats_only();
    let writer = tel.writer(0, 0);
    let pair = per_call(tracer, "probe:telemetry.span", 200_000, |_| {
        let sp = writer.begin(SpanId::Query);
        writer.end(sp);
    });
    rec.set_one("telemetry.span_ns", pair * 1e9);

    // cluster: the simulator, fed its own calibration on this input, against
    // the live solve of the same shape and ε (ROADMAP item 4(i); target 1.0).
    let (cost, took) =
        tracer.timed("probe:cluster.cost_model", || CostModel::measure(&rg, &cfg, 20));
    rec.set_one("cluster.cost_model_s", took.as_secs_f64());
    let shape = match w.kind {
        Kind::Solve(Driver::EpochMpi) => EPOCH_SHAPE,
        _ => ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: 1 },
    };
    let sim = SimConfig {
        shape,
        strategy: ReduceStrategy::IbarrierThenBlockingReduce,
        numa_penalty: false,
        steal: false,
    };
    let (predicted, _) = tracer.timed("probe:cluster.simulate", || {
        simulate(&rg, &cfg, &prepared, &sim, &ClusterSpec::default(), &cost)
    });
    rec.set_one(
        "cluster.des_predicted_over_live",
        predicted.total_ns() as f64 / 1e9 / rec.get("harness.solve_wall_s"),
    );

    server_probes(opts, tracer, rec, g, counts);
    dynamic_probes(opts, tracer, rec, &rg, &cfg, &prepared, alloc);
    tracer.end(all);
}

/// The epoch framework at T = 2 frames of `n`.
fn epoch_probes(tracer: &mut Tracer, rec: &mut Record, n: usize) {
    let fw = EpochFramework::new(n, 2);
    let (mut h0, mut h1) = (fw.handle(0), fw.handle(1));
    let interior: Vec<u32> = (0..8u32).map(|i| i * (n as u32 / 8)).collect();
    let mut acc = vec![0u64; n];
    let mut folds = Vec::new();
    let open = tracer.begin("probe:epoch.aggregate");
    for e in 0..20 {
        for _ in 0..500 {
            h0.record_sample(&interior);
            h1.record_sample(&interior);
        }
        fw.force_transition(&mut h0, e);
        assert!(fw.check_transition(&mut h1));
        let t = Instant::now();
        black_box(fw.aggregate_epoch(e, &mut acc));
        folds.push(t.elapsed().as_secs_f64());
    }
    tracer.end(open);
    rec.set_one("epoch.aggregate_us", median(&folds) * 1e6);

    let first = h0.epoch();
    let pair = per_call(tracer, "probe:epoch.transition", 100_000, |i| {
        fw.force_transition(&mut h0, first + i as u32);
        fw.check_transition(&mut h1)
    });
    rec.set_one("epoch.transition_ns", pair * 1e9);
    let record =
        per_call(tracer, "probe:epoch.record_sample", 100_000, |_| h0.record_sample(&interior));
    rec.set_one("epoch.record_sample_ns", record * 1e9 / interior.len() as f64);
    rec.set_one("epoch.frame_bytes", fw.frame_bytes() as f64);
}

/// The collectives at P = 2 on an `(n + 1)`-slot frame, and what starting a
/// universe costs (the refine engines start one per round).
fn mpisim_probes(tracer: &mut Tracer, rec: &mut Record, n: usize) {
    let open = tracer.begin("probe:mpisim.collectives");
    let per_rank = Universe::run(2, |comm| {
        let frame = vec![1u64; n + 1];
        let root = comm.rank() == 0;
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..20 {
            comm.barrier().expect("barrier");
            let t = Instant::now();
            black_box(comm.reduce_sum_u64(0, &frame).expect("reduce"));
            out[0].push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let req = comm.ibcast_u64(0, root.then_some(7)).expect("post ibcast");
            black_box(req.wait().expect("ibcast"));
            out[1].push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            comm.ibarrier().expect("post ibarrier").wait().expect("ibarrier");
            out[2].push(t.elapsed().as_secs_f64());
        }
        out
    });
    tracer.end(open);
    let [reduce, ibcast, ibarrier] = &per_rank[0];
    rec.set_one("mpisim.reduce_ms", median(reduce) * 1e3);
    rec.set_one("mpisim.ibcast_us", median(ibcast) * 1e6);
    rec.set_one("mpisim.ibarrier_us", median(ibarrier) * 1e6);
    let spawn1 =
        timed_reps(tracer, "probe:mpisim.universe_spawn1", 20, || Universe::run(1, |_| ()));
    let spawn2 =
        timed_reps(tracer, "probe:mpisim.universe_spawn2", 20, || Universe::run(2, |_| ()));
    rec.set_one("mpisim.universe_spawn1_us", median(&spawn1) * 1e6);
    rec.set_one("mpisim.universe_spawn2_us", median(&spawn2) * 1e6);
}

/// A one-tenant server on the workload's input: what adding the tenant
/// costs, then the read path layer by layer — cache, in-process client,
/// socket — and the publish a writer does per round.
fn server_probes(opts: &Options, tracer: &mut Tracer, rec: &mut Record, g: &Graph, counts: &[u64]) {
    let w = opts.workload;
    let n = g.num_nodes();
    let server = new_server();
    let cfg = tenant_config(derive_seed(opts.seed, w.name, 101), w.eps);
    let ((), took) =
        tracer.timed("probe:server.add_tenant", || server.add_tenant("probe", g, &cfg));
    rec.set_one("server.add_tenant_s", took.as_secs_f64());
    let tenant = server.tenant("probe").expect("just added");
    let client = server.client();
    let at = |i: u64| (i.wrapping_mul(0x9E37_79B9) % n as u64) as usize;

    let read =
        per_call(tracer, "probe:server.cache_read", 50_000, |i| tenant.cache().read_vertex(at(i)));
    rec.set_one("server.cache_read_ns", read * 1e9);
    let vertex = per_call(tracer, "probe:server.client_vertex", 50_000, |i| {
        client.vertex("probe", at(i) as NodeId).expect("warm tenant answers")
    });
    rec.set_one("server.client_vertex_ns", vertex * 1e9);
    let mut scratch = client.scratch("probe").expect("tenant is resident");
    let mut top = Vec::new();
    let topk = timed_reps(tracer, "probe:server.client_topk", 30, || {
        client.topk_into("probe", 10, &mut scratch, &mut top).expect("warm tenant answers")
    });
    rec.set_one("server.client_topk_us", median(&topk) * 1e6);

    let socket = server.listen("127.0.0.1:0").expect("bind a loopback port");
    let mut wire = Wire::connect(socket.addr()).expect("connect to the listener");
    let mut i = 0;
    let rtt = timed_reps(tracer, "probe:server.wire_rtt", 50, || {
        i += 1;
        wire.vertex("probe", at(i) as NodeId).expect("idle tenant answers");
    });
    rec.set_one("server.wire_rtt_us", median(&rtt) * 1e6);
    drop(wire);
    drop(socket);

    let publish = timed_reps(tracer, "probe:server.publish_frontier", 20, || {
        tenant.cache().publish_frontier(counts, 2200, 0.5, 1);
    });
    rec.set_one("server.publish_frontier_us", median(&publish) * 1e6);
}

/// A stand-alone `DynamicEngine` refined to the workload's ε, then the same
/// kind of batches `serve-mixed` streams: what one `apply_update` costs
/// without the server around it, and what the overlay costs the kernel.
fn dynamic_probes(
    opts: &Options,
    tracer: &mut Tracer,
    rec: &mut Record,
    rg: &Graph,
    cfg: &KadabraConfig,
    prepared: &Prepared,
    alloc: &CountingAlloc,
) {
    let w = opts.workload;
    let seed = cfg.seed;
    let tel = Telemetry::stats_only();
    let mut engine = DynamicEngine::new(
        rg.clone(),
        *cfg,
        prepared.omega,
        prepared.vertex_diameter,
        1,
        1,
        tenant_config(seed, w.eps).max_epochs_per_round,
        FaultPlan::ideal(seed),
    );
    let ((), _) = tracer.timed("probe:dynamic.populate", || {
        engine.refine_until(w.eps, u64::MAX, &prepared.calibration, &tel);
    });
    let mut batches = BatchGen::new(rg, derive_seed(opts.seed, w.name, 103));
    let work_before = engine.work_edges();
    // One batch: on the R-MAT input it takes six seconds, and the traced run
    // has the whole benchmark's time limit to share.
    let (ins, del) = batches.next_batch(opts.sizes.batch_edges);
    let batch = UpdateBatch::new(ins, del).expect("generated batches are well-formed");
    let (applied, took) = tracer.timed("probe:dynamic.apply_update", || {
        engine.apply_update(&batch, &prepared.calibration, &tel)
    });
    applied.expect("generated batches are valid");
    rec.set_one("dynamic.apply_update_ms", took.as_secs_f64() * 1e3);
    rec.set_one("dynamic.work_edges_per_update", (engine.work_edges() - work_before) as f64);
    rec.set_one("dynamic.compactions", engine.log().compactions() as f64);
    let overlay = kernel(
        tracer,
        "probe:dynamic.overlay_kernel",
        engine.view(),
        seed,
        KernelOptions::default(),
        alloc,
    );
    rec.set_one("dynamic.overlay_kernel_ns_per_sample", overlay.ns_per_sample);
}
