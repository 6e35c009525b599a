//! **Service benchmark** backing `cargo xtask bench --smoke`: boots the
//! deterministic `kadabra-server` fixture, refines the resident tenant to
//! its schedule floor, and measures the query path — full client
//! round-trips for throughput and tail latency, and the bare estimate-cache
//! read path under the counting allocator for allocation freedom — emitting
//! `BENCH_server.json` (`kadabra-bench/v1` plus `queries_per_sec`,
//! `p50_ns`/`p99_ns`, and `read_allocs` extra columns).
//!
//! The binary is also the acceptance gate for the service numbers: it
//! exits nonzero when service throughput drops below 1 000 queries/s, when
//! the cache read path allocates at all, or when a second or third tenant
//! on the fixture graph requests as many heap bytes as the first less the
//! relabeled CSR's bytes (the tenants must share one prepared graph), so
//! `cargo xtask bench --smoke` (and the CI job wrapping it) fails loudly
//! rather than emitting a degraded artifact.
//!
//! Run: `cargo run --release -p kadabra-bench --bin bench_server`
//! (`KADABRA_RESULTS_DIR` picks the output directory; xtask points it at
//! the repo root.)

use kadabra_alloctrack::CountingAlloc;
use kadabra_bench::{emit, seed, BenchArtifact, BenchRun};
use kadabra_server::cache::FrontierSnapshot;
use kadabra_server::testkit::{corpus_graph, tenant_config, TENANT};
use kadabra_server::{Server, ServerConfig};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Client round-trips in the throughput row.
const QUERIES: u64 = 20_000;

/// Reads in the allocation-gated cache row.
const READS: u64 = 50_000;

/// Acceptance floor for service throughput (queries per second).
const MIN_QPS: f64 = 1_000.0;

/// Nearest-rank percentile of an ascending-sorted latency series.
fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64
}

fn main() {
    let seed = seed();
    // `testkit::boot`, spelled out to keep the graph for two more tenants
    // and to count what each `add_tenant` requests from the heap.
    let server = Server::new(ServerConfig { deterministic: true, background_refine: false });
    let g = corpus_graph(seed);
    let add = |name: &str| {
        let before = ALLOC.counts();
        server.add_tenant(name, &g, &tenant_config(seed));
        ALLOC.counts().since(&before).bytes
    };
    let t0 = Instant::now();
    let first_bytes = add(TENANT);
    let later_bytes = ["gnm-2", "gnm-3"].map(add);
    let add_ns = t0.elapsed().as_nanos() as u64;
    let tenant = server.tenant(TENANT).expect("fixture tenant");
    let csr_bytes = tenant.prepared().graph().memory_bytes() as u64;
    println!(
        "bench server: add_tenant requested {first_bytes} B, then {later_bytes:?} B on the same \
         graph (relabeled CSR {csr_bytes} B)"
    );

    let client = server.client();
    let floor = tenant.floor_eps();
    client.refine(TENANT, floor, 256).expect("schedule floor is reachable");
    let n = tenant.num_vertices();
    println!(
        "bench server: tenant `{TENANT}` ({n} vertices) refined to ε = {:.3}",
        tenant.achieved_eps()
    );

    // Row 1: full client round-trips — admission, telemetry span, cache
    // read — measured one query at a time for the latency distribution.
    let mut lat = Vec::with_capacity(QUERIES as usize);
    let start = Instant::now();
    for q in 0..QUERIES {
        let v = (q.wrapping_mul(7) % n as u64) as u32;
        let t0 = Instant::now();
        let est = client.vertex(TENANT, v).expect("frontier published");
        lat.push(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(est);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    lat.sort_unstable();
    let qps = if wall_ns > 0 { QUERIES as f64 / (wall_ns as f64 / 1e9) } else { 0.0 };
    let (p50, p99) = (percentile(&lat, 50.0), percentile(&lat, 99.0));
    println!(
        "  service-vertex: {QUERIES} queries, {qps:.0} queries/s, p50 {p50:.0} ns, p99 {p99:.0} ns"
    );

    // Row 2: the bare cache read path under the counting allocator. A
    // warm-up pass proves the snapshot is at steady-state capacity; the
    // measured pass must not allocate at all (the lint enforces this
    // structurally, this row enforces it end to end).
    let cache = tenant.cache();
    let mut snap = FrontierSnapshot::new(n);
    assert!(cache.read_frontier_into(&mut snap), "frontier published");
    let before = ALLOC.counts();
    let t0 = Instant::now();
    for q in 0..READS {
        let v = (q.wrapping_mul(13) % n as u64) as usize;
        std::hint::black_box(cache.read_vertex(v));
        if q % 64 == 0 {
            std::hint::black_box(cache.read_frontier_into(&mut snap));
        }
    }
    let read_ns = t0.elapsed().as_nanos() as u64;
    let read_allocs = ALLOC.counts().since(&before).allocs;
    let ns_per_read = read_ns as f64 / READS as f64;
    println!("  cache-read: {READS} reads, {ns_per_read:.0} ns/read, {read_allocs} allocs");

    let mut bench = BenchArtifact::new("server", 1.0, floor, seed);
    bench.push(BenchRun {
        instance: "gnm-60".to_string(),
        mode: "service-vertex".to_string(),
        p: 1,
        t: 1,
        wall_ns,
        samples: QUERIES,
        epochs: 1,
        samples_per_sec: qps,
        reduction_overlap: 0.0,
        comm_bytes: 0,
        extras: vec![
            ("queries_per_sec".to_string(), qps),
            ("p50_ns".to_string(), p50),
            ("p99_ns".to_string(), p99),
        ],
    });
    bench.push(BenchRun {
        instance: "gnm-60".to_string(),
        mode: "cache-read".to_string(),
        p: 1,
        t: 1,
        wall_ns: read_ns,
        samples: READS,
        epochs: 1,
        samples_per_sec: if read_ns > 0 { READS as f64 / (read_ns as f64 / 1e9) } else { 0.0 },
        reduction_overlap: 0.0,
        comm_bytes: 0,
        extras: vec![
            ("read_allocs".to_string(), read_allocs as f64),
            ("ns_per_read".to_string(), ns_per_read),
        ],
    });
    bench.push(BenchRun {
        instance: "gnm-60".to_string(),
        mode: "add-tenant".to_string(),
        p: 1,
        t: 1,
        wall_ns: add_ns,
        samples: 3,
        epochs: 1,
        samples_per_sec: if add_ns > 0 { 3.0 / (add_ns as f64 / 1e9) } else { 0.0 },
        reduction_overlap: 0.0,
        comm_bytes: 0,
        extras: vec![
            ("first_bytes".to_string(), first_bytes as f64),
            ("later_bytes_max".to_string(), later_bytes.into_iter().max().unwrap_or(0) as f64),
            ("csr_bytes".to_string(), csr_bytes as f64),
        ],
    });
    emit(&bench);

    assert!(qps >= MIN_QPS, "service throughput {qps:.0} queries/s below the {MIN_QPS} floor");
    assert_eq!(read_allocs, 0, "the cache read path allocated {read_allocs} times");
    for later in later_bytes {
        assert!(
            later + csr_bytes <= first_bytes,
            "a tenant on an already prepared graph requested {later} B, more than the first \
             tenant's {first_bytes} B less the {csr_bytes} B relabeled CSR"
        );
    }
}
