//! **Sampling-kernel benchmark** backing `cargo xtask bench --kernel`:
//! measures the single-thread hot path — `ThreadSampler::sample_batch` over
//! the balanced bidirectional BFS — on the R-MAT perf instance and, as a
//! diagnostic, a road grid, and emits `BENCH_kernel.json`
//! (`kadabra-bench/v1` plus `ns_per_sample` / `allocs_per_sample` /
//! `walk_probes_per_sample` extra columns — the last is the walk-back's
//! work, which `edges_scanned` does not count).
//!
//! Rows produced:
//!
//! * `kernel` — degree-descending relabeled CSR, the layout a resident
//!   server tenant samples on (DESIGN.md §11.1). This row is the regression
//!   gate: `cargo xtask bench --kernel --check` fails CI when its
//!   `samples_per_sec` drops more than 15% below the committed baseline, or
//!   when `allocs_per_sample` is nonzero.
//! * `kernel-raw` — the same graph in generator-order labeling: what every
//!   one-shot driver samples, since they take the caller's graph as given.
//!   It also tells layout regressions from algorithmic ones. Its sampler is
//!   sized from the *raw* graph — [`ThreadSampler`] asserts the scratch
//!   matches the graph it runs on.
//! * `road` — a 256 × 256 grid with 5 % random diagonals in input order,
//!   the `road-seq` benchmark's class and size (generator seed 1): long
//!   searches whose meeting level is a sliver of the work, where a kernel
//!   change tuned for R-MAT can cost. Diagnostic, not gated; it measures
//!   `iters / ROAD_SHARE` samples, since a sample there costs hundreds of
//!   times an R-MAT one.
//!
//! The binary registers [`kadabra_alloctrack::CountingAlloc`] as its global
//! allocator; after the warm-up batch the measured batch must not allocate.
//!
//! Run: `cargo run --release -p kadabra-bench --bin bench_kernel`
//! (`KADABRA_RESULTS_DIR` picks the output directory, default `results/`;
//! `KADABRA_KERNEL_ITERS` overrides the measured batch size.)

use kadabra_alloctrack::CountingAlloc;
use kadabra_bench::{emit, seed, BenchArtifact, BenchRun};
use kadabra_core::ThreadSampler;
use kadabra_graph::components::largest_component;
use kadabra_graph::generators::{grid, rmat, GridConfig, RmatConfig};
use kadabra_graph::Graph;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Extra samples taken before measurement starts. The warm-up also runs one
/// full batch of the measured size, so the per-batch pair buffer (the one
/// buffer that grows with the batch size rather than being sized at
/// construction) reaches steady-state capacity before counting begins.
const WARMUP: u64 = 2_000;

/// The `road` row measures `iters / ROAD_SHARE` samples.
const ROAD_SHARE: u64 = 50;

fn iters() -> u64 {
    match std::env::var("KADABRA_KERNEL_ITERS") {
        Ok(s) => match s.parse::<u64>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("warning: ignoring invalid KADABRA_KERNEL_ITERS={s:?}; using default");
                100_000
            }
        },
        Err(_) => 100_000,
    }
}

fn measure(instance: &str, mode: &str, g: &Graph, iters: u64, seed: u64) -> BenchRun {
    // Scratch is sized from the graph actually measured — `sample_batch`
    // asserts this, so a row can never silently run with foreign scratch.
    let mut sampler = ThreadSampler::new(g.num_nodes(), seed, 0, 0);
    let mut interior_visits = 0u64;
    sampler.sample_batch(g, WARMUP, |interior| interior_visits += interior.len() as u64);
    sampler.sample_batch(g, iters, |interior| interior_visits += interior.len() as u64);

    let before = ALLOC.counts();
    let stats_before = sampler.stats;
    let start = Instant::now();
    sampler.sample_batch(g, iters, |interior| interior_visits += interior.len() as u64);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let allocs = ALLOC.counts().since(&before).allocs;
    let per_sample = |now: u64, then: u64| (now - then) as f64 / iters as f64;
    let edges_per_sample = per_sample(sampler.stats.edges_scanned, stats_before.edges_scanned);
    let walk_probes_per_sample = per_sample(sampler.stats.walk_probes, stats_before.walk_probes);

    let ns_per_sample = wall_ns as f64 / iters as f64;
    let samples_per_sec = if wall_ns > 0 { iters as f64 / (wall_ns as f64 / 1e9) } else { 0.0 };
    let allocs_per_sample = allocs as f64 / iters as f64;
    println!(
        "  {instance} {mode}: {iters} samples, {ns_per_sample:.0} ns/sample, \
         {samples_per_sec:.0} samples/s, {allocs} allocs ({allocs_per_sample:.4}/sample, \
         {interior_visits} interior visits, {edges_per_sample:.0} edges/sample, \
         {walk_probes_per_sample:.0} walk probes/sample)"
    );
    BenchRun {
        instance: instance.to_string(),
        mode: mode.to_string(),
        p: 1,
        t: 1,
        wall_ns,
        samples: iters,
        epochs: 1,
        samples_per_sec,
        reduction_overlap: 0.0,
        comm_bytes: 0,
        extras: vec![
            ("ns_per_sample".to_string(), ns_per_sample),
            ("allocs_per_sample".to_string(), allocs_per_sample),
            ("walk_probes_per_sample".to_string(), walk_probes_per_sample),
        ],
    }
}

fn main() {
    let seed = seed();
    let iters = iters();
    let (g, _) = largest_component(&rmat(RmatConfig::graph500(14, 8, 1)));
    println!(
        "bench kernel: rmat-s14-lcc ({} vertices, {} edges), {iters} samples/mode",
        g.num_nodes(),
        g.num_edges()
    );

    let mut bench = BenchArtifact::new("kernel", 1.0, 0.0, seed);
    let (rg, _perm) = g.relabel_by_degree();
    // Gate row: the tenant layout.
    bench.push(measure("rmat-s14-lcc", "kernel", &rg, iters, seed));
    bench.push(measure("rmat-s14-lcc", "kernel-raw", &g, iters, seed));
    let (road, _) =
        largest_component(&grid(GridConfig { rows: 256, cols: 256, diagonal_prob: 0.05, seed: 1 }));
    bench.push(measure("grid-256-d05-lcc", "road", &road, (iters / ROAD_SHARE).max(1), seed));
    emit(&bench);
}
