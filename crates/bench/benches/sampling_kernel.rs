//! Micro-benchmark: the sampling kernel on the perf R-MAT instance,
//! in both CSR labelings. Interactive companion to `bench_kernel` (which
//! feeds the `cargo xtask bench --kernel --check` regression gate): use this
//! to A/B kernel changes locally with criterion's statistics before
//! re-recording `BENCH_kernel.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kadabra_core::ThreadSampler;
use kadabra_graph::components::largest_component;
use kadabra_graph::generators::{rmat, RmatConfig};

/// Samples per measured batch — large enough to amortize batch setup, small
/// enough for criterion to take many measurements.
const BATCH: u64 = 256;

fn bench_sampling_kernel(c: &mut Criterion) {
    let (raw, _) = largest_component(&rmat(RmatConfig::graph500(14, 8, 1)));
    let (relabeled, _) = raw.relabel_by_degree();
    let mut group = c.benchmark_group("sampling_kernel");
    group.sample_size(30);
    group.throughput(Throughput::Elements(BATCH));
    for (name, g) in [("relabeled", &relabeled), ("raw", &raw)] {
        let mut sampler = ThreadSampler::new(g.num_nodes(), 7, 0, 0);
        // Warm the caches so steady-state cost is what's measured.
        sampler.sample_batch(g, 2_000, |_| {});
        group.bench_with_input(BenchmarkId::from_parameter(name), g, |b, g| {
            b.iter(|| {
                let mut interior_visits = 0u64;
                sampler.sample_batch(g, BATCH, |interior| {
                    interior_visits += interior.len() as u64;
                });
                std::hint::black_box(interior_visits)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampling_kernel);
criterion_main!(benches);
