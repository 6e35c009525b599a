//! Micro-benchmark: the stopping-condition evaluation (`CHECKFORSTOP`).
//!
//! The paper checks on a single process because "evaluating the stopping
//! condition is indeed cheaper than the aggregation required for the check";
//! this bench quantifies the O(|V|) check cost that claim rests on, plus the
//! δ-calibration fit of phase 2 (a bisection over the count histogram).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kadabra_core::bounds::stopping_condition;
use kadabra_core::{Calibration, KadabraConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sample cap both benches fit and check against.
const OMEGA: u64 = 10_000_000;

fn synthetic_counts(n: usize, tau: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..tau / 10)).collect()
}

fn bench_stopping_condition(c: &mut Criterion) {
    // The cost that matters is the check *near termination*, where every
    // vertex must be inspected (the all-vertices scan); a failing check
    // short-circuits on the first unhappy vertex and costs almost nothing.
    // Use a generous epsilon so the scan runs to completion.
    let mut group = c.benchmark_group("stopping_condition_full_scan");
    let cfg = KadabraConfig::new(0.01, 0.1);
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let tau = 50_000u64;
        let counts = synthetic_counts(n, tau, 1);
        let calib = Calibration::from_counts(&counts, tau, OMEGA, &cfg);
        let result = stopping_condition(&counts, tau, 0.9, OMEGA, &calib.delta_l, &calib.delta_u);
        assert!(result, "full-scan configuration must pass every vertex");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                stopping_condition(
                    std::hint::black_box(&counts),
                    tau,
                    0.9,
                    OMEGA,
                    &calib.delta_l,
                    &calib.delta_u,
                )
            });
        });
    }
    group.finish();
}

fn bench_delta_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_calibration_fit");
    group.sample_size(20);
    let cfg = KadabraConfig::new(0.01, 0.1);
    for &n in &[10_000usize, 100_000] {
        let counts = synthetic_counts(n, 5_000, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &counts, |b, counts| {
            b.iter(|| Calibration::from_counts(std::hint::black_box(counts), 5_000, OMEGA, &cfg));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stopping_condition, bench_delta_calibration);
criterion_main!(benches);
