//! **Ablation A (Section IV-D)** — epoch length tuning: how the `n0` rule
//! (samples between stopping-condition checks) trades termination latency
//! against check/communication overhead.
//!
//! Paper: "the stopping condition [must be checked] neither too rarely (to
//! avoid a high latency until the algorithm terminates) nor too often (to
//! avoid unnecessary computation)"; Ref. \[24\] tuned `n0 = 1000·(PT)^-1.33`.
//!
//! Run: `cargo run --release -p kadabra-bench --bin exp_ablation_n0`

use kadabra_bench::{
    des_run, emit, eps_default, paper_shape, scale_factor, seed, suite, BenchArtifact, Table,
};
use kadabra_cluster::{simulate, ClusterSpec, CostModel};
use kadabra_core::prepare;

fn main() {
    let scale = scale_factor();
    let eps = eps_default(0.005);
    let seed = seed();
    let spec = ClusterSpec::default();
    println!("Ablation A: epoch length (n0 base) sweep at 16 nodes");
    println!("(scale {scale}, eps {eps}, seed {seed})\n");

    let instances = suite();
    let mut bench = BenchArtifact::new("ablation_n0", scale, eps, seed);
    for name in ["road-ca", "rmat-wiki"] {
        let inst = instances.iter().find(|i| i.name == name).unwrap();
        let g = inst.build_lcc(scale, seed);
        let mut t = Table::new([
            "n0 base",
            "n0 (PT=384)",
            "epochs",
            "samples",
            "overshoot vs best",
            "ADS time(ms)",
        ]);
        let mut min_samples = u64::MAX;
        let mut rows: Vec<(f64, u64, u64, u64, u64)> = Vec::new();
        for base in [1_000.0, 30_000.0, 300_000.0, 3_000_000.0] {
            let cfg = kadabra_core::KadabraConfig {
                epsilon: eps,
                delta: 0.1,
                seed,
                n0_base: base,
                ..Default::default()
            };
            let prepared = prepare(&g, &cfg);
            let cost = CostModel::measure(&g, &cfg, 200);
            let r = simulate(&g, &cfg, &prepared, &paper_shape(16), &spec, &cost);
            bench.push(des_run(&format!("{name}/n0={base}"), &paper_shape(16), &r));
            min_samples = min_samples.min(r.samples);
            rows.push((base, cfg.n0(384), r.epochs, r.samples, r.ads_ns));
            eprintln!("  done: {name} n0_base={base}");
        }
        for (base, n0, epochs, samples, ads_ns) in rows {
            t.row([
                format!("{base}"),
                n0.to_string(),
                epochs.to_string(),
                samples.to_string(),
                format!("{:.1}%", 100.0 * (samples as f64 / min_samples as f64 - 1.0)),
                format!("{:.2}", ads_ns as f64 / 1e6),
            ]);
        }
        println!("-- instance {name} --");
        t.print();
        println!();
    }
    emit(&bench);
    println!("Expected shape: tiny n0 => many epochs (check/communication overhead);");
    println!("huge n0 => few epochs but large sample overshoot past the stopping point.");
}
