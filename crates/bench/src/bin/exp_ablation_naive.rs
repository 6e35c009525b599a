//! **Ablation C (Section III-B)** — "simple" fork-join parallelization vs
//! the epoch-based framework, on a single simulated compute node.
//!
//! Paper: "simple parallelization techniques — such as taking a fixed number
//! of samples before each check of the stopping condition — ... fail to
//! overlap computation and aggregation \[and\] are known to not scale well,
//! even on shared-memory machines."
//!
//! Run: `cargo run --release -p kadabra-bench --bin exp_ablation_naive`

use kadabra_bench::{
    des_run, des_run_labelled, emit, eps_default, prepare_instance, scale_factor, seed, suite,
    BenchArtifact, Table,
};
use kadabra_cluster::{simulate, simulate_naive, ClusterSpec, ReduceStrategy, SimConfig};
use kadabra_core::ClusterShape;

fn main() {
    let scale = scale_factor();
    let eps = eps_default(0.03);
    let seed = seed();
    let spec = ClusterSpec::default();
    println!("Ablation C: naive fork-join vs epoch-based framework (one node)");
    println!("(scale {scale}, eps {eps}, seed {seed})\n");

    let instances = suite();
    let mut bench = BenchArtifact::new("ablation_naive", scale, eps, seed);
    for name in ["road-pa", "rmat-dbpedia"] {
        let inst = instances.iter().find(|i| i.name == name).unwrap();
        let pi = prepare_instance(inst, scale, seed, eps, 300);
        let mut t = Table::new([
            "threads",
            "naive ADS(s)",
            "epoch ADS(s)",
            "epoch advantage",
            "naive blocked(s)",
            "naive checks",
        ]);
        for threads in [1usize, 2, 4, 8, 16, 24] {
            let naive = simulate_naive(&pi.graph, &pi.cfg, &pi.prepared, threads, &spec, &pi.cost);
            let sim = SimConfig {
                shape: ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: threads },
                strategy: ReduceStrategy::IbarrierThenBlockingReduce,
                numa_penalty: true, // both run as one process spanning sockets
                steal: false,
            };
            let epoch = simulate(&pi.graph, &pi.cfg, &pi.prepared, &sim, &spec, &pi.cost);
            bench.push(des_run_labelled(name, "des-naive", 1, threads, &naive));
            bench.push(des_run(name, &sim, &epoch));
            t.row([
                threads.to_string(),
                format!("{:.3}", naive.ads_ns as f64 / 1e9),
                format!("{:.3}", epoch.ads_ns as f64 / 1e9),
                format!("{:.2}x", naive.ads_ns as f64 / epoch.ads_ns as f64),
                format!(
                    "{:.3}",
                    (naive.barrier_wait_ns + naive.reduce_ns + naive.check_ns) as f64 / 1e9
                ),
                naive.epochs.to_string(),
            ]);
            eprintln!("  done: {name} threads={threads}");
        }
        println!("-- instance {name} --");
        t.print();
        println!();
    }
    emit(&bench);
    println!("Expected shape: the epoch framework's advantage grows with the thread");
    println!("count — the naive scheme's barrier + non-overlapped aggregation eat the");
    println!("added parallelism.");
}
