//! Directed and weighted betweenness — the paper's footnote 1 extensions.
//!
//! KADABRA's machinery only needs a uniform-shortest-path sampler, and every
//! driver takes it through one hook (`kadabra_graph::PathSource`): a
//! `DiGraph` (directed bidirectional BFS) or a `WeightedGraph` (Dijkstra)
//! runs the sequential algorithm and Algorithm 2 through the same entry
//! points as the undirected CSR, with the same guarantee.
//!
//! Run: `cargo run --release --example directed_weighted`

use kadabra_mpi::baselines::{brandes_directed, brandes_weighted};
use kadabra_mpi::core::{
    kadabra_epoch_mpi, kadabra_sequential, BetweennessResult, ClusterShape, KadabraConfig,
};
use kadabra_mpi::graph::digraph::DiGraph;
use kadabra_mpi::graph::weighted::WeightedGraph;
use kadabra_mpi::graph::KadabraGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the sequential driver and Algorithm 2 (a simulated 2-rank × 2-thread
/// cluster) on `g` — any graph kind — and prints both errors against `exact`.
fn solve<G: KadabraGraph + Sync>(kind: &str, g: &G, exact: &[f64]) -> BetweennessResult {
    let cfg = KadabraConfig::new(0.02, 0.1);
    let max_err = |r: &BetweennessResult| {
        r.scores.iter().zip(exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max)
    };
    let seq = kadabra_sequential(g, &cfg);
    println!(
        "{kind}: {} vertices -> {} samples, max |err| vs exact = {:.4} (eps {})",
        g.num_nodes(),
        seq.samples,
        max_err(&seq),
        cfg.epsilon
    );
    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
    let alg2 = kadabra_epoch_mpi(g, &cfg, shape);
    println!(
        "  Algorithm 2 (2 x 2): {} samples in {} epochs, max |err| = {:.4}",
        alg2.samples,
        alg2.stats.epochs,
        max_err(&alg2)
    );
    seq
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);

    // --- Directed: a random "web graph" with asymmetric links. ---
    let n = 600usize;
    let mut arcs = Vec::new();
    for u in 0..n as u32 {
        for _ in 0..4 {
            let v = rng.gen_range(0..n as u32);
            if u != v {
                arcs.push((u, v));
            }
        }
    }
    let dg = DiGraph::from_arcs(n, &arcs);
    solve("directed", &dg, &brandes_directed(&dg));

    // --- Weighted: a toy road network where the "highway" reroutes flow. ---
    // Grid-ish city streets (weight 3) plus a diagonal highway (weight 1).
    let side = 12u32;
    let id = |r: u32, c: u32| r * side + c;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                edges.push((id(r, c), id(r, c + 1), 3));
            }
            if r + 1 < side {
                edges.push((id(r, c), id(r + 1, c), 3));
            }
        }
    }
    for i in 0..side - 1 {
        edges.push((id(i, i), id(i + 1, i + 1), 1)); // the highway
    }
    let wg = WeightedGraph::from_edges((side * side) as usize, &edges);
    let wr = solve("weighted", &wg, &brandes_weighted(&wg));
    println!("\ntop 5 weighted-betweenness vertices (expect the highway diagonal):");
    for (v, score) in wr.top_k(5) {
        let (r, c) = (v / side, v % side);
        println!("  ({r:>2},{c:>2}): {score:.4}");
    }
}
