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
use kadabra_mpi::core::{kadabra_epoch_mpi, kadabra_sequential_on, ClusterShape, KadabraConfig};
use kadabra_mpi::graph::digraph::DiGraph;
use kadabra_mpi::graph::weighted::WeightedGraph;
use kadabra_mpi::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn max_err(scores: &[f64], exact: &[f64]) -> f64 {
    scores.iter().zip(exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max)
}

fn main() {
    let cfg = KadabraConfig::new(0.02, 0.1);
    let tel = Telemetry::stats_only();
    // Algorithm 2 on a simulated 2-rank × 2-thread cluster.
    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
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
    let dr = kadabra_sequential_on(&dg, &cfg, &tel);
    let exact = brandes_directed(&dg);
    println!(
        "directed: {} vertices, {} arcs -> {} samples, max |err| vs exact = {:.4} (eps {})",
        dg.num_nodes(),
        dg.num_arcs(),
        dr.samples,
        max_err(&dr.scores, &exact),
        cfg.epsilon
    );
    let dr2 = kadabra_epoch_mpi(&dg, &cfg, shape);
    println!(
        "  Algorithm 2 (2 x 2): {} samples in {} epochs, max |err| = {:.4}",
        dr2.samples,
        dr2.stats.epochs,
        max_err(&dr2.scores, &exact)
    );

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
    let wr = kadabra_sequential_on(&wg, &cfg, &tel);
    let wexact = brandes_weighted(&wg);
    println!(
        "weighted: {} vertices, {} edges -> {} samples, max |err| vs exact = {:.4}",
        wg.num_nodes(),
        wg.num_edges(),
        wr.samples,
        max_err(&wr.scores, &wexact)
    );
    let wr2 = kadabra_epoch_mpi(&wg, &cfg, shape);
    println!(
        "  Algorithm 2 (2 x 2): {} samples in {} epochs, max |err| = {:.4}",
        wr2.samples,
        wr2.stats.epochs,
        max_err(&wr2.scores, &wexact)
    );
    println!("\ntop 5 weighted-betweenness vertices (expect the highway diagonal):");
    for (v, score) in wr.top_k(5) {
        let (r, c) = (v / side, v % side);
        println!("  ({r:>2},{c:>2}): {score:.4}");
    }
}
