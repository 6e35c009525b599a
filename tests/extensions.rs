//! Integration tests for the extension features: directed/weighted KADABRA
//! through every driver (the paper's footnote 1), adaptive top-k, SumSweep,
//! and the Barabási–Albert generator — exercised through the public facade.

use kadabra_mpi::baselines::{brandes, brandes_directed, brandes_weighted};
use kadabra_mpi::core::phases::scores_from_counts;
use kadabra_mpi::core::{
    kadabra_epoch_mpi, kadabra_epoch_mpi_observed, kadabra_mpi_flat, kadabra_mpi_flat_observed,
    kadabra_sequential, kadabra_shared, kadabra_topk, prepare_for_pool, BetweennessResult,
    ChaosOptions, ClusterShape, KadabraConfig, SamplerPool,
};
use kadabra_mpi::graph::digraph::DiGraph;
use kadabra_mpi::graph::generators::{barabasi_albert, BaConfig};
use kadabra_mpi::graph::sumsweep::sum_sweep;
use kadabra_mpi::graph::weighted::WeightedGraph;
use kadabra_mpi::graph::KadabraGraph;
use kadabra_mpi::mpisim::FaultPlan;
use kadabra_mpi::telemetry::Telemetry;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Runs `g` through the four drivers — sequential, shared (T = 3), flat MPI
/// (P = 3), epoch MPI (2 × 2) — and the resident sampler pool, and holds
/// each within ε of `exact`. The
/// runs whose schedule is a function of the seed (sequential; Algorithms 1
/// and 2 under an ideal plan) must also repeat bit for bit; the free-running
/// ones leave their sample counts to the scheduler, for every graph kind.
fn every_driver_agrees_with_exact<G: KadabraGraph + Sync>(
    g: &G,
    cfg: &KadabraConfig,
    exact: &[f64],
) {
    let tel = Telemetry::stats_only();
    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
    let free_running = [
        ("shared", kadabra_shared(g, cfg, 3)),
        ("flat MPI", kadabra_mpi_flat(g, cfg, 3)),
        ("epoch MPI", kadabra_epoch_mpi(g, cfg, shape)),
    ];
    for (driver, r) in &free_running {
        assert!(max_err(&r.scores, exact) <= cfg.epsilon, "{driver}");
    }
    let opts = ChaosOptions::all(FaultPlan::ideal(5));
    let seeded = |driver: &str, a: BetweennessResult, b: BetweennessResult| {
        assert!(max_err(&a.scores, exact) <= cfg.epsilon, "{driver}");
        assert_eq!((a.samples, a.scores), (b.samples, b.scores), "{driver} did not repeat");
    };
    let sequential = || kadabra_sequential(g, cfg);
    seeded("sequential", sequential(), sequential());
    let flat = || kadabra_mpi_flat_observed(g, cfg, 3, 0, &opts).result;
    seeded("flat MPI under a plan", flat(), flat());
    let epoch = || kadabra_epoch_mpi_observed(g, cfg, shape, &opts).result;
    seeded("epoch MPI under a plan", epoch(), epoch());

    // The resident pool: Algorithm 1's body two epochs at a time, to the floor.
    let p = prepare_for_pool(g, cfg, 2, 1);
    let mut pool = SamplerPool::new(g.num_nodes(), *cfg, p.omega, 2, 1, || ());
    let report = loop {
        let plan = FaultPlan::ideal(5).reseeded(pool.status().round);
        let report = pool.round(g, plan, 2, &p.calibration, &tel);
        if report.achieved <= cfg.epsilon {
            break report;
        }
    };
    let scores = scores_from_counts(&report.global[..g.num_nodes()], report.tau);
    assert!(max_err(&scores, exact) <= cfg.epsilon, "sampler pool");
}

#[test]
fn directed_sequential_and_parallel_agree_with_exact() {
    // A directed "citation-style" graph: BA edges oriented old -> new plus
    // some back arcs.
    let base = barabasi_albert(BaConfig { n: 80, m: 2, seed: 3 });
    let mut arcs: Vec<(u32, u32)> = base.edges().map(|(u, v)| (v, u)).collect();
    arcs.extend(base.edges().filter(|&(u, v)| (u + v) % 3 == 0));
    let g = DiGraph::from_arcs(80, &arcs);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 11, ..Default::default() };
    every_driver_agrees_with_exact(&g, &cfg, &brandes_directed(&g));
}

#[test]
fn weighted_sequential_and_parallel_agree_with_exact() {
    let base = barabasi_albert(BaConfig { n: 70, m: 2, seed: 4 });
    let edges: Vec<(u32, u32, u32)> =
        base.edges().map(|(u, v)| (u, v, 1 + (u + 2 * v) % 5)).collect();
    let g = WeightedGraph::from_edges(70, &edges);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 12, ..Default::default() };
    every_driver_agrees_with_exact(&g, &cfg, &brandes_weighted(&g));
}

#[test]
fn directed_triangle_relays_one_pair_per_vertex() {
    // 0 -> 1 -> 2 -> 0: every vertex is the interior of exactly one of the
    // six ordered pairs, which no undirected triangle shows.
    let g = DiGraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
    let cfg = KadabraConfig { epsilon: 0.03, delta: 0.1, seed: 9, ..Default::default() };
    let exact = brandes_directed(&g);
    assert!(exact.iter().all(|&b| (b - 1.0 / 6.0).abs() < 1e-12));
    let r = kadabra_sequential(&g, &cfg);
    assert!(max_err(&r.scores, &exact) <= cfg.epsilon);
}

#[test]
fn a_heavy_edge_changes_the_weighted_ranking() {
    // Unit weights: the direct edge 0-2 wins. Heavy direct edge: the detour
    // through 1 wins and vertex 1 becomes central.
    let light = WeightedGraph::from_edges(3, &[(0, 2, 1), (0, 1, 1), (1, 2, 1)]);
    let heavy = WeightedGraph::from_edges(3, &[(0, 2, 10), (0, 1, 1), (1, 2, 1)]);
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 10, ..Default::default() };
    assert!(kadabra_sequential(&light, &cfg).scores[1] < 0.1);
    assert!(kadabra_sequential(&heavy, &cfg).scores[1] > 0.2);
}

#[test]
fn shared_directed_runs_account_their_frames_at_every_thread_count() {
    let g = DiGraph::from_arcs(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let cfg = KadabraConfig { epsilon: 0.1, delta: 0.1, seed: 7, ..Default::default() };
    let exact = brandes_directed(&g);
    for threads in [1, 3, 4] {
        let r = kadabra_shared(&g, &cfg, threads);
        assert!(max_err(&r.scores, &exact) <= cfg.epsilon, "threads={threads}");
        // What the one-rank world's collectives move: the diameter
        // broadcast and the calibration all-reduce of one dense frame, then
        // per epoch the stop flag and the node-local and the leaders'
        // gather of the same sparse frame — one 8-byte word per touched
        // vertex plus one for τ, so between 1 and n + 1 words.
        let frame = (6 + 1) * 8;
        let gathered = r.stats.comm_bytes - 8 - frame - 8 * r.stats.epochs;
        assert_eq!(gathered % 16, 0, "threads={threads}: the two gathers move the same words");
        let words = gathered / 16;
        assert!(words >= r.stats.epochs && words <= r.stats.epochs * 7, "threads={threads}");
    }
}

#[test]
fn topk_confirms_true_top_vertex_on_hub_graph() {
    let g = barabasi_albert(BaConfig { n: 250, m: 2, seed: 5 });
    let cfg = KadabraConfig { epsilon: 0.02, delta: 0.1, seed: 13, ..Default::default() };
    let exact = brandes(&g);
    let truth =
        exact.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0 as u32;
    let topk = kadabra_topk(&g, 1, &cfg);
    if topk.separated {
        assert_eq!(topk.confirmed[0].vertex, truth, "confirmed top-1 must be the true top-1");
        // Separation must not have cost more than the full run would.
        let full = kadabra_sequential(&g, &cfg);
        assert!(topk.result.samples <= full.samples);
    } else {
        // Statistically possible on a flat instance; the fallback still ran.
        assert!(topk.result.samples > 0);
    }
}

#[test]
fn sumsweep_brackets_ifub_on_ba_graphs() {
    for seed in 0..5 {
        let g = barabasi_albert(BaConfig { n: 150, m: 3, seed });
        let exact = kadabra_mpi::graph::diameter::diameter(&g, 0, 0).exact();
        let ss = sum_sweep(&g, 0, 6);
        assert!(ss.lower <= exact && exact <= ss.upper, "seed {seed}");
        assert_eq!(ss.lower, exact, "SumSweep lower bound is exact on BA (seed {seed})");
    }
}
