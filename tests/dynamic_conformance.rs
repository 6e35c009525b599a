//! Streaming-update conformance (DESIGN.md §14): drive a [`DynamicEngine`]
//! through a sequence of random insert/delete batches and, after every
//! batch, hold the maintained estimate to the acceptance bar —
//!
//! * within ε of the exact Brandes oracle on the mutated graph,
//! * within ε of a from-scratch adaptive run over the same mutated graph
//!   (the pipeline an update would otherwise re-execute), and
//! * a pure function of `(graph, updates, config, seed)`: every cell of a
//!   small `(P, T, seed)` matrix replays bit-identically, frame for frame,
//!   including the classification tallies and the deterministic work
//!   counter.
//!
//! One more test holds the point of the incremental path: applying a 1 %
//! batch and re-converging costs under a quarter of the from-scratch
//! pipeline's work, counted in traversal edges. The companion
//! `tests/dynamic_chaos.rs` covers the same trajectory under injected rank
//! crashes.

use std::collections::BTreeSet;

use kadabra_mpi::baselines::brandes;
use kadabra_mpi::core::phases::{
    calibration_samples_for_thread, prepare_for_pool, scores_from_counts,
};
use kadabra_mpi::core::{Calibration, KadabraConfig, ThreadSampler};
use kadabra_mpi::dynamic::{DynamicEngine, UpdateBatch};
use kadabra_mpi::graph::components::largest_component;
use kadabra_mpi::graph::csr::graph_from_edges;
use kadabra_mpi::graph::generators::{gnm, GnmConfig};
use kadabra_mpi::graph::{Graph, GraphView, NodeId};
use kadabra_mpi::mpisim::FaultPlan;
use kadabra_mpi::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accuracy both runs converge to and the oracle bar they are held to.
const EPS: f64 = 0.1;

/// Length of the random update sequence in the tracking test.
const BATCHES: u64 = 3;

fn corpus(seed: u64) -> Graph {
    let (g, _) = largest_component(&gnm(GnmConfig { n: 90, m: 240, seed: 3 ^ seed }));
    g
}

fn config(seed: u64, eps: f64) -> KadabraConfig {
    KadabraConfig { epsilon: eps, delta: 0.1, seed, ..Default::default() }
}

/// Replays the diameter + calibration phases at a `ranks × threads` pool's
/// streams, exactly as the resident service provisions an engine.
fn setup(
    g: &Graph,
    seed: u64,
    eps: f64,
    ranks: usize,
    threads: usize,
) -> (KadabraConfig, u64, u32, Calibration) {
    let kcfg = config(seed, eps);
    let p = prepare_for_pool(g, &kcfg, ranks, threads);
    (kcfg, p.omega, p.vertex_diameter, p.calibration)
}

fn engine_for(
    g: &Graph,
    seed: u64,
    eps: f64,
    ranks: usize,
    threads: usize,
) -> (DynamicEngine, Calibration) {
    let (kcfg, omega, vd, calibration) = setup(g, seed, eps, ranks, threads);
    let eng =
        DynamicEngine::new(g.clone(), kcfg, omega, vd, ranks, threads, 4, FaultPlan::ideal(seed));
    (eng, calibration)
}

/// Edges a `ranks × threads` pool's calibration scans: its streams replayed,
/// one fresh sampler each. Part of a from-scratch run's work that an update
/// never pays again, and not in [`DynamicEngine::work_edges`].
fn calibration_edges(
    g: &Graph,
    kcfg: &KadabraConfig,
    omega: u64,
    ranks: usize,
    threads: usize,
) -> u64 {
    let mut counts = vec![0u64; g.num_nodes()];
    let mut edges = 0;
    for r in 0..ranks {
        for t in 0..threads {
            let mut sampler = ThreadSampler::new(g.num_nodes(), kcfg.seed, r, t);
            let pool = ranks * threads;
            calibration_samples_for_thread(g, &mut sampler, &mut counts, kcfg, omega, pool);
            edges += sampler.stats.edges_scanned;
        }
    }
    edges
}

/// Draws a small random batch against the engine's **current** view: two
/// deletions of live edges plus two insertions of fresh non-edges, all from
/// a per-`(seed, step)` stream so the sequence is deterministic.
fn random_batch(eng: &DynamicEngine, seed: u64, step: u64) -> UpdateBatch {
    let mut rng = StdRng::seed_from_u64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    draw_batch(eng, &mut rng, 2, 2)
}

/// `deletes` distinct live edges and `inserts` distinct non-edges of the
/// engine's current view, drawn from `rng`.
fn draw_batch(
    eng: &DynamicEngine,
    rng: &mut StdRng,
    deletes: usize,
    inserts: usize,
) -> UpdateBatch {
    let view = eng.view();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    view.for_each_edge(|u, v| edges.push((u, v)));
    let n = view.base().num_nodes() as NodeId;
    let mut picked = BTreeSet::new();
    let mut dels = Vec::new();
    while dels.len() < deletes {
        let e = edges[rng.gen_range(0..edges.len())];
        if picked.insert(e) {
            dels.push(e);
        }
    }
    let mut ins = Vec::new();
    while ins.len() < inserts {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if !view.has_edge(e.0, e.1) && picked.insert(e) {
            ins.push(e);
        }
    }
    UpdateBatch::new(ins, dels).expect("batch drawn against the live view")
}

/// Rebuilds the engine's current view as a plain CSR (for the oracle and
/// the from-scratch run).
fn materialize(eng: &DynamicEngine) -> Graph {
    let mut edges = Vec::new();
    eng.view().for_each_edge(|u, v| edges.push((u, v)));
    graph_from_edges(eng.view().base().num_nodes(), &edges)
}

fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn maintained_estimate_tracks_a_from_scratch_run_across_random_batches() {
    let seed = 7u64;
    let g = corpus(seed);
    let tel = Telemetry::stats_only();
    let (mut eng, calibration) = engine_for(&g, seed, EPS, 2, 2);
    eng.refine_until(EPS, 256, &calibration, &tel);

    for step in 1..=BATCHES {
        let batch = random_batch(&eng, seed, step);
        let tau_before = eng.last_tau();
        let up = eng.apply_update(&batch, &calibration, &tel).expect("batch applies");
        assert_eq!(up.seq, step, "batch sequencing drifted");
        assert_eq!(
            up.invalidated + up.retained,
            tau_before,
            "step {step}: classification lost samples"
        );
        let rep = eng.refine_until(EPS, 256, &calibration, &tel);
        assert!(
            rep.achieved <= EPS || rep.tau >= eng.omega(),
            "step {step}: re-convergence stalled at ε = {:.4}",
            rep.achieved
        );

        // Oracle bar: the maintained estimate vs exact Brandes on the
        // mutated graph.
        let mutated = materialize(&eng);
        let maintained = scores_from_counts(&rep.global[..mutated.num_nodes()], rep.tau);
        let exact = brandes(&mutated);
        let gap = max_gap(&maintained, &exact);
        assert!(gap <= EPS, "step {step}: maintained estimate {gap:.4} from the oracle (ε {EPS})");

        // From-scratch bar: a fresh pipeline over the mutated graph
        // (diameter, calibration, adaptive run) lands within ε too, and the
        // two estimates agree to within ε of each other.
        let (mut scratch, scratch_cal) = engine_for(&mutated, seed, EPS, 2, 2);
        let srep = scratch.refine_until(EPS, 256, &scratch_cal, &tel);
        let scratch_scores = scores_from_counts(&srep.global[..mutated.num_nodes()], srep.tau);
        let sgap = max_gap(&scratch_scores, &exact);
        assert!(sgap <= EPS, "step {step}: from-scratch run {sgap:.4} from the oracle");
        let agree = max_gap(&maintained, &scratch_scores);
        assert!(
            agree <= EPS,
            "step {step}: maintained and from-scratch estimates disagree by {agree:.4}"
        );
    }
}

#[test]
fn the_update_trajectory_is_bit_identical_over_the_determinism_matrix() {
    // The maintained estimate is a pure function of
    // (graph, updates, config, seed) for a fixed pool shape: every cell of
    // the (P, T, seed) grid replays its full trajectory bit-identically —
    // converge, two update batches, re-converge — down to the
    // classification tallies and the deterministic work counter.
    for (ranks, threads) in [(1usize, 1usize), (2, 2), (3, 2)] {
        for seed in [1u64, 9] {
            let g = corpus(seed);
            let tel = Telemetry::stats_only();
            let run = || {
                let (mut eng, calibration) = engine_for(&g, seed, EPS, ranks, threads);
                let r0 = eng.refine_until(EPS, 256, &calibration, &tel);
                let mut trace = vec![(r0.global.clone(), r0.tau, 0u64, 0u64)];
                for step in 1..=2u64 {
                    let batch = random_batch(&eng, seed, step);
                    let up = eng.apply_update(&batch, &calibration, &tel).expect("applies");
                    let rep = eng.refine_until(EPS, 256, &calibration, &tel);
                    trace.push((rep.global.clone(), rep.tau, up.invalidated, up.retained));
                }
                (trace, eng.work_edges(), eng.omega())
            };
            let a = run();
            let b = run();
            assert_eq!(
                a, b,
                "P={ranks} T={threads} seed={seed}: update trajectory diverged between reruns"
            );
        }
    }
}

#[test]
fn an_update_costs_under_a_quarter_of_a_from_scratch_run() {
    // A 1 % batch, half deletions of live edges and half insertions of
    // non-edges, on a G(n, m) graph of 300 vertices at ε 0.02 on a 2 × 2
    // pool. Work is counted in traversal edges, so the ratio is exact.
    let (seed, eps, (ranks, threads)) = (42u64, 0.02, (2usize, 2usize));
    let (g, _) = largest_component(&gnm(GnmConfig { n: 300, m: 900, seed }));
    let tel = Telemetry::stats_only();

    let (mut inc, calibration) = engine_for(&g, seed, eps, ranks, threads);
    inc.refine_until(eps, 256, &calibration, &tel);
    let work_before = inc.work_edges();
    let k = (g.num_edges() as f64 * 0.01).round() as usize;
    let batch = draw_batch(&inc, &mut StdRng::seed_from_u64(seed ^ 0xBA7C_4ED1), k / 2, k - k / 2);
    inc.apply_update(&batch, &calibration, &tel).expect("batch applies");
    let rep = inc.refine_until(eps, 256, &calibration, &tel);
    let inc_work = inc.work_edges() - work_before;

    // From scratch on the mutated graph: diameter, calibration and a full
    // adaptive run, the pipeline an update would otherwise run again.
    let mutated = materialize(&inc);
    let (mut fs, fs_calibration) = engine_for(&mutated, seed, eps, ranks, threads);
    let fs_rep = fs.refine_until(eps, 256, &fs_calibration, &tel);
    let fs_cal_work = calibration_edges(&mutated, &config(seed, eps), fs.omega(), ranks, threads);
    let fs_work = fs.work_edges() + fs_cal_work;

    let ratio = inc_work as f64 / fs_work as f64;
    assert!(
        ratio < 0.25,
        "an update cost {inc_work} edges, {ratio:.3} of the {fs_work} from scratch"
    );
    let exact = brandes(&mutated);
    for (what, r) in [("incremental", &rep), ("from-scratch", &fs_rep)] {
        let scores = scores_from_counts(&r.global[..mutated.num_nodes()], r.tau);
        let gap = max_gap(&scores, &exact);
        assert!(gap <= eps, "{what} estimate {gap:.4} from the oracle (ε {eps})");
    }
}
