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
//! The companion `tests/dynamic_chaos.rs` covers the same trajectory under
//! injected rank crashes; `bench_dynamic` gates the work ratio.

use std::collections::BTreeSet;

use kadabra_mpi::baselines::brandes;
use kadabra_mpi::core::phases::{prepare_for_pool, scores_from_counts};
use kadabra_mpi::core::{Calibration, KadabraConfig};
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

/// Replays the diameter + calibration phases at a `ranks × threads` pool's
/// streams, exactly as the resident service provisions an engine.
fn setup(
    g: &Graph,
    seed: u64,
    ranks: usize,
    threads: usize,
) -> (KadabraConfig, u64, u32, Calibration) {
    let kcfg = KadabraConfig { epsilon: EPS, delta: 0.1, seed, ..Default::default() };
    let p = prepare_for_pool(g, &kcfg, ranks, threads);
    (kcfg, p.omega, p.vertex_diameter, p.calibration)
}

fn engine_for(g: &Graph, seed: u64, ranks: usize, threads: usize) -> (DynamicEngine, Calibration) {
    let (kcfg, omega, vd, calibration) = setup(g, seed, ranks, threads);
    let eng =
        DynamicEngine::new(g.clone(), kcfg, omega, vd, ranks, threads, 4, FaultPlan::ideal(seed));
    (eng, calibration)
}

/// Draws a small random batch against the engine's **current** view: two
/// deletions of live edges plus two insertions of fresh non-edges, all from
/// a per-`(seed, step)` stream so the sequence is deterministic.
fn random_batch(eng: &DynamicEngine, seed: u64, step: u64) -> UpdateBatch {
    let view = eng.view();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    view.for_each_edge(|u, v| edges.push((u, v)));
    let n = view.base().num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut picked = BTreeSet::new();
    let mut deletes = Vec::new();
    while deletes.len() < 2 {
        let e = edges[rng.gen_range(0..edges.len())];
        if picked.insert(e) {
            deletes.push(e);
        }
    }
    let mut inserts = Vec::new();
    while inserts.len() < 2 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if !view.has_edge(e.0, e.1) && picked.insert(e) {
            inserts.push(e);
        }
    }
    UpdateBatch::new(inserts, deletes).expect("batch drawn against the live view")
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
    let (mut eng, calibration) = engine_for(&g, seed, 2, 2);
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
        let (mut scratch, scratch_cal) = engine_for(&mutated, seed, 2, 2);
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
                let (mut eng, calibration) = engine_for(&g, seed, ranks, threads);
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
