//! End-to-end checks of the incremental engine: the maintained estimate
//! tracks a from-scratch oracle across update batches, τ is conserved by
//! the re-sampling transaction, and the whole trajectory is bit-
//! reproducible per `(graph, updates, config, seed)`.

use kadabra_baselines::brandes;
use kadabra_core::phases::{prepare_for_pool, scores_from_counts};
use kadabra_core::{Calibration, KadabraConfig};
use kadabra_dynamic::{DynamicEngine, UpdateBatch, UpdateError};
use kadabra_graph::csr::graph_from_edges;
use kadabra_graph::generators::{grid, GridConfig};
use kadabra_graph::{Graph, GraphView, NodeId};
use kadabra_mpisim::FaultPlan;
use kadabra_telemetry::Telemetry;

const RANKS: usize = 2;
const THREADS: usize = 2;

fn setup(seed: u64, epsilon: f64) -> (Graph, KadabraConfig, u64, u32, Calibration) {
    let g = grid(GridConfig { rows: 5, cols: 5, diagonal_prob: 0.0, seed: 7 });
    let kcfg = KadabraConfig { epsilon, delta: 0.1, seed, ..Default::default() };
    let p = prepare_for_pool(&g, &kcfg, RANKS, THREADS);
    (g, kcfg, p.omega, p.vertex_diameter, p.calibration)
}

fn engine_for(g: &Graph, kcfg: &KadabraConfig, omega: u64, vd: u32) -> DynamicEngine {
    engine_under(g, kcfg, omega, vd, FaultPlan::ideal(kcfg.seed))
}

fn engine_under(
    g: &Graph,
    kcfg: &KadabraConfig,
    omega: u64,
    vd: u32,
    plan: FaultPlan,
) -> DynamicEngine {
    DynamicEngine::new(g.clone(), *kcfg, omega, vd, RANKS, THREADS, 4, plan)
}

/// Records the stream stores hold beyond what the ledgers count: the
/// overlap a round drew while its last collectives were in flight.
fn unconfirmed_records(engine: &DynamicEngine) -> u64 {
    let mut beyond = 0;
    engine.pool().for_each_rank(|st| {
        let held: u64 = st.streams.iter().map(|th| th.sink.len() as u64).sum();
        beyond += held - st.ledger.tau();
    });
    beyond
}

/// The mirror invariant: per rank, the stream stores hold exactly the
/// samples the ledger counts — Σ store interiors, one τ per record.
fn assert_stores_mirror_ledgers(engine: &DynamicEngine) {
    engine.pool().for_each_rank(|st| {
        let n = st.ledger.frame().len() - 1;
        let mut held = vec![0u64; n + 1];
        for th in &st.streams {
            for i in 0..th.sink.len() {
                th.sink.interior(i).iter().for_each(|&v| held[v as usize] += 1);
                held[n] += 1;
            }
        }
        assert_eq!(held, st.ledger.frame(), "rank {}: the stores drifted off the ledger", st.id);
    });
}

/// The batch under test: two grid edges deleted, two chords inserted.
fn test_batch(view_edges: &[(NodeId, NodeId)]) -> UpdateBatch {
    let deletes = vec![view_edges[0], view_edges[view_edges.len() / 2]];
    UpdateBatch::new(vec![(0, 24), (3, 17)], deletes).expect("valid batch")
}

fn mutated_oracle(engine: &DynamicEngine) -> Vec<f64> {
    let mut edges = Vec::new();
    engine.view().for_each_edge(|u, v| edges.push((u, v)));
    brandes(&graph_from_edges(engine.view().num_nodes(), &edges))
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn maintained_estimate_tracks_the_oracle_across_a_batch() {
    tracks_the_oracle_across_a_batch(FaultPlan::ideal(42));
}

#[test]
fn overlap_in_a_retaining_pool_is_dropped_before_classification() {
    // Poll delays > 0: every round now leaves overlap samples in the local
    // frames, with records in the stores. The batch must classify exactly
    // the confirmed population all the same.
    for seed in [42, 43] {
        tracks_the_oracle_across_a_batch(FaultPlan::from_seed(seed));
    }
}

fn tracks_the_oracle_across_a_batch(plan: FaultPlan) {
    let delayed = plan.collective_delay_polls.1 > 0;
    let (g, kcfg, omega, vd, calibration) = setup(42, 0.2);
    let tel = Telemetry::stats_only();
    let mut engine = engine_under(&g, &kcfg, omega, vd, plan);

    let report = engine.refine_until(kcfg.epsilon, 64, &calibration, &tel);
    assert!(
        report.achieved <= kcfg.epsilon || report.tau >= engine.omega(),
        "refinement must reach ε or the cap: achieved {} at τ {}",
        report.achieved,
        report.tau
    );
    let scores = scores_from_counts(&report.global[..g.num_nodes()], report.tau);
    let diff = max_abs_diff(&scores, &brandes(&g));
    assert!(diff <= kcfg.epsilon, "pre-update estimate off by {diff}");

    let tau_before = engine.last_tau();
    assert_eq!(unconfirmed_records(&engine) > 0, delayed, "overlap records before the batch");
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let batch = test_batch(&edges);
    let up = engine.apply_update(&batch, &calibration, &tel).expect("batch applies");
    assert_stores_mirror_ledgers(&engine);
    assert_eq!(up.tau, tau_before, "crash-free re-sampling must conserve τ");
    assert_eq!(up.invalidated + up.retained, tau_before, "every sample classified");
    assert!(up.invalidated > 0, "this batch provably crosses sampled paths");
    assert!(up.retained > 0, "a 4-edge batch must not invalidate everything");
    assert_eq!(up.seq, 1);

    // Re-converge the (possibly looser) post-update frame, then compare
    // against a from-scratch oracle on the mutated graph.
    let report = engine.refine_until(kcfg.epsilon, 64, &calibration, &tel);
    let scores = scores_from_counts(&report.global[..g.num_nodes()], report.tau);
    let diff = max_abs_diff(&scores, &mutated_oracle(&engine));
    assert!(diff <= kcfg.epsilon, "post-update estimate off by {diff}");
}

#[test]
fn the_trajectory_is_bit_reproducible() {
    trajectory_is_bit_reproducible(FaultPlan::ideal(99));
    trajectory_is_bit_reproducible(FaultPlan::from_seed(99));
}

fn trajectory_is_bit_reproducible(plan: FaultPlan) {
    let (g, kcfg, omega, vd, calibration) = setup(99, 0.25);
    let tel = Telemetry::stats_only();
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();

    let run = |engine: &mut DynamicEngine| {
        let r1 = engine.refine_until(kcfg.epsilon, 64, &calibration, &tel);
        let up =
            engine.apply_update(&test_batch(&edges), &calibration, &tel).expect("batch applies");
        let r2 = engine.refine_until(kcfg.epsilon, 64, &calibration, &tel);
        (r1.global, up.global, up.invalidated, r2.global, r2.tau)
    };

    let mut a = engine_under(&g, &kcfg, omega, vd, plan.clone());
    let mut b = engine_under(&g, &kcfg, omega, vd, plan);
    let ra = run(&mut a);
    let rb = run(&mut b);
    assert_eq!(ra.0, rb.0, "pre-update frames diverged");
    assert_eq!(ra.1, rb.1, "post-update frames diverged");
    assert_eq!(ra.2, rb.2, "invalidation counts diverged");
    assert_eq!(ra.3, rb.3, "re-converged frames diverged");
    assert_eq!(ra.4, rb.4);
    assert_eq!(a.work_edges(), b.work_edges(), "work accounting diverged");
}

#[test]
fn rejected_batches_change_nothing() {
    let (g, kcfg, omega, vd, calibration) = setup(7, 0.3);
    let tel = Telemetry::stats_only();
    let mut engine = engine_for(&g, &kcfg, omega, vd);
    engine.refine(&calibration, &tel);
    let frame_before = engine.last_global().to_vec();
    let work_before = engine.work_edges();

    let bad = UpdateBatch::new(vec![(0, 1)], vec![]).expect("structurally valid");
    assert_eq!(
        engine.apply_update(&bad, &calibration, &tel),
        Err(UpdateError::InsertExisting { u: 0, v: 1 })
    );
    assert_eq!(engine.log().seq(), 0);
    assert_eq!(engine.last_global(), frame_before.as_slice());
    assert_eq!(engine.work_edges(), work_before);
    assert!(engine.view().has_edge(0, 1));
}

#[test]
fn omega_ratchets_up_when_a_batch_stretches_the_graph() {
    // Deleting a rung of the grid can lengthen shortest paths; ω must
    // never shrink, and must grow if the vd bound does.
    let (g, kcfg, omega, vd, calibration) = setup(5, 0.3);
    let tel = Telemetry::stats_only();
    let mut engine = engine_for(&g, &kcfg, omega, vd);
    engine.refine(&calibration, &tel);
    let omega_before = engine.omega();
    let batch = UpdateBatch::new(vec![], vec![(0, 1)]).expect("valid");
    engine.apply_update(&batch, &calibration, &tel).expect("applies");
    assert!(engine.omega() >= omega_before, "ω must be monotone");
    assert!(engine.vertex_diameter() >= vd);
}

#[test]
fn past_the_cap_a_round_draws_nothing_and_reports_the_floor() {
    // One rule at τ ≥ ω, the static pool's: return without sampling, and
    // report at most the floor (the a-priori bound holds for a maintained
    // population as for a static one).
    let (g, kcfg, omega, vd, calibration) = setup(11, 0.2);
    let tel = Telemetry::stats_only();
    let mut engine = engine_for(&g, &kcfg, omega, vd);
    while engine.last_tau() < engine.omega() {
        engine.refine(&calibration, &tel);
    }
    let (tau, frame, work) =
        (engine.last_tau(), engine.last_global().to_vec(), engine.work_edges());
    let further = engine.refine(&calibration, &tel);
    assert_eq!((further.tau, engine.last_tau()), (tau, tau), "a round past ω drew samples");
    assert_eq!(further.global, frame);
    assert_eq!(engine.last_global(), frame.as_slice());
    assert_eq!(engine.work_edges(), work);
    assert!(further.achieved <= kcfg.epsilon, "claimed {} at the cap", further.achieved);
}
