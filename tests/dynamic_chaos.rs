//! Chaos acceptance for streaming updates (ISSUE 8): a sampler rank dies
//! **mid-update-batch** — after its local classify-and-redraw transaction,
//! instead of joining the batch's ledger all-reduce — and the service must
//! recover on the survivors via the checkpointed ledgers, never serve an
//! answer that mixes the pre- and post-update graph generations, and
//! replay the whole scenario bit-for-bit from the same `(plan, seed)`.
//!
//! The engine's fault-plan salt policy routes the plan's crash schedule to
//! the *first update batch* (refinement rounds run under crash-free
//! reseeded salts), so `with_crash_at_collective(2, 0)` fires exactly at
//! the hardest point for the recovery protocol: the batch collective.

use kadabra_mpi::baselines::brandes;
use kadabra_mpi::graph::csr::graph_from_edges;
use kadabra_mpi::graph::{Graph, NodeId};
use kadabra_mpi::mpisim::FaultPlan;
use kadabra_mpi::server::testkit::{boot_dynamic_with_plan, corpus_graph, tenant_config, TENANT};
use kadabra_mpi::server::{QueryError, Server};

const SEED: u64 = 23;

/// Rank 2 of the 3-rank pool dies instead of joining its first collective.
/// Refinement rounds are crash-free by the salt policy, so this is the
/// update batch's post-transaction ledger all-reduce.
fn crash_plan() -> FaultPlan {
    FaultPlan::ideal(SEED).with_crash_at_collective(2, 0)
}

fn boot_chaos() -> Server {
    boot_dynamic_with_plan(SEED, crash_plan())
}

type EdgeList = Vec<(NodeId, NodeId)>;

/// A deterministic update batch in original vertex ids: two deletions of
/// corpus edges plus one insertion of the first non-edge.
fn fixture_batch(g: &Graph) -> (EdgeList, EdgeList) {
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let deletes = vec![edges[0], edges[edges.len() / 2]];
    let n = g.num_nodes() as NodeId;
    let mut inserts = Vec::new();
    'outer: for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                inserts.push((u, v));
                break 'outer;
            }
        }
    }
    (inserts, deletes)
}

/// The corpus graph after the fixture batch, for the post-update oracle.
fn mutated_graph(g: &Graph) -> Graph {
    let (inserts, deletes) = fixture_batch(g);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().filter(|e| !deletes.contains(e)).collect();
    edges.extend(inserts);
    graph_from_edges(g.num_nodes(), &edges)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The crash fires inside the update batch: the pool shrinks from 3 to 2,
/// the survivors' checkpointed ledgers carry the post-update frame, and
/// every answer afterwards tracks the *mutated* graph within the reported
/// accuracy.
#[test]
fn crash_mid_update_batch_recovers_on_the_survivors() {
    let corpus = corpus_graph(SEED);
    let exact_new = brandes(&mutated_graph(&corpus));
    let server = boot_chaos();
    let c = server.client();
    let t = server.tenant(TENANT).expect("fixture tenant");

    // Refinement before the update runs crash-free on the full pool —
    // proving the shrink observed below is the batch collective's doing.
    let out = c.refine(TENANT, 0.3, 256).expect("refine on the full pool");
    assert_eq!(out.live, 3, "a rank died during a refine round");
    let tau_before = out.tau;

    let (inserts, deletes) = fixture_batch(&corpus);
    let up = c.update(TENANT, &inserts, &deletes, 0).expect("batch applies through the crash");
    assert_eq!(up.seq, 1);
    assert_eq!(up.live, 2, "exactly one rank must have died mid-batch");
    assert_eq!(up.generation, 1, "the batch must retire the old graph's generation");
    assert!(up.invalidated > 0, "the batch crossed no retained sample");
    assert!(up.retained > 0, "classification invalidated everything");
    assert!(
        up.invalidated + up.retained < tau_before,
        "the dead rank's mass must be gone from the survivor tallies"
    );
    assert_eq!(
        up.tau,
        up.invalidated + up.retained,
        "post-crash τ must be exactly the survivors' post-transaction mass"
    );

    // The survivors' frontier answers about the mutated graph, within the
    // accuracy it reports.
    for v in 0..t.num_vertices() as u32 {
        let est = c.vertex(TENANT, v).expect("post-update frontier published");
        assert!(est.lower <= est.estimate && est.estimate <= est.upper);
        assert!(
            (est.estimate - exact_new[v as usize]).abs() <= est.eps,
            "v{v}: strayed beyond the reported ε {} after recovery",
            est.eps
        );
    }

    // Refinement continues on the shrunken pool down to the floor.
    let floor = t.floor_eps();
    let out = c.refine(TENANT, floor, 256).expect("floor reachable on the survivors");
    assert_eq!(out.live, 2, "the pool must not shrink further");
    assert!(out.achieved <= floor, "survivors stalled at ε = {}", out.achieved);
    let mut sc = c.scratch(TENANT).expect("tenant");
    let mut scores = Vec::new();
    for &eps in &t.schedule() {
        let meta = c.estimate_into(TENANT, eps, &mut sc, &mut scores).expect("stage frozen");
        let err = max_abs_diff(&scores, &exact_new);
        assert!(
            err <= meta.eps,
            "stage ε={eps}: err {err} > reported {} on the new graph",
            meta.eps
        );
    }
}

/// Generation fencing across the crash: the update retires every frozen
/// stage of the old graph (they come back `NotReady`, never stale), and the
/// stages re-frozen afterwards carry *new-graph* answers.
#[test]
fn the_cache_never_serves_a_mixed_generation_answer() {
    let corpus = corpus_graph(SEED);
    let exact_new = brandes(&mutated_graph(&corpus));
    let server = boot_chaos();
    let c = server.client();
    let t = server.tenant(TENANT).expect("fixture tenant");
    let floor = t.floor_eps();

    // Freeze every stage under generation 0 (old graph) and record its
    // exact bits.
    c.refine(TENANT, floor, 256).expect("floor reachable pre-update");
    let mut sc = c.scratch(TENANT).expect("tenant");
    let mut scores = Vec::new();
    let mut old_bits = Vec::new();
    for &eps in &t.schedule() {
        c.estimate_into(TENANT, eps, &mut sc, &mut scores).expect("stage frozen pre-update");
        old_bits.push(scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>());
    }

    // The update (with the mid-batch crash) bumps the generation without
    // any follow-up refinement. Every old-graph stage is fenced off: a
    // full-vector query either reports `NotReady` (the stage has not
    // re-frozen yet) or serves a vector re-frozen from the post-update
    // frame — never the old generation's bits, never a blend outside the
    // new graph's ε.
    let (inserts, deletes) = fixture_batch(&corpus);
    let up = c.update(TENANT, &inserts, &deletes, 0).expect("batch applies");
    assert_eq!(up.generation, 1);
    for (i, &eps) in t.schedule().iter().enumerate() {
        match c.estimate_into(TENANT, eps, &mut sc, &mut scores) {
            Err(QueryError::NotReady { .. }) => {}
            Ok(meta) => {
                let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                assert_ne!(
                    bits, old_bits[i],
                    "stage ε={eps} served the old generation's vector after the bump"
                );
                let err = max_abs_diff(&scores, &exact_new);
                assert!(
                    err <= meta.eps,
                    "stage ε={eps} served a blend {err} off the new oracle after the bump"
                );
            }
            Err(e) => panic!("stage ε={eps}: unexpected error across the bump: {e}"),
        }
    }
    // The per-vertex frontier, republished under the new generation inside
    // the same engine-lock critical section, answers the new graph.
    let v0 = c.vertex(TENANT, 0).expect("post-update frontier");
    assert!((v0.estimate - exact_new[0]).abs() <= v0.eps);

    // Refinement re-freezes the schedule under the new generation; every
    // stage now matches the new oracle within its ε.
    c.refine(TENANT, floor, 256).expect("floor reachable after the update");
    for &eps in &t.schedule() {
        let meta = c.estimate_into(TENANT, eps, &mut sc, &mut scores).expect("stage re-frozen");
        let err = max_abs_diff(&scores, &exact_new);
        assert!(err <= meta.eps, "stage ε={eps}: re-frozen stage off the new oracle by {err}");
    }
}

/// Readers racing the crashing update always see a coherent snapshot: a
/// well-formed confidence interval around an estimate that matches either
/// the old graph or the new one within the reported ε — never a blend
/// outside both.
#[test]
#[expect(
    clippy::needless_collect,
    reason = "all readers must be running before the update starts; joining lazily would \
              serialize them after it"
)]
fn concurrent_readers_stay_coherent_through_the_crashing_update() {
    let corpus = corpus_graph(SEED);
    let exact_old = std::sync::Arc::new(brandes(&corpus));
    let exact_new = std::sync::Arc::new(brandes(&mutated_graph(&corpus)));
    let server = boot_chaos();
    let c = server.client();
    c.refine(TENANT, 0.3, 256).expect("warm frontier");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let c = server.client();
            let exact_old = std::sync::Arc::clone(&exact_old);
            let exact_new = std::sync::Arc::clone(&exact_new);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let n = exact_old.len() as u32;
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let v = (r * 31 + reads as usize * 7) as u32 % n;
                    match c.vertex(TENANT, v) {
                        Ok(est) => {
                            assert!(est.lower <= est.estimate && est.estimate <= est.upper);
                            let old_ok = (est.estimate - exact_old[v as usize]).abs() <= est.eps;
                            let new_ok = (est.estimate - exact_new[v as usize]).abs() <= est.eps;
                            assert!(
                                old_ok || new_ok,
                                "v{v} matches neither graph generation within ε {}",
                                est.eps
                            );
                            reads += 1;
                        }
                        Err(QueryError::Overloaded) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected error mid-update: {e}"),
                    }
                }
                reads
            })
        })
        .collect();

    let (inserts, deletes) = fixture_batch(&corpus);
    let up = c.update(TENANT, &inserts, &deletes, 64).expect("batch applies");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
    assert_eq!(up.live, 2, "the planned crash must have fired");
    assert!(total > 0, "readers never got a successful answer in");
}

/// The whole chaos scenario is a pure function of `(plan, seed)`: two runs
/// produce bit-identical update outcomes, frozen stages, and checkpointed
/// ledger images.
#[test]
fn the_crashing_update_replays_bit_for_bit() {
    let corpus = corpus_graph(SEED);
    let run = || {
        let server = boot_chaos();
        let c = server.client();
        let t = server.tenant(TENANT).expect("tenant");
        let floor = t.floor_eps();
        c.refine(TENANT, 0.3, 256).expect("pre-update refine");
        let (inserts, deletes) = fixture_batch(&corpus);
        let up = c.update(TENANT, &inserts, &deletes, 0).expect("batch applies");
        let out = c.refine(TENANT, floor, 256).expect("floor reachable");
        let mut sc = c.scratch(TENANT).expect("tenant");
        let mut scores = Vec::new();
        let mut stages = Vec::new();
        for &eps in &t.schedule() {
            let meta = c.estimate_into(TENANT, eps, &mut sc, &mut scores).expect("frozen");
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            stages.push((meta.eps.to_bits(), meta.tau, meta.round, bits));
        }
        let ckpt = server.checkpoint(TENANT).expect("tenant");
        (
            (up.seq, up.invalidated, up.retained, up.tau, up.generation, up.live),
            (out.live, out.tau, out.rounds_run),
            stages,
            ckpt.images,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "update outcome diverged between replays");
    assert_eq!(a.1, b.1, "(live, τ, rounds) diverged");
    assert_eq!(a.2, b.2, "frozen stages diverged between replays");
    assert_eq!(a.3, b.3, "checkpointed ledger images diverged between replays");
}

/// Sanity for the fixture: the same scenario under an ideal plan keeps all
/// three ranks through the update — the shrink above is the plan's doing.
#[test]
fn an_ideal_plan_keeps_the_full_pool_through_the_update() {
    let corpus = corpus_graph(SEED);
    let server = boot_dynamic_with_plan(SEED, FaultPlan::ideal(SEED));
    let cfg = tenant_config(SEED);
    let c = server.client();
    let (inserts, deletes) = fixture_batch(&corpus);
    let tau_before = {
        let out = c.refine(TENANT, 0.3, 256).expect("refine");
        out.tau
    };
    let up = c.update(TENANT, &inserts, &deletes, 0).expect("batch applies");
    assert_eq!(up.live, cfg.pool_ranks, "a rank died under the ideal plan");
    assert_eq!(
        up.invalidated + up.retained,
        tau_before,
        "classification must conserve the full pool's τ"
    );
}
