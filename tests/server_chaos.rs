//! Chaos acceptance for the resident service (ISSUE 7): crash a sampler
//! rank mid-refine via a `FaultPlan` and the service must keep answering
//! queries within the last checkpointed accuracy, keep refining on the
//! shrunken pool all the way to the floor, and replay the entire recovery
//! bit-for-bit from the same `(plan, seed)`.

use kadabra_mpi::baselines::brandes;
use kadabra_mpi::mpisim::FaultPlan;
use kadabra_mpi::server::testkit::{boot_with_plan, corpus_graph, tenant_config, TENANT};
use kadabra_mpi::server::{QueryError, Server};

const SEED: u64 = 19;

/// Rank 2 of the 3-rank sampler pool dies at its second collective join —
/// inside the warmup round's sampling loop, with a reduction in flight.
fn crash_plan() -> FaultPlan {
    FaultPlan::ideal(SEED).with_crash_at_collective(2, 2)
}

fn boot_chaos() -> Server {
    boot_with_plan(SEED, crash_plan())
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The crash fires mid-refine, the pool shrinks, and every query the
/// service answers afterwards — vertex, estimate, top-k — is still within
/// the accuracy it reports, measured against exact Brandes.
#[test]
fn crash_mid_refine_keeps_answers_within_checkpointed_eps() {
    let exact = brandes(&corpus_graph(SEED));
    let server = boot_chaos();
    let c = server.client();
    let t = server.tenant(TENANT).expect("fixture tenant");
    let mut sc = c.scratch(TENANT).expect("fixture tenant");

    // The crash fires during the warmup refine (round 0); the first
    // refinement request afterwards runs on the survivors and publishes the
    // frontier the service checkpoints from.
    let out = c.refine(TENANT, 0.5, 256).expect("first stage reachable on the shrunken pool");
    assert_eq!(out.live, 2, "exactly one sampler rank must have died");
    let checkpointed = t.achieved_eps();
    assert!(checkpointed <= 0.5, "no usable frontier after the crash: ε = {checkpointed}");

    let mut scores = Vec::new();
    for v in 0..t.num_vertices() as u32 {
        let est = c.vertex(TENANT, v).expect("frontier published");
        assert!(
            (est.estimate - exact[v as usize]).abs() <= est.eps,
            "v{v}: err beyond the checkpointed ε {}",
            est.eps
        );
        assert!(est.eps <= checkpointed + f64::EPSILON);
    }

    // Refinement continues on the survivors down to the floor.
    let floor = t.floor_eps();
    let out = c.refine(TENANT, floor, 256).expect("floor reachable on the shrunken pool");
    assert_eq!(out.live, 2, "the pool must not shrink further");
    assert!(out.achieved <= floor, "survivors stalled at ε = {}", out.achieved);

    for &eps in &t.schedule() {
        let meta = c.estimate_into(TENANT, eps, &mut sc, &mut scores).expect("stage frozen");
        let err = max_abs_diff(&scores, &exact);
        assert!(err <= meta.eps, "stage ε={eps}: err {err} > reported {}", meta.eps);
    }
    let mut top = Vec::new();
    let meta = c.topk_into(TENANT, 5, &mut sc, &mut top).expect("frontier");
    for &(v, score) in &top {
        assert!((score - exact[v as usize]).abs() <= meta.eps);
    }
}

/// Queries issued from other threads *while* the crash-and-recover refine
/// is running must always see a coherent snapshot: monotone rounds, CI
/// containing the estimate, error within the reported ε of the oracle.
#[test]
#[expect(
    clippy::needless_collect,
    reason = "all readers must be running before the refine starts; joining lazily would \
              serialize them after it"
)]
fn concurrent_queries_stay_coherent_through_the_crash() {
    let exact = std::sync::Arc::new(brandes(&corpus_graph(SEED)));
    let server = boot_chaos();
    let floor = server.tenant(TENANT).expect("tenant").floor_eps();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let c = server.client();
            let exact = std::sync::Arc::clone(&exact);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let n = exact.len() as u32;
                let mut last_round = 0u64;
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let v = (r * 31 + reads as usize * 7) as u32 % n;
                    match c.vertex(TENANT, v) {
                        Ok(est) => {
                            assert!(est.lower <= est.estimate && est.estimate <= est.upper);
                            assert!(
                                (est.estimate - exact[v as usize]).abs() <= est.eps,
                                "v{v} strayed beyond its reported ε mid-recovery"
                            );
                            assert!(est.round >= last_round, "cache round went backwards");
                            last_round = est.round;
                            reads += 1;
                        }
                        Err(QueryError::Overloaded) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected error mid-recovery: {e}"),
                    }
                }
                reads
            })
        })
        .collect();

    let c = server.client();
    let out = c.refine(TENANT, floor, 256).expect("floor reachable");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
    assert_eq!(out.live, 2, "the planned crash must have fired");
    assert!(total > 0, "readers never got a successful answer in");
}

/// The whole chaos scenario is a pure function of `(plan, seed)`: two runs
/// must produce bit-identical frozen stages, identical frontier metadata,
/// identical survivor counts, and identical checkpoints.
#[test]
fn chaos_recovery_replays_bit_for_bit() {
    let run = || {
        let server = boot_chaos();
        let c = server.client();
        let t = server.tenant(TENANT).expect("tenant");
        let floor = t.floor_eps();
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
        (out.live, out.tau, out.rounds_run, stages, ckpt.images, ckpt.round)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "survivor count diverged");
    assert_eq!((a.1, a.2), (b.1, b.2), "(τ, rounds) diverged");
    assert_eq!(a.3, b.3, "frozen stages diverged between replays");
    assert_eq!(a.4, b.4, "checkpoint images diverged between replays");
    assert_eq!(a.5, b.5);
}

/// Sanity for the fixture itself: the same scenario with the crash removed
/// keeps all three ranks — proving the shrink observed above is the plan's
/// doing, not an artifact of the pool.
#[test]
fn ideal_plan_keeps_the_full_pool() {
    let server = boot_with_plan(SEED, FaultPlan::ideal(SEED));
    let cfg = tenant_config(SEED);
    let c = server.client();
    let floor = server.tenant(TENANT).expect("tenant").floor_eps();
    let out = c.refine(TENANT, floor, 256).expect("floor reachable");
    assert_eq!(out.live, cfg.pool_ranks, "a rank died under the ideal plan");
    assert!(out.achieved <= floor);
}
