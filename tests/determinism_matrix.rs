//! Seed-matrix determinism regression: `kadabra_epoch_mpi` (Algorithm 2)
//! run through the observed driver must produce **bit-identical** scores
//! across repeated runs for every `(P, T, seed)` cell of a small grid.
//!
//! This is the regression fence for the logical-clock property the fault
//! layer introduces: under a plan, overlap sample counts are a pure
//! function of `(plan, seed)`, never of OS scheduling. If a future change
//! lets wall-clock time leak back into the sampling schedule, a cell here
//! diverges between its two runs and names the exact `(shape, seed)` that
//! broke.

use kadabra_mpi::core::{
    kadabra_epoch_mpi, kadabra_epoch_mpi_observed, kadabra_mpi_flat, kadabra_mpi_flat_observed,
    kadabra_naive_parallel, kadabra_sequential, kadabra_shared, omega, prepare_for_pool,
    BetweennessResult, ChaosOptions, ClusterShape, KadabraConfig, SamplerPool,
};
use kadabra_mpi::dynamic::{DynamicEngine, UpdateBatch};
use kadabra_mpi::graph::components::largest_component;
use kadabra_mpi::graph::diameter::diameter_brute_force;
use kadabra_mpi::graph::generators::{gnm, GnmConfig};
use kadabra_mpi::mpisim::FaultPlan;
use kadabra_mpi::telemetry::Telemetry;

#[test]
fn epoch_mpi_is_bit_identical_across_runs_over_the_seed_matrix() {
    let (g, _) = largest_component(&gnm(GnmConfig { n: 50, m: 130, seed: 3 }));
    let shapes = [
        ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: 1 },
        ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 },
        ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 },
        ClusterShape { ranks: 3, ranks_per_node: 1, threads_per_rank: 2 },
    ];
    for shape in shapes {
        for seed in [1u64, 9, 42] {
            let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed, ..Default::default() };
            // The plan seed is deliberately tied to the sampling seed so the
            // matrix also varies the injected schedule, not just the RNG.
            let opts = ChaosOptions {
                plan: FaultPlan::from_seed(seed),
                probe: false,
                conservation: false,
                telemetry: false,
            };
            let a = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
            let b = kadabra_epoch_mpi_observed(&g, &cfg, shape, &opts);
            assert_eq!(
                a.result.scores, b.result.scores,
                "P={} T={} seed={seed}: scores diverged [{}]",
                shape.ranks, shape.threads_per_rank, a.plan_summary
            );
            assert_eq!(
                a.result.samples, b.result.samples,
                "P={} T={} seed={seed}: sample totals diverged [{}]",
                shape.ranks, shape.threads_per_rank, a.plan_summary
            );
        }
    }
}

#[test]
fn telemetry_tracing_does_not_perturb_chaos_runs() {
    // Recording a full event trace must be a pure observer: scores, sample
    // totals and epoch counts stay bit-identical to a trace-free run of the
    // same plan, for both MPI drivers.
    let (g, _) = largest_component(&gnm(GnmConfig { n: 50, m: 130, seed: 3 }));
    let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed: 9, ..Default::default() };

    let off = ChaosOptions::all(FaultPlan::from_seed(9));
    let on = off.clone().with_telemetry();

    let a = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &off);
    let b = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &on);
    assert_eq!(a.result.scores, b.result.scores, "flat: telemetry perturbed scores");
    assert_eq!(a.result.samples, b.result.samples);
    assert_eq!(a.result.stats.epochs, b.result.stats.epochs);
    // The traced run's phase breakdown carries real content…
    assert!(b.phases.counter(kadabra_mpi::telemetry::CounterId::Samples) > 0);
    // …and is itself reproducible: same plan, same breakdown.
    let c = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &on);
    assert_eq!(b.phases, c.phases, "traced phase breakdown diverged between reruns");

    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
    let a = kadabra_epoch_mpi_observed(&g, &cfg, shape, &off);
    let b = kadabra_epoch_mpi_observed(&g, &cfg, shape, &on);
    assert_eq!(a.result.scores, b.result.scores, "epoch: telemetry perturbed scores");
    assert_eq!(a.result.samples, b.result.samples);
}

#[test]
fn crash_recovery_runs_are_bit_identical_with_telemetry_on_and_off() {
    // Shrink-and-continue recovery must be just as deterministic as a
    // healthy run: a plan that kills a rank mid-adaptive-phase produces
    // bit-identical scores whether or not a full event trace is recorded,
    // and the recovery path itself (ranks lost, shrink count) reproduces.
    let (g, _) = largest_component(&gnm(GnmConfig { n: 50, m: 130, seed: 3 }));
    let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed: 9, ..Default::default() };

    // Flat driver: rank 1 dies instead of joining its round-0 reduction
    // (joins 0–1 are the setup broadcast and calibration all-reduce).
    let off = ChaosOptions::all(FaultPlan::ideal(21).with_crash_at_collective(1, 2));
    let on = off.clone().with_telemetry();
    let a = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &off);
    let b = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &on);
    assert!(a.recoveries >= 1, "crash never fired [{}]", a.plan_summary);
    assert_eq!(a.result.scores, b.result.scores, "flat: telemetry perturbed a crash run");
    assert_eq!(a.result.samples, b.result.samples);
    assert_eq!((a.ranks_lost, a.recoveries), (b.ranks_lost, b.recoveries));
    // The traced recovery is itself reproducible, phase breakdown included.
    let c = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &on);
    assert_eq!(b.result.scores, c.result.scores);
    assert_eq!(b.phases, c.phases, "traced crash-run phase breakdown diverged");

    // Epoch driver: rank 3 dies instead of joining its first adaptive
    // collective (joins 0–3 are the two hierarchy splits, the diameter
    // broadcast, and the calibration all-reduce).
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
    let off = ChaosOptions::all(FaultPlan::ideal(33).with_crash_at_collective(3, 4));
    let on = off.clone().with_telemetry();
    let a = kadabra_epoch_mpi_observed(&g, &cfg, shape, &off);
    let b = kadabra_epoch_mpi_observed(&g, &cfg, shape, &on);
    assert!(a.recoveries >= 1, "crash never fired [{}]", a.plan_summary);
    assert_eq!(a.result.scores, b.result.scores, "epoch: telemetry perturbed a crash run");
    assert_eq!(a.result.samples, b.result.samples);
    assert_eq!((a.ranks_lost, a.recoveries), (b.ranks_lost, b.recoveries));
}

#[test]
fn mid_run_join_is_bit_identical_with_telemetry_on_and_off() {
    // Elastic grows must be just as deterministic as crashes: a plan that
    // admits standby ranks mid-adaptive-phase produces bit-identical scores
    // whether or not a full event trace is recorded, the rebalance
    // bookkeeping reproduces, and the traced run's phase breakdown is
    // itself stable across reruns.
    let (g, _) = largest_component(&gnm(GnmConfig { n: 50, m: 130, seed: 3 }));
    // ε tight enough that the adaptive phase runs past the join round.
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 9, ..Default::default() };

    let off = ChaosOptions::all(FaultPlan::ideal(17).with_join(1, 2).with_straggler(1, 4));
    let on = off.clone().with_telemetry();
    let a = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &off);
    let b = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &on);
    assert_eq!(a.ranks_joined, 2, "join never fired [{}]", a.plan_summary);
    assert_eq!(a.result.scores, b.result.scores, "telemetry perturbed a grown run");
    assert_eq!(a.result.samples, b.result.samples);
    assert_eq!(a.ranks_joined, b.ranks_joined);
    // The traced grow carries real content and reproduces exactly.
    assert!(b.phases.counter(kadabra_mpi::telemetry::CounterId::RanksJoined) > 0);
    let c = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &on);
    assert_eq!(b.result.scores, c.result.scores);
    assert_eq!(b.phases, c.phases, "traced grow phase breakdown diverged between reruns");
}

#[test]
fn flat_mpi_is_bit_identical_across_runs_over_the_seed_matrix() {
    let (g, _) = largest_component(&gnm(GnmConfig { n: 50, m: 130, seed: 3 }));
    for ranks in [1usize, 2, 4] {
        for seed in [5u64, 23] {
            let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed, ..Default::default() };
            let opts = ChaosOptions {
                plan: FaultPlan::from_seed(seed),
                probe: false,
                conservation: false,
                telemetry: false,
            };
            let a = kadabra_mpi_flat_observed(&g, &cfg, ranks, 0, &opts);
            let b = kadabra_mpi_flat_observed(&g, &cfg, ranks, 0, &opts);
            assert_eq!(
                a.result.scores, b.result.scores,
                "P={ranks} seed={seed}: scores diverged [{}]",
                a.plan_summary
            );
        }
    }
}

/// FNV-1a (64-bit) over the sample count and the `f64::to_bits` image of
/// every score, little-endian: one word that changes if any bit of a
/// driver's answer does.
fn transcript_digest(r: &BetweennessResult) -> u64 {
    fnv1a(std::iter::once(r.samples).chain(r.scores.iter().map(|s| s.to_bits())))
}

/// FNV-1a (64-bit) over the little-endian bytes of `words` — applied as is
/// to a resident pool's `[c̃.., τ]` frame.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn golden_transcripts_hold_across_commits() {
    // Every other test in this file compares a build with itself. These
    // constants were recorded at the commit before the batched BiBFS was
    // deleted (through its width-8 default) and pin the per-seed
    // deterministic drivers across commits: a change to the traversal, the
    // cut order, the backtrack or the RNG stream consumption moves them.
    let (g, _) = largest_component(&gnm(GnmConfig { n: 200, m: 520, seed: 3 }));
    let cfg = KadabraConfig { epsilon: 0.04, delta: 0.1, seed: 9, ..Default::default() };

    let seq = kadabra_sequential(&g, &cfg);
    assert_eq!((seq.samples, transcript_digest(&seq)), (2000, 0x1e75_b77c_f043_b0a9), "sequential");
    // The ω every row below samples against is the ω of the exact
    // diameter. iFUB's default budget ends inside a level here, so the
    // vertex diameter it reports is a sound bound above D + 1 (8 + 1, not
    // 6 + 1) that lands in the same ⌊log₂(VD − 2)⌋ bucket.
    let vd = diameter_brute_force(&g) + 1;
    assert!(seq.vertex_diameter >= vd, "VD {} below the exact {vd}", seq.vertex_diameter);
    assert_eq!(seq.omega, omega(cfg.c, cfg.epsilon, cfg.delta, vd), "ω of the exact diameter");

    let naive = kadabra_naive_parallel(&g, &cfg, 2);
    assert_eq!((naive.samples, transcript_digest(&naive)), (1592, 0x10ee_88d4_d5f9_fb08), "naive");

    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
    let chaos = ChaosOptions::all(FaultPlan::from_seed(9));
    let epoch = kadabra_epoch_mpi_observed(&g, &cfg, shape, &chaos).result;
    assert_eq!((epoch.samples, transcript_digest(&epoch)), (1424, 0xce94_b657_9751_98db), "epoch");

    // A firing crash: rank 3 dies at its first adaptive collective, the
    // survivors shrink, re-split and finish. The report counters are part
    // of the transcript (`max_epoch_gap` is not: 0 or 1 by scheduling).
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 };
    let chaos = ChaosOptions::all(FaultPlan::from_seed(33).with_crash_at_collective(3, 4));
    let crash = kadabra_epoch_mpi_observed(&g, &cfg, shape, &chaos);
    assert_eq!(
        (crash.result.samples, transcript_digest(&crash.result)),
        (1824, 0x9968_fb3d_a1c0_41b4),
        "epoch crash"
    );
    assert_eq!((crash.ranks_lost, crash.recoveries, crash.conservation_rounds), (1, 1, 3));

    // At P·T = 1 nothing is left to the scheduler or to the plan: every
    // entry point of Algorithms 1 and 2 is the same program.
    let one = (2000, 0x5d42_8946_b239_9055);
    let shape = ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: 1 };
    let ideal = ChaosOptions::all(FaultPlan::ideal(0));
    let r = kadabra_epoch_mpi(&g, &cfg, shape);
    assert_eq!((r.samples, transcript_digest(&r)), one, "epoch, 1 x 1");
    let r = kadabra_epoch_mpi_observed(&g, &cfg, shape, &ideal).result;
    assert_eq!((r.samples, transcript_digest(&r)), one, "epoch observed, 1 x 1");
    let r = kadabra_mpi_flat(&g, &cfg, 1);
    assert_eq!((r.samples, transcript_digest(&r)), one, "flat, 1 rank");
    let r = kadabra_mpi_flat_observed(&g, &cfg, 1, 0, &ideal).result;
    assert_eq!((r.samples, transcript_digest(&r)), one, "flat observed, 1 rank");
    let r = kadabra_mpi_flat_observed(&g, &cfg, 1, 1, &ideal).result;
    assert_eq!((r.samples, transcript_digest(&r)), one, "flat observed, 1 founder + 1 standby");
    let r = kadabra_shared(&g, &cfg, 1);
    assert_eq!((r.samples, transcript_digest(&r)), one, "shared, 1 thread");

    // Algorithm 2 at T = 1 and P > 1 (the hierarchical path `rmat-epoch`
    // runs), under delay-free plans: healthy, and with rank 3 dying at its
    // first adaptive collective.
    let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 1 };
    let r = kadabra_epoch_mpi_observed(&g, &cfg, shape, &ChaosOptions::all(FaultPlan::ideal(9)));
    assert_eq!(
        (r.result.samples, transcript_digest(&r.result)),
        (1592, 0xfc93_ece7_99d1_942f),
        "epoch, 2 x 1"
    );
    let shape = ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 1 };
    let chaos = ChaosOptions::all(FaultPlan::ideal(33).with_crash_at_collective(3, 4));
    let crash = kadabra_epoch_mpi_observed(&g, &cfg, shape, &chaos);
    assert_eq!(
        (crash.result.samples, transcript_digest(&crash.result)),
        (1708, 0x7582_0aaa_7625_a027),
        "epoch crash, 4 x 1"
    );
    assert_eq!((crash.ranks_lost, crash.recoveries, crash.conservation_rounds), (1, 1, 2));

    // Algorithm 1 under a firing crash, and growing by two ranks beside a
    // straggler.
    let chaos = ChaosOptions::all(FaultPlan::from_seed(21).with_crash_at_collective(1, 2));
    let crash = kadabra_mpi_flat_observed(&g, &cfg, 3, 0, &chaos);
    assert_eq!(
        (crash.result.samples, transcript_digest(&crash.result)),
        (1656, 0x2305_5f0d_ffeb_cfee),
        "flat crash"
    );
    assert_eq!((crash.ranks_lost, crash.recoveries, crash.conservation_rounds), (1, 1, 2));

    let elastic = ChaosOptions::all(FaultPlan::from_seed(17).with_join(1, 2).with_straggler(1, 4));
    let grown = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &elastic);
    assert_eq!(
        (grown.result.samples, transcript_digest(&grown.result)),
        (1485, 0x595b_2db5_63b7_6bd5),
        "flat grow"
    );
    assert_eq!((grown.ranks_joined, grown.conservation_rounds), (2, 2));

    // The resident pools, on the same graph with small epochs (several
    // rounds stay below ω = 1874). Static: rank 2 dies in round 0, the pool
    // grows to four ranks and sheds to one.
    let cfg = KadabraConfig { n0_base: 200.0, ..cfg };
    let n = g.num_nodes();
    let tel = Telemetry::stats_only();
    let p = prepare_for_pool(&g, &cfg, 3, 1);
    assert_eq!((p.vertex_diameter, p.omega), (seq.vertex_diameter, seq.omega), "pool prologue");
    // A static tenant's plan policy: round r runs under `reseeded(r)`.
    let plan = FaultPlan::ideal(42).with_crash_at_collective(2, 2);
    let mut pool = SamplerPool::new(n, cfg, p.omega, 3, 1, || ());
    let mut rows = Vec::new();
    for resize in [None, None, None, Some(4), Some(1)] {
        if let Some(ranks) = resize {
            pool.resize(ranks);
        }
        let salted = plan.reseeded(pool.status().round);
        let r = pool.round(&g, salted, 2, &p.calibration, &tel);
        rows.push((r.tau, r.live, fnv1a(r.global)));
    }
    assert_eq!(
        rows,
        [
            (92, 2, 0x5daf_fcfb_d11c_a3da),
            (412, 2, 0x165c_3647_20f6_8031),
            (732, 2, 0x93a5_4ebe_d068_ebce),
            (988, 4, 0x2e31_cec7_4192_4055),
            (1388, 1, 0xcc15_37e4_70c4_4008),
        ],
        "static pool"
    );
    assert_eq!(pool.status().achieved.to_bits(), 0x3fa5_47df_3918_0679, "static pool");

    // Dynamic, 2 ranks x 2 streams: converge, apply the `dynamic_chaos`
    // fixture batch, converge tighter.
    let p = prepare_for_pool(&g, &cfg, 2, 2);
    let mut eng = DynamicEngine::new(
        g.clone(),
        cfg,
        p.omega,
        p.vertex_diameter,
        2,
        2,
        4,
        FaultPlan::ideal(9),
    );
    let r = eng.refine_until(0.04, 256, &p.calibration, &tel);
    assert_eq!((r.tau, r.round, fnv1a(r.global)), (1536, 2, 0x06e5_b50c_d340_7c60), "dynamic");
    let edges: Vec<_> = g.edges().collect();
    let non_edge = (0..n as u32)
        .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("the graph is not complete");
    let batch = UpdateBatch::new(vec![non_edge], vec![edges[0], edges[edges.len() / 2]])
        .expect("well-formed batch");
    let up = eng.apply_update(&batch, &p.calibration, &tel).expect("valid batch");
    assert_eq!(
        (up.invalidated, up.retained, fnv1a(up.global)),
        (61, 1475, 0xef2f_54d3_c4ad_e282),
        "dynamic update"
    );
    let r = eng.refine_until(0.03, 256, &p.calibration, &tel);
    assert_eq!((r.tau, r.round, fnv1a(r.global)), (2048, 3, 0xb852_927a_8adf_6dab), "dynamic");
    assert_eq!((eng.work_edges(), eng.omega()), (115_353, 2187), "dynamic");

    // One stream per rank and an ideal plan: the two pools are the same
    // program, round for round, until τ reaches ω.
    for ranks in [1, 2, 3] {
        let p = prepare_for_pool(&g, &cfg, ranks, 1);
        let plan = FaultPlan::ideal(5);
        let mut fixed = SamplerPool::new(n, cfg, p.omega, ranks, 1, || ());
        let mut maintained = DynamicEngine::new(
            g.clone(),
            cfg,
            p.omega,
            p.vertex_diameter,
            ranks,
            1,
            2,
            plan.clone(),
        );
        let mut rounds = 0;
        loop {
            let salted = plan.reseeded(fixed.status().round);
            let s = fixed.round(&g, salted, 2, &p.calibration, &tel);
            let d = maintained.refine(&p.calibration, &tel);
            if s.tau >= p.omega {
                break;
            }
            assert_eq!(
                (s.global, s.tau, s.achieved.to_bits()),
                (d.global, d.tau, d.achieved.to_bits()),
                "{ranks} ranks, round {rounds}"
            );
            rounds += 1;
        }
        assert!(rounds >= 3, "{ranks} ranks: ω reached after {rounds} rounds");
    }
}
