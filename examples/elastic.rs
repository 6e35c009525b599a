//! Elastic scale-out, end to end: a run that grows its world mid-flight
//! (standby ranks admitted at a round boundary, ledgers rebalanced, the
//! (ε, δ) guarantee intact), and a resident tenant resizing its sampler pool under a fresh cache
//! generation — converge, grow, re-query, shed back.
//!
//! Run: `cargo run --release --example elastic`

use kadabra_mpi::baselines::brandes;
use kadabra_mpi::core::{kadabra_mpi_flat_observed, ChaosOptions, KadabraConfig};
use kadabra_mpi::graph::components::largest_component;
use kadabra_mpi::graph::generators::{gnm, GnmConfig};
use kadabra_mpi::mpisim::FaultPlan;
use kadabra_mpi::server::{Server, ServerConfig, TenantConfig};

fn main() {
    // ------------------------------------------------------------------
    // 1. Algorithm 1 under a plan: 2 founding ranks converge while 2
    //    standbys wait parked; the plan admits both at round 1.
    // ------------------------------------------------------------------
    let (g, _) = largest_component(&gnm(GnmConfig { n: 120, m: 360, seed: 7 }));
    let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 7, ..Default::default() };
    let opts = ChaosOptions::all(FaultPlan::ideal(7).with_join(1, 2));
    let r = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &opts);
    r.assert_invariants(); // epoch-gap + sample-conservation audits pass
    println!(
        "grown run: {} ranks joined mid-run, τ = {} over {} epochs",
        r.ranks_joined, r.result.samples, r.result.stats.epochs
    );

    // The guarantee survives the membership change: compare to exact
    // Brandes on this small instance.
    let exact = brandes(&g);
    let worst =
        r.result.scores.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("  max error vs exact Brandes: {worst:.4} (ε = {})", cfg.epsilon);

    // Bit-reproducible from (plan, seed): the grow replays.
    let again = kadabra_mpi_flat_observed(&g, &cfg, 2, 2, &opts);
    assert_eq!(r.result.scores, again.result.scores);
    println!("  replay is bit-identical across the grow");

    // ------------------------------------------------------------------
    // 2. The resident server: converge a tenant, grow its pool, re-query
    //    under the new cache generation, then shed back to provisioned
    //    size. τ is conserved across both resizes.
    // ------------------------------------------------------------------
    let server = Server::new(ServerConfig::default());
    let cfg = TenantConfig { schedule: vec![0.25, 0.1, 0.01], ..TenantConfig::new(7) };
    server.add_tenant("social", &g, &cfg);
    let client = server.client();

    let out = client.refine("social", 0.1, 64).expect("0.1 is on the schedule");
    println!(
        "tenant: converged to ε = {:.4} with {} sampler ranks, τ = {}",
        out.achieved, out.live, out.tau
    );

    let tenant = server.tenant("social").expect("tenant exists");
    let w = server.telemetry().writer(0, 0);
    let grown = tenant.resize(4, server.telemetry(), &w).expect("static pools resize");
    println!(
        "  grow: +{} ranks ({} live), cache generation {} — τ conserved at {}",
        grown.joined, grown.live, grown.generation, grown.tau
    );

    // Queries answer immediately from the re-published frontier, and the
    // wider pool refines on toward the schedule floor.
    let est = client.vertex("social", 0).expect("post-grow frontier published");
    println!("  vertex 0 after grow: {:.5} ∈ [{:.5}, {:.5}]", est.estimate, est.lower, est.upper);
    let out = client.refine("social", 0.01, 64).expect("0.01 is on the schedule");
    println!("  refined to ε = {:.4} at the wider size, τ = {}", out.achieved, out.tau);

    let shed = tenant.resize(grown.live - grown.joined, server.telemetry(), &w).expect("sheds");
    println!(
        "  shed: -{} ranks back to {} (their ledgers folded into a survivor), τ = {}",
        shed.shed, shed.live, shed.tau
    );
    let est = client.vertex("social", 0).expect("post-shed frontier published");
    println!("  vertex 0 after shed: {:.5} ∈ [{:.5}, {:.5}]", est.estimate, est.lower, est.upper);

    server.shutdown();
}
