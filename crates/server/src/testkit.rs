//! Deterministic service fixtures for the test harness.
//!
//! Everything here is seed-addressed: the same seed produces the same
//! graph, the same tenant provisioning, and (with background refinement
//! off and the deterministic telemetry clock) a bit-identical cache
//! history — the property the conformance and chaos suites assert.

use crate::server::{Server, ServerConfig};
use crate::tenant::TenantConfig;
use kadabra_graph::components::largest_component;
use kadabra_graph::generators::{gnm, GnmConfig};
use kadabra_graph::Graph;
use kadabra_mpisim::FaultPlan;

/// Name every fixture tenant is registered under.
pub const TENANT: &str = "gnm";

/// The fixture corpus: the largest component of a seed-addressed G(n, m)
/// graph — connected, irregular, small enough for a Brandes oracle.
pub fn corpus_graph(seed: u64) -> Graph {
    let g = gnm(GnmConfig { n: 60, m: 150, seed });
    let (lcc, _) = largest_component(&g);
    lcc
}

/// Fixture tenant provisioning at `seed`: 3 pool ranks, a schedule down to
/// ε = 0.08, fault-free delivery. Shared by the conformance suite, the
/// chaos suite (which swaps in a crashing plan), and the shared-graph and
/// `add_tenant` byte tests.
pub fn tenant_config(seed: u64) -> TenantConfig {
    TenantConfig {
        pool_ranks: 3,
        schedule: vec![0.5, 0.3, 0.15, 0.08],
        // Small epochs: the schedule freezes stage by stage over several
        // rounds instead of collapsing into the first publication.
        n0_base: 150.0,
        warmup_rounds: 1,
        ..TenantConfig::new(seed)
    }
}

/// Boots a deterministic server (no background refinement, logical-clock
/// telemetry) with [`TENANT`] loaded from [`corpus_graph`] at `seed`.
pub fn boot(seed: u64) -> Server {
    boot_with_plan(seed, FaultPlan::ideal(seed))
}

/// [`boot`] with an explicit fault plan for the tenant's pool — the chaos
/// suite injects rank crashes here.
pub fn boot_with_plan(seed: u64, plan: FaultPlan) -> Server {
    let server = Server::new(ServerConfig { deterministic: true, background_refine: false });
    let g = corpus_graph(seed);
    let cfg = TenantConfig { plan, ..tenant_config(seed) };
    server.add_tenant(TENANT, &g, &cfg);
    server
}

/// [`boot`], but the tenant is provisioned dynamically: it accepts
/// streaming edge updates through `update` while keeping the same corpus,
/// schedule, and determinism contract.
pub fn boot_dynamic(seed: u64) -> Server {
    boot_dynamic_with_plan(seed, FaultPlan::ideal(seed))
}

/// [`boot_dynamic`] with an explicit fault plan — the dynamic chaos suite
/// injects a rank crash that fires mid-update-batch here.
pub fn boot_dynamic_with_plan(seed: u64, plan: FaultPlan) -> Server {
    let server = Server::new(ServerConfig { deterministic: true, background_refine: false });
    let g = corpus_graph(seed);
    let cfg = TenantConfig { dynamic: true, plan, ..tenant_config(seed) };
    server.add_tenant(TENANT, &g, &cfg);
    server
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;

    #[test]
    fn fixture_graph_is_connected_and_nontrivial() {
        let g = corpus_graph(8);
        assert!(g.num_nodes() >= 20, "lcc too small: {}", g.num_nodes());
    }

    #[test]
    fn boot_is_queryable_after_warmup() {
        let s = boot(8);
        let t = s.tenant(TENANT).expect("fixture tenant");
        assert!(t.achieved_eps() < 1.0, "warmup must publish");
    }
}
