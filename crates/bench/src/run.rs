//! Per-instance preparation shared by the experiment binaries.

use crate::instances::Instance;
use kadabra_cluster::{CostModel, ReduceStrategy, SimConfig};
use kadabra_core::{prepare, ClusterShape, KadabraConfig, Prepared};
use kadabra_graph::Graph;

/// Everything an experiment needs per instance: the graph (LCC), real
/// preparation (diameter, ω, calibration) and the measured cost model.
pub struct PreparedInstance {
    /// Instance name (matches [`crate::instances::Instance::name`]).
    pub name: &'static str,
    /// The paper instance this synthetic graph stands in for.
    pub proxies_for: &'static str,
    /// Largest connected component of the generated graph.
    pub graph: Graph,
    /// Algorithm configuration used for preparation.
    pub cfg: KadabraConfig,
    /// Preparation output: diameter bound, ω, calibration.
    pub prepared: Prepared,
    /// Measured per-operation cost model for the cluster simulator.
    pub cost: CostModel,
}

/// Builds, prepares and calibrates one instance. `probes` controls the
/// cost-model measurement effort.
pub fn prepare_instance(
    inst: &Instance,
    scale: f64,
    seed: u64,
    eps: f64,
    probes: usize,
) -> PreparedInstance {
    let graph = inst.build_lcc(scale, seed);
    let cfg = KadabraConfig { epsilon: eps, delta: 0.1, seed, ..Default::default() };
    let prepared = prepare(&graph, &cfg);
    let cost = CostModel::measure(&graph, &cfg, probes);
    PreparedInstance { name: inst.name, proxies_for: inst.proxies_for, graph, cfg, prepared, cost }
}

/// The paper's production configuration for `nodes` compute nodes: one rank
/// per NUMA socket (2 per node), 12 threads per rank, `Ibarrier` + blocking
/// `Reduce` (Sections IV-E/IV-F).
pub fn paper_shape(nodes: usize) -> SimConfig {
    SimConfig {
        shape: ClusterShape { ranks: 2 * nodes, ranks_per_node: 2, threads_per_rank: 12 },
        strategy: ReduceStrategy::IbarrierThenBlockingReduce,
        numa_penalty: false,
        steal: false,
    }
}

/// The shared-memory state-of-the-art baseline (Ref. \[24\]): one process on
/// one compute node spanning both sockets with 24 threads — which is exactly
/// why it pays the NUMA penalty the paper measured at 20-30%.
pub fn shared_baseline_shape() -> SimConfig {
    SimConfig {
        shape: ClusterShape { ranks: 1, ranks_per_node: 1, threads_per_rank: 24 },
        strategy: ReduceStrategy::IbarrierThenBlockingReduce,
        numa_penalty: true,
        steal: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::suite;

    #[test]
    fn prepare_instance_smoke() {
        let s = suite();
        let pi = prepare_instance(&s[0], 0.05, 42, 0.1, 20);
        assert!(pi.graph.num_nodes() > 10);
        assert!(pi.prepared.omega > 0);
        assert_eq!(pi.cost.sample_ns.len(), 20);
    }

    #[test]
    fn paper_shape_matches_hardware() {
        let sim = paper_shape(16);
        assert_eq!(sim.shape.ranks, 32);
        assert_eq!(sim.shape.total_threads(), 384);
        assert_eq!(sim.shape.nodes(), 16);
        assert!(!sim.numa_penalty);
        let base = shared_baseline_shape();
        assert_eq!(base.shape.total_threads(), 24);
        assert!(base.numa_penalty);
    }
}
