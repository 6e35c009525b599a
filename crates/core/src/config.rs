//! Algorithm configuration.

/// Parameters of a KADABRA run. The defaults mirror the paper's evaluation
/// (Section V: δ = 0.1 as in the original KADABRA paper) except for ε, which
/// defaults to 0.01 because the experiment graphs in this reproduction are
/// smaller than the paper's (DESIGN.md §3 — harnesses scale ε per
/// experiment; `KADABRA_EPS` overrides it globally).
#[derive(Debug, Clone, Copy)]
pub struct KadabraConfig {
    /// Absolute approximation error ε: with probability ≥ 1 − δ, every
    /// returned score is within ±ε of the true betweenness.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Master RNG seed; every thread/rank derives a deterministic stream.
    pub seed: u64,
    /// Universal constant `c` of the ω bound (KADABRA uses 0.5).
    pub c: f64,
    /// Base of the epoch-length rule (Section IV-D): thread 0 takes
    /// `max(1, n0_base / (P·T)^n0_exponent)` samples between stopping-
    /// condition checks.
    pub n0_base: f64,
    /// Exponent of the epoch-length rule (Section IV-D; tuned to 1.33 in
    /// Ref. \[24\]). The paper prints the rule as `1000(PT)^{1.33}`, but its
    /// own Section IV-D says epochs must get *shorter* as P grows, so the
    /// exponent is applied as a decay (see DESIGN.md §5).
    pub n0_exponent: f64,
    /// Number of non-adaptive calibration samples (phase 2); `None` derives
    /// `clamp(ω/25, 200, 100_000)`.
    pub calibration_samples: Option<u64>,
    /// BFS budget for the iFUB diameter phase; 0 = run to certainty. iFUB
    /// can degenerate to Θ(|V|) BFS runs on low-diameter graphs, and KADABRA
    /// only needs an upper bound, so the default budget is small. When
    /// the budget is exhausted the (valid) upper bound `2·ecc` is used,
    /// which only affects running time, not correctness.
    pub diameter_bfs_budget: u32,
    /// Fraction of the failure budget spread uniformly over all vertices
    /// during calibration (keeps δ_L(v), δ_U(v) > 0 everywhere).
    pub calibration_floor: f64,
    /// Carries nothing and is read by nothing; frozen for `benchmark/` (see
    /// [`KernelOptions`]).
    #[doc(hidden)]
    pub kernel: KernelOptions,
}

/// What is left of the kernel-selection options of the deleted batched
/// BiBFS (DESIGN.md §16): no field, no behaviour. `benchmark/`, which this
/// workspace may not edit, still compiles against this name,
/// [`KernelOptions::scalar`], [`KadabraConfig::kernel`],
/// `ThreadSampler::with_kernel` and `ThreadSampler::kernel_physical_edges`;
/// nothing in the workspace calls them. A later `benchmark`-archetype PR
/// drops the harness's duplicate `graph.kernel_scalar_*` probe, re-fits its
/// `memory_share` weights (fitted to the batched kernel's working set) and
/// removes these five names with it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelOptions;

impl KernelOptions {
    /// The only kernel there is. Frozen for `benchmark/`; see the type.
    #[doc(hidden)]
    pub fn scalar() -> Self {
        KernelOptions
    }
}

impl Default for KadabraConfig {
    fn default() -> Self {
        KadabraConfig {
            epsilon: 0.01,
            delta: 0.1,
            seed: 42,
            c: 0.5,
            n0_base: 1000.0,
            n0_exponent: 1.33,
            calibration_samples: None,
            diameter_bfs_budget: 16,
            calibration_floor: 0.25,
            kernel: KernelOptions,
        }
    }
}

impl KadabraConfig {
    /// Convenience constructor for the two knobs everyone sets.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        KadabraConfig { epsilon, delta, ..Default::default() }
    }

    /// Validates parameter ranges; called by every entry point.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must lie in (0, 1), got {}",
            self.epsilon
        );
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must lie in (0, 1), got {}",
            self.delta
        );
        assert!(self.c > 0.0, "c must be positive");
        assert!(self.n0_base >= 1.0, "n0_base must be at least 1");
        assert!(
            (0.0..1.0).contains(&self.calibration_floor),
            "calibration_floor must lie in [0, 1)"
        );
    }

    /// Samples thread 0 takes between stopping-condition checks for a run
    /// with `total_threads = P·T` sampling threads (Section IV-D).
    pub fn n0(&self, total_threads: usize) -> u64 {
        let n0 = self.n0_base / (total_threads.max(1) as f64).powf(self.n0_exponent);
        (n0.round() as u64).max(1)
    }
}

/// Shape of the simulated cluster for [`crate::kadabra_epoch_mpi`]: how many
/// MPI ranks exist, how they group into compute nodes, and how many sampling
/// threads run per rank. In the paper's setup (Section IV-E) each compute
/// node runs one rank per NUMA socket with 12 threads each.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Total MPI ranks (P).
    pub ranks: usize,
    /// Ranks hosted per compute node (2 in the paper: one per socket).
    pub ranks_per_node: usize,
    /// Sampling threads per rank (T).
    pub threads_per_rank: usize,
}

impl ClusterShape {
    /// A flat, single-threaded shape (Algorithm 1's regime).
    pub fn flat(ranks: usize) -> Self {
        ClusterShape { ranks, ranks_per_node: 1, threads_per_rank: 1 }
    }

    /// Total sampling threads `P·T`.
    pub fn total_threads(&self) -> usize {
        self.ranks * self.threads_per_rank
    }

    /// Number of compute nodes (rounding up for a ragged last node).
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// Validates the shape.
    pub fn validate(&self) {
        assert!(self.ranks >= 1, "need at least one rank");
        assert!(self.ranks_per_node >= 1, "need at least one rank per node");
        assert!(self.threads_per_rank >= 1, "need at least one thread per rank");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        KadabraConfig::default().validate();
    }

    #[test]
    fn n0_decays_with_thread_count() {
        let cfg = KadabraConfig::default();
        assert_eq!(cfg.n0(1), 1000);
        let n0_24 = cfg.n0(24);
        assert!(n0_24 < 1000 && n0_24 > 1, "n0(24) = {n0_24}");
        // Very large thread counts floor at 1.
        assert_eq!(cfg.n0(100_000), 1);
        // Monotone non-increasing.
        let mut prev = u64::MAX;
        for t in [1, 2, 4, 8, 16, 32, 64, 128] {
            let v = cfg.n0(t);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        KadabraConfig { epsilon: 0.0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        KadabraConfig { delta: 1.5, ..Default::default() }.validate();
    }

    #[test]
    fn cluster_shape_arithmetic() {
        let shape = ClusterShape { ranks: 8, ranks_per_node: 2, threads_per_rank: 12 };
        shape.validate();
        assert_eq!(shape.total_threads(), 96);
        assert_eq!(shape.nodes(), 4);
        assert_eq!(ClusterShape::flat(3).total_threads(), 3);
        assert_eq!(ClusterShape { ranks: 5, ranks_per_node: 2, threads_per_rank: 1 }.nodes(), 3);
    }
}
