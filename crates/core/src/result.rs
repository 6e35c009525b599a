//! Result and statistics types shared by all execution modes.

use std::time::Duration;

/// Wall-clock time spent in each of KADABRA's three phases (Section III-A);
/// Fig. 2b of the paper breaks total time down along exactly these lines
/// (plus the sub-phases of adaptive sampling tracked in [`SamplingStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: diameter computation (sequential).
    pub diameter: Duration,
    /// Phase 2: calibration (parallel sampling + sequential δ optimization).
    pub calibration: Duration,
    /// Phase 3: adaptive sampling until the stopping condition fires.
    pub adaptive_sampling: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.diameter + self.calibration + self.adaptive_sampling
    }
}

/// Statistics of the adaptive sampling phase — the quantities reported
/// per-instance in Table II of the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplingStats {
    /// Number of epochs (stopping-condition checks).
    pub epochs: u64,
    /// Total samples aggregated into the final estimate.
    pub samples: u64,
    /// Time spent waiting in the non-blocking barrier (Table II column "B").
    pub barrier_wait: Duration,
    /// Time spent in blocking reductions.
    pub reduce_time: Duration,
    /// Time spent waiting for epoch transitions.
    pub transition_wait: Duration,
    /// Time spent evaluating the stopping condition.
    pub check_time: Duration,
    /// Total bytes moved through communicators during adaptive sampling.
    pub comm_bytes: u64,
}

impl SamplingStats {
    /// Communication volume per epoch in MiB (Table II column "Com.").
    pub fn comm_mib_per_epoch(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.comm_bytes as f64 / (1024.0 * 1024.0) / self.epochs as f64
        }
    }
}

/// Outcome of a betweenness approximation run.
#[derive(Debug, Clone)]
pub struct BetweennessResult {
    /// Normalized approximate betweenness per vertex (`b̃(v) = c̃(v)/τ`).
    pub scores: Vec<f64>,
    /// Samples in the final estimate (τ).
    pub samples: u64,
    /// The static sample cap ω.
    pub omega: u64,
    /// Vertex-diameter upper bound used for ω.
    pub vertex_diameter: u32,
    /// Per-phase wall-clock times.
    pub timings: PhaseTimings,
    /// Adaptive-sampling statistics.
    pub stats: SamplingStats,
}

impl BetweennessResult {
    /// The `k` vertices with the highest approximate betweenness, sorted by
    /// descending score (ties by ascending vertex id).
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        let mut idx: Vec<u32> = (0..kadabra_graph::to_u32(self.scores.len())).collect();
        idx.sort_by(|&a, &b| {
            self.scores[b as usize].total_cmp(&self.scores[a as usize]).then(a.cmp(&b))
        });
        idx.truncate(k);
        idx.into_iter().map(|v| (v, self.scores[v as usize])).collect()
    }

    /// Number of vertices whose score exceeds `threshold` — the paper's
    /// introduction motivates small ε with exactly this count (38 of 41M
    /// twitter vertices exceed 0.01).
    pub fn count_above(&self, threshold: f64) -> usize {
        self.scores.iter().filter(|&&s| s > threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(scores: Vec<f64>) -> BetweennessResult {
        BetweennessResult {
            scores,
            samples: 100,
            omega: 1000,
            vertex_diameter: 5,
            timings: PhaseTimings::default(),
            stats: SamplingStats::default(),
        }
    }

    #[test]
    fn top_k_sorts_descending_with_stable_ties() {
        let r = result_with(vec![0.1, 0.5, 0.5, 0.0, 0.3]);
        assert_eq!(r.top_k(3), vec![(1, 0.5), (2, 0.5), (4, 0.3)]);
        assert_eq!(r.top_k(0), vec![]);
        assert_eq!(r.top_k(10).len(), 5);
    }

    #[test]
    fn count_above_threshold() {
        let r = result_with(vec![0.1, 0.5, 0.01, 0.0]);
        assert_eq!(r.count_above(0.05), 2);
        assert_eq!(r.count_above(0.5), 0);
    }

    #[test]
    fn comm_volume_per_epoch() {
        let mut s = SamplingStats::default();
        assert_eq!(s.comm_mib_per_epoch(), 0.0);
        s.epochs = 4;
        s.comm_bytes = 8 * 1024 * 1024;
        assert!((s.comm_mib_per_epoch() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phase_total() {
        let t = PhaseTimings {
            diameter: Duration::from_millis(5),
            calibration: Duration::from_millis(10),
            adaptive_sampling: Duration::from_millis(85),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
    }
}
