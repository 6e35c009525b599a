//! Phase 2 of KADABRA: calibration of the per-vertex failure probabilities
//! δ_L(v), δ_U(v).
//!
//! The paper (footnote 2) notes that the choice of δ_L/δ_U affects only the
//! running time, never correctness — any positive assignment with
//! `Σ_v (δ_L(v) + δ_U(v)) ≤ δ` is sound. KADABRA therefore takes a small
//! number of *non-adaptive* calibration samples first and shapes the budget
//! so that all vertices are expected to satisfy their bounds at roughly the
//! same τ.
//!
//! The shape follows from the dominant term of `f`: requiring
//! `f(b̃, δ_L, ω, τ*) ≈ sqrt(2 b̃ ω ln(1/δ_L))/τ* ≤ ε` at a common stopping
//! time τ* yields `ln(1/δ_L(v)) ∝ 1/b̃(v)`, i.e. `δ_L(v) = exp(−C/b̃(v))`.
//! We binary-search the constant `C` (equivalently, the target τ*) so that
//! the total spent budget matches `(1 − floor)·δ`, then spread the remaining
//! `floor·δ` uniformly so that every vertex — including ones never touched
//! during calibration — retains a strictly positive budget.

use crate::config::KadabraConfig;
use std::sync::Arc;

/// Calibrated per-vertex failure probabilities.
///
/// The fit gives each vertex one budget for both deviations, so `delta_l`
/// and `delta_u` are two names for one allocation: a clone, and the second
/// name, cost no memory.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Lower-deviation budget per vertex.
    pub delta_l: Arc<[f64]>,
    /// Upper-deviation budget per vertex (the same values as `delta_l`).
    pub delta_u: Arc<[f64]>,
    /// Number of calibration samples the estimates came from.
    pub samples: u64,
}

impl Calibration {
    /// Computes δ_L/δ_U from aggregated calibration counts (`counts[v]` =
    /// paths through `v` among `tau` samples).
    ///
    /// Deterministic in its inputs: with the counts all ranks obtain from
    /// the same all-reduce, every rank computes identical budgets.
    pub fn from_counts(counts: &[u64], tau: u64, cfg: &KadabraConfig) -> Calibration {
        assert!(tau > 0, "calibration requires at least one sample");
        let n = counts.len();
        let floor_budget = cfg.delta * cfg.calibration_floor;
        let shaped_budget = cfg.delta - floor_budget;
        let per_vertex_floor = floor_budget / (2.0 * n as f64);

        let b = |c: u64| c as f64 / tau as f64;
        // Vertices with b̃ = 0 contribute nothing to the shaped budget (their
        // floor suffices — their g-bound only needs a modest τ), so the fit
        // sums over the touched ones alone, in index order: the +0.0 terms it
        // skips leave every partial sum bit-identical.
        let touched: Vec<f64> = counts.iter().filter(|&&c| c > 0).map(|&c| b(c)).collect();

        // Binary search C in exp(-C / b̃(v)): sum is monotone decreasing in C.
        let spent =
            |c_param: f64| -> f64 { touched.iter().map(|&bv| 2.0 * (-c_param / bv).exp()).sum() };
        let max_b = touched.iter().cloned().fold(0.0f64, f64::max);
        // The shaping exp(−C/b̃) and the rescale onto the shaped budget.
        let shape = (max_b > 0.0 && shaped_budget > 0.0).then(|| {
            // Bracket: C = 0 spends 2·#{b>0} ≥ shaped (for any non-trivial n);
            // C large spends ~0.
            let mut lo = 0.0f64;
            let mut hi = max_b * (2.0 * n as f64 / shaped_budget).ln().max(1.0) * 4.0;
            while spent(hi) > shaped_budget {
                hi *= 2.0;
            }
            if spent(lo) <= shaped_budget {
                // Degenerate: even C = 0 fits (very few touched vertices).
                hi = 0.0;
            }
            for _ in 0..100 {
                let mid = 0.5 * (lo + hi);
                if spent(mid) > shaped_budget {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let c_param = hi;
            // Exact rescale onto the shaped budget to absorb the remaining
            // binary-search slack.
            let total = spent(c_param);
            (c_param, if total > 0.0 { shaped_budget / total } else { 0.0 })
        });
        let delta: Arc<[f64]> = counts
            .iter()
            .map(|&c| match shape {
                Some((c_param, scale)) if c > 0 => {
                    per_vertex_floor + ((-c_param / b(c)).exp() * scale).min(0.4)
                }
                _ => per_vertex_floor,
            })
            .collect();
        Calibration { delta_l: Arc::clone(&delta), delta_u: delta, samples: tau }
    }

    /// Total failure budget actually allocated (must be ≤ δ).
    pub fn total_budget(&self) -> f64 {
        self.delta_l.iter().sum::<f64>() + self.delta_u.iter().sum::<f64>()
    }
}

/// Derives the number of calibration samples for a given ω
/// (`cfg.calibration_samples` overrides).
pub fn calibration_sample_count(cfg: &KadabraConfig, omega: u64) -> u64 {
    cfg.calibration_samples.unwrap_or_else(|| (omega / 25).clamp(200, 100_000))
}

/// The fit over all n vertices that [`Calibration::from_counts`] replaced,
/// kept as its differential oracle.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn from_counts(counts: &[u64], tau: u64, cfg: &KadabraConfig) -> Calibration {
        assert!(tau > 0, "calibration requires at least one sample");
        let n = counts.len();
        let floor_budget = cfg.delta * cfg.calibration_floor;
        let shaped_budget = cfg.delta - floor_budget;
        let per_vertex_floor = floor_budget / (2.0 * n as f64);
        let b: Vec<f64> = counts.iter().map(|&c| c as f64 / tau as f64).collect();
        let spent = |c_param: f64| -> f64 {
            b.iter().map(|&bv| if bv > 0.0 { 2.0 * (-c_param / bv).exp() } else { 0.0 }).sum()
        };
        let mut delta_l = vec![per_vertex_floor; n];
        let mut delta_u = vec![per_vertex_floor; n];
        let max_b = b.iter().cloned().fold(0.0f64, f64::max);
        if max_b > 0.0 && shaped_budget > 0.0 {
            let mut lo = 0.0f64;
            let mut hi = max_b * (2.0 * n as f64 / shaped_budget).ln().max(1.0) * 4.0;
            while spent(hi) > shaped_budget {
                hi *= 2.0;
            }
            if spent(lo) <= shaped_budget {
                hi = 0.0;
            }
            for _ in 0..100 {
                let mid = 0.5 * (lo + hi);
                if spent(mid) > shaped_budget {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let c_param = hi;
            let total = spent(c_param);
            let scale = if total > 0.0 { shaped_budget / total } else { 0.0 };
            for v in 0..n {
                if b[v] > 0.0 {
                    let w = ((-c_param / b[v]).exp() * scale).min(0.4);
                    delta_l[v] += w;
                    delta_u[v] += w;
                }
            }
        }
        Calibration { delta_l: delta_l.into(), delta_u: delta_u.into(), samples: tau }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> KadabraConfig {
        KadabraConfig { epsilon: 0.05, delta: 0.1, ..Default::default() }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fit and [`reference::from_counts`] assign bit-identical
        /// budgets: count vectors from all-zero to dense, with a share of
        /// zeros drawn per case, over random τ, δ and floors.
        #[test]
        fn fit_matches_the_reference(
            raw in proptest::collection::vec((0u64..4, 0u64..5_000), 1..400),
            zero_share in 0u64..4,
            tau in 1u64..10_000,
            delta in 0.001f64..0.5,
            (floored, floor) in (any::<bool>(), 0.0f64..0.99),
        ) {
            let counts: Vec<u64> =
                raw.iter().map(|&(z, c)| if z < zero_share { 0 } else { c }).collect();
            let calibration_floor = if floored { floor } else { 0.0 };
            let cfg = KadabraConfig { delta, calibration_floor, ..cfg() };
            let (got, want) =
                (Calibration::from_counts(&counts, tau, &cfg), reference::from_counts(&counts, tau, &cfg));
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.delta_l), bits(&want.delta_l));
            prop_assert_eq!(bits(&got.delta_u), bits(&want.delta_u));
            prop_assert_eq!(got.samples, want.samples);
        }
    }

    #[test]
    fn budget_is_respected() {
        let counts = vec![50, 10, 0, 3, 120, 0, 7, 1];
        let cal = Calibration::from_counts(&counts, 200, &cfg());
        assert!(cal.total_budget() <= cfg().delta * 1.000001, "budget {}", cal.total_budget());
        // The shaped part should actually be spent, not wasted.
        assert!(cal.total_budget() > cfg().delta * 0.5);
    }

    #[test]
    fn all_budgets_positive() {
        let counts = vec![0, 0, 100, 0];
        let cal = Calibration::from_counts(&counts, 100, &cfg());
        for v in 0..4 {
            assert!(cal.delta_l[v] > 0.0);
            assert!(cal.delta_u[v] > 0.0);
        }
    }

    #[test]
    fn high_centrality_gets_larger_budget() {
        let counts = vec![150, 15, 0];
        let cal = Calibration::from_counts(&counts, 200, &cfg());
        assert!(cal.delta_l[0] > cal.delta_l[1]);
        assert!(cal.delta_l[1] > cal.delta_l[2]);
    }

    #[test]
    fn untouched_graph_gets_uniform_floor() {
        let counts = vec![0u64; 6];
        let cal = Calibration::from_counts(&counts, 50, &cfg());
        let first = cal.delta_l[0];
        for v in 0..6 {
            assert_eq!(cal.delta_l[v], first);
            assert_eq!(cal.delta_u[v], first);
        }
        // Uniform floor = floor_fraction * delta / (2n).
        let expect = cfg().delta * cfg().calibration_floor / 12.0;
        assert!((first - expect).abs() < 1e-15);
    }

    #[test]
    fn deterministic() {
        let counts = vec![5, 0, 9, 2, 2, 88];
        let a = Calibration::from_counts(&counts, 120, &cfg());
        let b = Calibration::from_counts(&counts, 120, &cfg());
        assert_eq!(a.delta_l, b.delta_l);
        assert_eq!(a.delta_u, b.delta_u);
    }

    #[test]
    fn budgets_capped_below_half() {
        // A single dominant vertex cannot eat a degenerate (≥ 0.5) share.
        let counts = vec![1000u64, 0, 0];
        let cal = Calibration::from_counts(&counts, 1000, &cfg());
        assert!(cal.delta_l[0] < 0.5);
    }

    #[test]
    fn sample_count_derivation() {
        let c = KadabraConfig::default();
        assert_eq!(calibration_sample_count(&c, 25 * 300), 300);
        assert_eq!(calibration_sample_count(&c, 100), 200); // clamped up
        assert_eq!(calibration_sample_count(&c, 25 * 1_000_000), 100_000); // clamped down
        let c2 = KadabraConfig { calibration_samples: Some(77), ..Default::default() };
        assert_eq!(calibration_sample_count(&c2, 10_000_000), 77);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_tau_rejected() {
        Calibration::from_counts(&[0], 0, &cfg());
    }
}
