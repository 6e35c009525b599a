//! KADABRA's statistical machinery: the static sample cap ω and the
//! per-vertex deviation bounds `f` and `g` of the adaptive stopping
//! condition.
//!
//! The stopping rule (Section III-A of the paper): sampling may stop at τ
//! samples if for **every** vertex `v`
//!
//! ```text
//! f(b̃(v), δ_L(v), ω, τ) < ε   and   g(b̃(v), δ_U(v), ω, τ) < ε
//! ```
//!
//! where `f`/`g` bound the downward/upward deviation of the estimate `b̃(v)`
//! from the true betweenness (KADABRA Theorem 5, a martingale/Bernstein-type
//! bound parameterized by the a-priori cap ω):
//!
//! ```text
//! f = ln(1/δ_L)/τ · ( −u + sqrt(u² + 2 b̃ ω / ln(1/δ_L)) ),  u = ω/τ − 1/3
//! g = ln(1/δ_U)/τ · (  w + sqrt(w² + 2 b̃ ω / ln(1/δ_U)) ),  w = ω/τ + 1/3
//! ```
//!
//! The cap itself comes from the VC-dimension argument of the RK algorithm:
//! `ω = (c/ε²)(⌊log₂(VD − 2)⌋ + 1 + ln(2/δ))` with `c = 0.5` and VD the
//! vertex diameter (number of vertices of the longest shortest path). When
//! τ reaches ω the algorithm may stop unconditionally with the same
//! guarantee.

use crate::calibration::Calibration;
use kadabra_graph::NodeId;
use std::sync::Arc;

/// Static maximum number of samples ω for error `eps`, failure probability
/// `delta`, and vertex-diameter upper bound `vertex_diameter`.
pub fn omega(c: f64, eps: f64, delta: f64, vertex_diameter: u32) -> u64 {
    assert!(eps > 0.0 && eps < 1.0);
    assert!(delta > 0.0 && delta < 1.0);
    assert!(c > 0.0);
    // ⌊log₂(VD−2)⌋ degenerates for tiny diameters; clamp the argument to 2
    // (log term 1) exactly like practical KADABRA implementations.
    let vd = (vertex_diameter.max(4) - 2) as f64;
    let bound = (c / (eps * eps)) * (vd.log2().floor() + 1.0 + (2.0 / delta).ln());
    bound.ceil() as u64
}

/// Downward-deviation bound `f`: with probability ≥ 1 − δ_L the true
/// betweenness exceeds `b̃ − f`.
#[inline]
pub fn f_bound(b_tilde: f64, delta_l: f64, omega: u64, tau: u64) -> f64 {
    debug_assert!(tau > 0);
    debug_assert!((0.0..1.0).contains(&delta_l) && delta_l > 0.0);
    let log_term = (1.0 / delta_l).ln();
    let tau_f = tau as f64;
    let u = omega as f64 / tau_f - 1.0 / 3.0;
    log_term / tau_f * (-u + (u * u + 2.0 * b_tilde * omega as f64 / log_term).sqrt())
}

/// Upward-deviation bound `g`: with probability ≥ 1 − δ_U the true
/// betweenness is below `b̃ + g`.
#[inline]
pub fn g_bound(b_tilde: f64, delta_u: f64, omega: u64, tau: u64) -> f64 {
    debug_assert!(tau > 0);
    debug_assert!((0.0..1.0).contains(&delta_u) && delta_u > 0.0);
    let log_term = (1.0 / delta_u).ln();
    let tau_f = tau as f64;
    let w = omega as f64 / tau_f + 1.0 / 3.0;
    log_term / tau_f * (w + (w * w + 2.0 * b_tilde * omega as f64 / log_term).sqrt())
}

/// Evaluates the full stopping condition over aggregated counts: `true` iff
/// every vertex satisfies both bounds at error `eps` (or τ ≥ ω).
///
/// This is the `CHECKFORSTOP` of Algorithms 1 and 2, evaluated over all n
/// vertices; it runs on a consistent aggregated state only (Section III-B:
/// f and g are not monotone in τ and c̃, so checking racy counts would be
/// unsound). The round loop and the sequential driver run [`StopRule`],
/// which decides the same in O(touched) and is held to this function by a
/// proptest.
pub fn stopping_condition(
    counts: &[u64],
    tau: u64,
    eps: f64,
    omega: u64,
    delta_l: &[f64],
    delta_u: &[f64],
) -> bool {
    debug_assert_eq!(counts.len(), delta_l.len());
    debug_assert_eq!(counts.len(), delta_u.len());
    if tau == 0 {
        return false;
    }
    if tau >= omega {
        return true;
    }
    let tau_f = tau as f64;
    counts.iter().enumerate().all(|(v, &c)| {
        let b = c as f64 / tau_f;
        f_bound(b, delta_l[v], omega, tau) < eps && g_bound(b, delta_u[v], omega, tau) < eps
    })
}

/// [`stopping_condition`] in O(touched): the drivers' `CHECKFORSTOP`
/// over a frame whose nonzero counts are all listed.
///
/// Below ω an untouched vertex (b̃ = 0) can fail only on g. At b̃ = 0,
/// `f = ln(1/δ_L)/τ · (−u + √(u²))` is exactly 0 (u > 0 below ω, and the
/// rounded square root of a rounded square returns |u| in binary floating
/// point), while g falls as δ_U grows and rises with b̃. So the one vertex
/// whose bound can bind among the untouched is the one with the smallest
/// δ_U, checked at b̃ = 0: if it is touched, its own check at b̃ > 0 is the
/// stricter one, and nothing is lost by checking it twice. The test is
/// then "every touched vertex passes, and g(0, min δ_U) < ε" — no per-vertex
/// state beyond the calibration, and no count of the untouched.
#[derive(Debug, Clone)]
pub struct StopRule {
    eps: f64,
    omega: u64,
    delta_l: Arc<[f64]>,
    delta_u: Arc<[f64]>,
    /// The smallest δ_U of any vertex (`None` on an empty graph).
    min_delta_u: Option<f64>,
}

impl StopRule {
    /// The rule at error `eps` and cap `omega` under `calibration`'s δ
    /// budgets: one O(n) pass for the smallest δ_U, once per solve.
    pub fn new(eps: f64, omega: u64, calibration: &Calibration) -> StopRule {
        let min_delta_u = calibration.delta_u.iter().copied().reduce(f64::min);
        StopRule {
            eps,
            omega,
            delta_l: calibration.delta_l.clone(),
            delta_u: calibration.delta_u.clone(),
            min_delta_u,
        }
    }

    /// Equals `stopping_condition(counts, tau, ..)` under the rule's
    /// parameters, provided every vertex with a nonzero count is in
    /// `touched` (in any order, each once).
    pub fn stops(&self, counts: &[u64], touched: &[NodeId], tau: u64) -> bool {
        if tau == 0 {
            return false;
        }
        if tau >= self.omega {
            return true;
        }
        let (eps, omega, tau_f) = (self.eps, self.omega, tau as f64);
        self.min_delta_u.is_none_or(|du| g_bound(0.0, du, omega, tau) < eps)
            && touched.iter().all(|&v| {
                let v = v as usize;
                let b = counts[v] as f64 / tau_f;
                f_bound(b, self.delta_l[v], omega, tau) < eps
                    && g_bound(b, self.delta_u[v], omega, tau) < eps
            })
    }
}

/// The accuracy a consistent `(counts, tau)` frame supports: the worst
/// per-vertex Bernstein bound under the calibrated δ budgets. 1.0 before any
/// sample lands.
///
/// f and g are evaluated only where the count is nonzero. The untouched
/// vertices (b̃ = 0) all take their worst bounds at their smallest budgets,
/// by [`StopRule`]'s argument: at b̃ = 0 both bounds are `ln(1/δ)/τ` times
/// a factor that does not depend on δ (f's is exactly 0 below 3ω), so they
/// fall as δ grows, and one f and one g at the smallest δ_L and δ_U among
/// the untouched stand for all of them. The result equals the dense
/// maximum over every vertex bit for bit (held by a proptest).
pub fn achieved_epsilon(counts: &[u64], tau: u64, omega: u64, calibration: &Calibration) -> f64 {
    if tau == 0 {
        return 1.0;
    }
    let tau_f = tau as f64;
    let mut worst = 0.0f64;
    let (mut min_dl, mut min_du) = (f64::INFINITY, f64::INFINITY);
    for (v, &c) in counts.iter().enumerate() {
        let (dl, du) = (calibration.delta_l[v], calibration.delta_u[v]);
        if c == 0 {
            min_dl = min_dl.min(dl);
            min_du = min_du.min(du);
        } else {
            let b = c as f64 / tau_f;
            worst = worst.max(f_bound(b, dl, omega, tau)).max(g_bound(b, du, omega, tau));
        }
    }
    if min_du.is_finite() {
        worst = worst.max(f_bound(0.0, min_dl, omega, tau)).max(g_bound(0.0, min_du, omega, tau));
    }
    worst.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KadabraConfig;
    use proptest::prelude::*;

    /// The dense loop [`achieved_epsilon`] replaced: both bounds at every
    /// vertex. Kept as its oracle.
    fn achieved_epsilon_dense(
        counts: &[u64],
        tau: u64,
        omega: u64,
        calibration: &Calibration,
    ) -> f64 {
        if tau == 0 {
            return 1.0;
        }
        let tau_f = tau as f64;
        let mut worst = 0.0f64;
        for (v, &c) in counts.iter().enumerate() {
            let b = c as f64 / tau_f;
            worst = worst.max(f_bound(b, calibration.delta_l[v], omega, tau)).max(g_bound(
                b,
                calibration.delta_u[v],
                omega,
                tau,
            ));
        }
        worst.min(1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// [`achieved_epsilon`] equals the dense loop bit for bit, on
        /// budgets from [`Calibration::from_counts`] over random
        /// calibration and adaptive counts (each with its own share of
        /// zeros), ω and δ — or, with `use_raw`, on budgets drawn freely,
        /// where a small δ_L can make f bind. τ runs from 0 to 4ω, past 3ω
        /// where f at b̃ = 0 stops being 0. `touch_hubs` touches only the
        /// vertices calibration saw, a few times each, and `touch_none` no
        /// vertex, so the untouched vertices' budgets decide the result.
        #[test]
        fn achieved_epsilon_matches_the_dense_loop(
            calib in proptest::collection::vec((0u64..3, 0u64..400), 1..60),
            adaptive in proptest::collection::vec((0u64..3, 0u64..3_000), 60),
            tau0 in 1u64..2_000,
            omega in 2u64..100_000,
            delta in 0.001f64..0.5,
            calibration_floor in 0.001f64..0.99,
            eps in 0.001f64..0.5,
            tau_frac in 0.0f64..4.0,
            touch_hubs in any::<bool>(),
            raw in proptest::collection::vec((0.3f64..12.0, 0.3f64..12.0), 60),
            raw_u_scale in 0.0f64..1.0,
            use_raw in any::<bool>(),
            touch_none in any::<bool>(),
        ) {
            let n = calib.len();
            let calib_counts: Vec<u64> =
                calib.iter().map(|&(z, c)| if z == 0 { 0 } else { c }).collect();
            let cfg = KadabraConfig { epsilon: eps, delta, calibration_floor, ..Default::default() };
            let mut cal = Calibration::from_counts(&calib_counts, tau0, omega, &cfg);
            if use_raw {
                // Budgets 10^-0.3 down to 10^-12, δ_U's range shrunk by a
                // drawn factor so that δ_L is sometimes far the smaller.
                let exp = |e: f64| 10f64.powf(-e);
                cal.delta_l = raw[..n].iter().map(|&(l, _)| exp(l)).collect();
                cal.delta_u = raw[..n].iter().map(|&(_, u)| exp(0.3 + (u - 0.3) * raw_u_scale)).collect();
            }
            let tau = (omega as f64 * tau_frac) as u64;
            let counts: Vec<u64> = adaptive[..n]
                .iter()
                .zip(&calib_counts)
                .map(|(&(z, c), &k)| match (touch_hubs, z, k) {
                    (true, _, 0) | (false, 0, _) => 0,
                    (true, _, _) => 1 + c % 4,
                    (false, _, _) => c,
                })
                .map(|c| if touch_none { 0 } else { c.min(tau) })
                .collect();
            prop_assert_eq!(
                achieved_epsilon(&counts, tau, omega, &cal).to_bits(),
                achieved_epsilon_dense(&counts, tau, omega, &cal).to_bits()
            );
        }

        /// [`StopRule::stops`] equals [`stopping_condition`], on budgets
        /// from [`Calibration::from_counts`] over random calibration and
        /// adaptive counts (each with its own share of zeros), ω and δ.
        /// `tau_case` 0 is τ = 0 and 1 is τ ≥ ω; otherwise 0 < τ < ω.
        /// `eps_case` 1 and 2 put ε a hair above and below g(0, min δ_U),
        /// where the binding untouched vertex decides the stop, and
        /// `cover_lowest` touches every vertex of the smallest δ_U, so the
        /// binding vertex is a touched one. `touch_hubs` touches only the
        /// vertices calibration saw, a few times each: their larger
        /// budgets pass where the untouched vertices' floor fails.
        #[test]
        fn stop_rule_matches_stopping_condition(
            calib in proptest::collection::vec((0u64..3, 0u64..400), 1..60),
            adaptive in proptest::collection::vec((0u64..3, 0u64..3_000), 60),
            tau0 in 1u64..2_000,
            omega in 2u64..100_000,
            delta in 0.001f64..0.5,
            calibration_floor in 0.001f64..0.99,
            eps_drawn in 0.001f64..0.5,
            tau_case in 0u8..6,
            tau_frac in 0.0f64..1.0,
            eps_case in 0u8..3,
            cover_lowest in any::<bool>(),
            touch_hubs in any::<bool>(),
        ) {
            let n = calib.len();
            let calib_counts: Vec<u64> =
                calib.iter().map(|&(z, c)| if z == 0 { 0 } else { c }).collect();
            let cfg = KadabraConfig {
                epsilon: eps_drawn,
                delta,
                calibration_floor,
                ..Default::default()
            };
            let cal = Calibration::from_counts(&calib_counts, tau0, omega, &cfg);
            let tau = match tau_case {
                0 => 0,
                1 => omega + (tau_frac * 1_000.0) as u64,
                _ => 1 + ((omega - 2) as f64 * tau_frac) as u64,
            };
            let mut counts: Vec<u64> = adaptive[..n]
                .iter()
                .zip(&calib_counts)
                .map(|(&(z, c), &k)| match (touch_hubs, z, k) {
                    (true, _, 0) | (false, 0, _) => 0,
                    (true, _, _) => 1 + c % 4,
                    (false, _, _) => c,
                })
                .map(|c| c.min(tau))
                .collect();
            let min_delta_u = cal.delta_u.iter().copied().fold(f64::INFINITY, f64::min);
            if cover_lowest && tau > 0 {
                for v in (0..n).filter(|&v| cal.delta_u[v] == min_delta_u) {
                    counts[v] = counts[v].max(1);
                }
            }
            let g0 = g_bound(0.0, min_delta_u, omega, tau.clamp(1, omega));
            let eps = match eps_case {
                0 => eps_drawn,
                1 => g0 * (1.0 + 1e-9),
                _ => g0 * (1.0 - 1e-9),
            };
            // Any order will do; the drivers list in first-count order.
            let touched: Vec<NodeId> =
                (0..n as NodeId).rev().filter(|&v| counts[v as usize] > 0).collect();
            let want = stopping_condition(&counts, tau, eps, omega, &cal.delta_l, &cal.delta_u);
            prop_assert_eq!(StopRule::new(eps, omega, &cal).stops(&counts, &touched, tau), want);
        }
    }

    #[test]
    fn omega_matches_formula() {
        // eps=0.1, delta=0.1, VD=10: 50 * (floor(log2 8) + 1 + ln 20).
        let expect = (50.0f64 * (3.0 + 1.0 + 20.0f64.ln())).ceil() as u64;
        assert_eq!(omega(0.5, 0.1, 0.1, 10), expect);
    }

    #[test]
    fn omega_scales_inverse_quadratically_with_eps() {
        let w1 = omega(0.5, 0.01, 0.1, 100);
        let w2 = omega(0.5, 0.001, 0.1, 100);
        let ratio = w2 as f64 / w1 as f64;
        assert!((ratio - 100.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn omega_handles_tiny_diameters() {
        for vd in 0..6 {
            assert!(omega(0.5, 0.1, 0.1, vd) > 0);
        }
        assert_eq!(omega(0.5, 0.1, 0.1, 0), omega(0.5, 0.1, 0.1, 4));
    }

    #[test]
    fn omega_grows_with_diameter() {
        assert!(omega(0.5, 0.1, 0.1, 1000) > omega(0.5, 0.1, 0.1, 10));
    }

    #[test]
    fn f_is_zero_for_zero_estimate() {
        assert_eq!(f_bound(0.0, 0.1, 1000, 100), 0.0);
    }

    #[test]
    fn g_is_positive_for_zero_estimate() {
        assert!(g_bound(0.0, 0.1, 1000, 100) > 0.0);
    }

    #[test]
    fn bounds_shrink_with_tau() {
        let omega = 10_000;
        let mut prev_f = f64::INFINITY;
        let mut prev_g = f64::INFINITY;
        for tau in [100, 1_000, 5_000, 10_000] {
            let f = f_bound(0.2, 0.05, omega, tau);
            let g = g_bound(0.2, 0.05, omega, tau);
            assert!(f < prev_f, "f must shrink: {f} !< {prev_f}");
            assert!(g < prev_g, "g must shrink: {g} !< {prev_g}");
            prev_f = f;
            prev_g = g;
        }
    }

    #[test]
    fn bounds_grow_with_estimate() {
        let omega = 10_000;
        assert!(f_bound(0.5, 0.05, omega, 1000) > f_bound(0.1, 0.05, omega, 1000));
        assert!(g_bound(0.5, 0.05, omega, 1000) > g_bound(0.1, 0.05, omega, 1000));
    }

    #[test]
    fn bounds_grow_as_delta_shrinks() {
        let omega = 10_000;
        assert!(f_bound(0.2, 0.001, omega, 1000) > f_bound(0.2, 0.1, omega, 1000));
        assert!(g_bound(0.2, 0.001, omega, 1000) > g_bound(0.2, 0.1, omega, 1000));
    }

    #[test]
    fn g_dominates_f_symmetry() {
        // For equal parameters the upper bound g is strictly larger than f
        // (w > u and both terms positive).
        let omega = 5_000;
        for tau in [10, 100, 1000] {
            for b in [0.0, 0.1, 0.5] {
                assert!(g_bound(b, 0.05, omega, tau) >= f_bound(b, 0.05, omega, tau));
            }
        }
    }

    #[test]
    fn stopping_is_false_initially_and_true_at_omega() {
        let n = 10;
        let counts = vec![0u64; n];
        let dl = vec![0.001; n];
        let du = vec![0.001; n];
        assert!(!stopping_condition(&counts, 0, 0.01, 1000, &dl, &du));
        assert!(!stopping_condition(&counts, 1, 0.0001, 1_000_000, &dl, &du));
        assert!(stopping_condition(&counts, 1000, 0.0001, 1000, &dl, &du));
    }

    #[test]
    fn stopping_becomes_true_for_loose_eps() {
        let n = 4;
        let counts = vec![10u64, 0, 3, 1];
        let dl = vec![0.01; n];
        let du = vec![0.01; n];
        let omega = 20_000;
        // Loose epsilon: satisfied well before omega.
        assert!(stopping_condition(&counts, 5_000, 0.9, omega, &dl, &du));
        // Tight epsilon: not satisfied at small tau.
        assert!(!stopping_condition(&counts, 10, 0.001, omega, &dl, &du));
    }

    #[test]
    fn stopping_requires_all_vertices() {
        let omega = 50_000;
        let tau = 20_000u64;
        let dl = vec![0.01; 2];
        let du = vec![0.01; 2];
        // Vertex 1 has a huge estimate; with a mid-range eps vertex 0 passes
        // but vertex 1 does not.
        let counts = vec![0u64, tau];
        let eps = 0.02;
        assert!(f_bound(0.0, 0.01, omega, tau) < eps);
        assert!(g_bound(0.0, 0.01, omega, tau) < eps);
        assert!(f_bound(1.0, 0.01, omega, tau) > eps);
        assert!(!stopping_condition(&counts, tau, eps, omega, &dl, &du));
    }
}
