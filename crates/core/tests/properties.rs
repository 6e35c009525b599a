//! Property-based tests of KADABRA's statistical machinery.

use kadabra_core::bounds::{f_bound, g_bound, omega, stopping_condition};
use kadabra_core::{Calibration, KadabraConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ω is monotone: shrinking ε or δ, or growing the diameter, never
    /// shrinks the sample cap.
    #[test]
    fn omega_monotonicity(
        eps in 0.001f64..0.5,
        delta in 0.01f64..0.5,
        vd in 4u32..10_000,
    ) {
        let base = omega(0.5, eps, delta, vd);
        prop_assert!(omega(0.5, eps / 2.0, delta, vd) >= base);
        prop_assert!(omega(0.5, eps, delta / 2.0, vd) >= base);
        prop_assert!(omega(0.5, eps, delta, vd * 2) >= base);
        prop_assert!(base > 0);
    }

    /// f and g are non-negative, finite, and shrink as τ grows toward ω.
    #[test]
    fn bounds_behave(
        b_tilde in 0.0f64..1.0,
        delta in 1e-9f64..0.5,
        omega_v in 100u64..1_000_000,
        tau_frac in 0.01f64..1.0,
    ) {
        let tau = ((omega_v as f64 * tau_frac) as u64).max(1);
        let f = f_bound(b_tilde, delta, omega_v, tau);
        let g = g_bound(b_tilde, delta, omega_v, tau);
        prop_assert!(f.is_finite() && f >= 0.0);
        prop_assert!(g.is_finite() && g > 0.0);
        prop_assert!(g >= f, "g={g} must dominate f={f}");
        // Doubling τ (capped at ω) can only tighten both bounds.
        let tau2 = (tau * 2).min(omega_v);
        if tau2 > tau {
            prop_assert!(f_bound(b_tilde, delta, omega_v, tau2) <= f + 1e-12);
            prop_assert!(g_bound(b_tilde, delta, omega_v, tau2) <= g + 1e-12);
        }
    }

    /// The stopping condition is monotone in ε: if sampling may stop at ε it
    /// may also stop at any looser ε' > ε.
    #[test]
    fn stopping_monotone_in_eps(
        counts in proptest::collection::vec(0u64..5_000, 2..40),
        tau_extra in 1u64..10_000,
        eps in 0.001f64..0.3,
    ) {
        let tau = counts.iter().max().copied().unwrap_or(0) + tau_extra;
        let n = counts.len();
        let dl = vec![0.01 / n as f64; n];
        let du = vec![0.01 / n as f64; n];
        let omega_v = tau * 20;
        if stopping_condition(&counts, tau, eps, omega_v, &dl, &du) {
            prop_assert!(stopping_condition(&counts, tau, eps * 1.5, omega_v, &dl, &du));
            prop_assert!(stopping_condition(&counts, tau, (eps * 3.0).min(0.99), omega_v, &dl, &du));
        }
    }

    /// τ ≥ ω always stops, regardless of the counts.
    #[test]
    fn stopping_at_cap(
        counts in proptest::collection::vec(0u64..100, 1..30),
        omega_v in 1u64..1000,
    ) {
        let n = counts.len();
        let dl = vec![1e-6; n];
        let du = vec![1e-6; n];
        prop_assert!(stopping_condition(&counts, omega_v, 1e-9, omega_v, &dl, &du));
    }

    /// Calibration never exceeds its half of the failure budget (δ/2) and
    /// keeps every vertex strictly positive, for arbitrary count
    /// distributions and caps ω.
    #[test]
    fn calibration_budget_and_positivity(
        counts in proptest::collection::vec(0u64..10_000, 1..200),
        tau_extra in 1u64..5_000,
        omega_v in 1u64..100_000,
        delta in 0.01f64..0.5,
        floor in 0.05f64..0.9,
    ) {
        let tau = counts.iter().max().copied().unwrap_or(0) + tau_extra;
        let cfg = KadabraConfig {
            epsilon: 0.05,
            delta,
            calibration_floor: floor,
            ..Default::default()
        };
        let cal = Calibration::from_counts(&counts, tau, omega_v, &cfg);
        prop_assert!(cal.total_budget() <= delta / 2.0 * 1.0001, "budget {}", cal.total_budget());
        for v in 0..counts.len() {
            prop_assert!(cal.delta_l[v] > 0.0 && cal.delta_l[v] < 0.5);
            prop_assert!(cal.delta_u[v] > 0.0 && cal.delta_u[v] < 0.5);
        }
        // Monotone in the estimates: more counts => at least as much budget.
        let mut idx: Vec<usize> = (0..counts.len()).collect();
        idx.sort_by_key(|&i| counts[i]);
        for w in idx.windows(2) {
            prop_assert!(cal.delta_l[w[0]] <= cal.delta_l[w[1]] + 1e-15);
            prop_assert!(cal.delta_u[w[0]] <= cal.delta_u[w[1]] + 1e-15);
        }
    }

    /// n0 is monotone non-increasing in the thread count and never zero.
    #[test]
    fn n0_rule(threads_a in 1usize..512, threads_b in 1usize..512) {
        let cfg = KadabraConfig::default();
        let (lo, hi) = if threads_a <= threads_b { (threads_a, threads_b) } else { (threads_b, threads_a) };
        prop_assert!(cfg.n0(lo) >= cfg.n0(hi));
        prop_assert!(cfg.n0(hi) >= 1);
    }
}
