//! Phase 2 of KADABRA: calibration of the per-vertex failure probabilities
//! δ_L(v), δ_U(v).
//!
//! **The budget is δ/2.** ω's `ln(2/δ)` term spends δ/2 on the event that
//! the RK bound fails at τ = ω. A run fails only if that event happens or
//! some f/g bound fails before the stop, and the second has probability at
//! most `Σ_v (δ_L(v) + δ_U(v))`. So that sum may be at most δ/2 for a
//! 1 − δ guarantee. The paper (footnote 2) notes that how the sum is split
//! over the vertices affects only the running time, never correctness.
//!
//! **The rule: one common stopping time.** KADABRA takes τ₀ non-adaptive
//! calibration samples first and shapes the budget so that every vertex is
//! expected to satisfy its bounds at the same τ*. For a touched vertex with
//! estimate b̃ = c/τ₀, `f(b̃, δ_L, ω, τ) = ε` and `g(b̃, δ_U, ω, τ) = ε`
//! solved for λ = ln(1/δ) are
//!
//! ```text
//! λ_L(τ) = ε²τ² / (2(b̃ω − uετ)),  u = ω/τ − 1/3
//! λ_U(τ) = ε²τ² / (2(b̃ω + wετ)),  w = ω/τ + 1/3
//! ```
//!
//! If b̃ω ≤ uετ, f < ε at every δ_L, and the vertex needs no shaped δ_L.
//! τ* is bisected in [1, ω] so that `Σ (e^{−λ_L(τ*)} + e^{−λ_U(τ*)})` over
//! the touched vertices equals the shaped budget `(1 − floor)·δ/2`. The
//! terms are then rescaled onto that budget exactly and capped at 0.4, and
//! the remaining `floor·δ/2` is spread uniformly over all 2n slots, so that
//! every vertex, touched or not, keeps a strictly positive budget.
//!
//! **The fit runs over the count histogram.** b̃ takes at most τ₀ distinct
//! values, so each bisection step sums multiplicity × term over the
//! distinct counts in ascending order: a few hundred terms, not one per
//! touched vertex. The order is fixed, so every rank derives identical
//! budgets from the all-reduced counts.

use crate::config::KadabraConfig;
use std::sync::Arc;

/// Calibrated per-vertex failure probabilities.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Lower-deviation budget per vertex.
    pub delta_l: Arc<[f64]>,
    /// Upper-deviation budget per vertex.
    pub delta_u: Arc<[f64]>,
    /// Number of calibration samples the estimates came from.
    pub samples: u64,
}

impl Calibration {
    /// Computes δ_L/δ_U from aggregated calibration counts (`counts[v]` =
    /// paths through `v` among `tau` samples) for a run capped at `omega`
    /// samples (module doc).
    ///
    /// Deterministic in its inputs: with the counts all ranks obtain from
    /// the same all-reduce, every rank computes identical budgets.
    pub fn from_counts(counts: &[u64], tau: u64, omega: u64, cfg: &KadabraConfig) -> Calibration {
        assert!(tau > 0, "calibration requires at least one sample");
        let budgets = Budgets::new(counts.len(), cfg);
        let target = Target::new(cfg.epsilon, omega);
        let b = |c: u64| c as f64 / tau as f64;
        let hist = histogram(counts, tau);
        let spent = |t: f64| target.spent(&hist, t);
        let tau_star = common_stop(spent, target.omega, budgets.shaped);
        // The exact rescale onto the shaped budget absorbs the bisection's
        // last slack (and pins the sum when τ* sits at either end).
        let total = spent(tau_star);
        let scale = if total > 0.0 { budgets.shaped / total } else { 0.0 };
        let floor = budgets.per_slot_floor;
        let fill = |at: fn(Target, f64, f64) -> f64| -> Arc<[f64]> {
            counts
                .iter()
                .map(|&c| match c {
                    0 => floor,
                    _ => floor + (at(target, b(c), tau_star) * scale).min(0.4),
                })
                .collect()
        };
        Calibration { delta_l: fill(Target::delta_l), delta_u: fill(Target::delta_u), samples: tau }
    }

    /// Total failure budget actually allocated (at most δ/2).
    pub fn total_budget(&self) -> f64 {
        self.delta_l.iter().sum::<f64>() + self.delta_u.iter().sum::<f64>()
    }
}

/// How the vertex budget δ/2 splits into the uniform floor and the shaped
/// part.
struct Budgets {
    /// The shaped part, `(1 − floor)·δ/2`.
    shaped: f64,
    /// One slot's share of the floor, `floor·δ/2 / 2n`.
    per_slot_floor: f64,
}

impl Budgets {
    fn new(n: usize, cfg: &KadabraConfig) -> Budgets {
        let budget = cfg.delta / 2.0;
        let floor = budget * cfg.calibration_floor;
        Budgets { shaped: budget - floor, per_slot_floor: floor / (2.0 * n as f64) }
    }
}

/// The δ at which a vertex's f or g reaches exactly ε at a given τ.
#[derive(Clone, Copy)]
struct Target {
    eps: f64,
    omega: f64,
}

impl Target {
    fn new(eps: f64, omega: u64) -> Target {
        Target { eps, omega: omega.max(1) as f64 }
    }

    /// `e^{−λ_L(τ)}`, or 0 where f < ε at every δ_L (b̃ω ≤ uετ).
    fn delta_l(self, b: f64, tau: f64) -> f64 {
        let u = self.omega / tau - 1.0 / 3.0;
        let den = b * self.omega - u * self.eps * tau;
        if den <= 0.0 {
            return 0.0;
        }
        (-(self.eps * self.eps * tau * tau) / (2.0 * den)).exp()
    }

    /// `e^{−λ_U(τ)}`.
    fn delta_u(self, b: f64, tau: f64) -> f64 {
        let w = self.omega / tau + 1.0 / 3.0;
        (-(self.eps * self.eps * tau * tau) / (2.0 * (b * self.omega + w * self.eps * tau))).exp()
    }

    /// Both terms of every touched vertex at τ, summed over the histogram
    /// of [`histogram`].
    fn spent(self, hist: &[(f64, f64)], tau: f64) -> f64 {
        hist.iter().map(|&(b, m)| m * (self.delta_l(b, tau) + self.delta_u(b, tau))).sum()
    }
}

/// The touched vertices' estimates with their multiplicities, as
/// `(b̃, multiplicity)` in ascending count order.
fn histogram(counts: &[u64], tau: u64) -> Vec<(f64, f64)> {
    let mut touched: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    touched.sort_unstable();
    touched
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0] as f64 / tau as f64, run.len() as f64))
        .collect()
}

/// Bisects the common stopping time τ* in `[1, omega]` at which `spent`
/// (the shaped terms summed at τ, falling as τ grows) meets `budget`: the
/// earliest τ the budget affords. A budget that even τ = ω cannot meet
/// pins τ* to ω, where the stop fires regardless.
fn common_stop(spent: impl Fn(f64) -> f64, omega: f64, budget: f64) -> f64 {
    let (mut lo, mut hi) = (1.0f64, omega);
    if spent(hi) > budget {
        return hi;
    }
    if spent(lo) <= budget {
        return lo;
    }
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return hi;
        }
        if spent(mid) > budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

/// Derives the number of calibration samples for a given ω
/// (`cfg.calibration_samples` overrides).
pub fn calibration_sample_count(cfg: &KadabraConfig, omega: u64) -> u64 {
    cfg.calibration_samples.unwrap_or_else(|| (omega / 25).clamp(200, 100_000))
}

/// The fit summed once per touched vertex in index order, kept as the
/// differential oracle of the histogram fit; it shares only the two
/// inversions with it, which `inversions_round_trip` holds to f and g.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn from_counts(
        counts: &[u64],
        tau: u64,
        omega: u64,
        cfg: &KadabraConfig,
    ) -> Calibration {
        let n = counts.len();
        let budget = cfg.delta / 2.0;
        let floor = budget * cfg.calibration_floor / (2.0 * n as f64);
        let shaped = budget * (1.0 - cfg.calibration_floor);
        let target = Target::new(cfg.epsilon, omega);
        let b: Vec<f64> = counts.iter().map(|&c| c as f64 / tau as f64).collect();
        let spent = |t: f64| -> f64 {
            let mut sum = 0.0;
            for v in 0..n {
                if counts[v] > 0 {
                    sum += target.delta_l(b[v], t) + target.delta_u(b[v], t);
                }
            }
            sum
        };
        let omega_f = omega.max(1) as f64;
        let tau_star = if spent(omega_f) > shaped {
            omega_f
        } else if spent(1.0) <= shaped {
            1.0
        } else {
            let (mut lo, mut hi) = (1.0, omega_f);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if spent(mid) > shaped {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            hi
        };
        let total = spent(tau_star);
        let scale = if total > 0.0 { shaped / total } else { 0.0 };
        let mut delta_l = vec![floor; n];
        let mut delta_u = vec![floor; n];
        for v in 0..n {
            if counts[v] > 0 {
                delta_l[v] += (target.delta_l(b[v], tau_star) * scale).min(0.4);
                delta_u[v] += (target.delta_u(b[v], tau_star) * scale).min(0.4);
            }
        }
        Calibration { delta_l: delta_l.into(), delta_u: delta_u.into(), samples: tau }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{f_bound, g_bound, omega};
    use proptest::prelude::*;

    fn cfg() -> KadabraConfig {
        KadabraConfig { epsilon: 0.05, delta: 0.1, ..Default::default() }
    }

    /// ω of [`cfg`] at vertex diameter 10.
    fn omega_of(cfg: &KadabraConfig) -> u64 {
        omega(cfg.c, cfg.epsilon, cfg.delta, 10)
    }

    /// The fit's τ*, recomputed from the histogram.
    fn tau_star(counts: &[u64], tau: u64, omega: u64, cfg: &KadabraConfig) -> f64 {
        let target = Target::new(cfg.epsilon, omega);
        let hist = histogram(counts, tau);
        common_stop(
            |t| target.spent(&hist, t),
            target.omega,
            Budgets::new(counts.len(), cfg).shaped,
        )
    }

    /// A heavy-tailed count vector of the kind calibration sees: few hubs,
    /// many vertices touched a handful of times, a third untouched.
    fn power_law_counts(n: usize) -> Vec<u64> {
        (0..n).map(|i| if i % 3 == 2 { 0 } else { (40 / (i + 1)) as u64 + 1 }).collect()
    }

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The histogram fit and [`reference::from_counts`] assign the same
        /// budgets to 1e-12 relative: count vectors from all-zero to dense,
        /// with a share of zeros drawn per case, over random τ, ω, ε, δ
        /// and floors.
        #[test]
        fn fit_matches_the_per_vertex_fit(
            raw in proptest::collection::vec((0u64..4, 0u64..5_000), 1..400),
            zero_share in 0u64..4,
            tau in 1u64..10_000,
            omega in 1u64..200_000,
            epsilon in 0.001f64..0.5,
            delta in 0.001f64..0.5,
            calibration_floor in 0.001f64..0.99,
        ) {
            let counts: Vec<u64> =
                raw.iter().map(|&(z, c)| if z < zero_share { 0 } else { c }).collect();
            let cfg = KadabraConfig { epsilon, delta, calibration_floor, ..cfg() };
            let got = Calibration::from_counts(&counts, tau, omega, &cfg);
            let want = reference::from_counts(&counts, tau, omega, &cfg);
            for v in 0..counts.len() {
                prop_assert!(rel(got.delta_l[v], want.delta_l[v]) <= 1e-12, "δ_L[{}]", v);
                prop_assert!(rel(got.delta_u[v], want.delta_u[v]) <= 1e-12, "δ_U[{}]", v);
            }
            prop_assert!(got.total_budget() <= delta / 2.0 * 1.000001);
            prop_assert_eq!(got.samples, want.samples);
        }
    }

    /// The inversions are exact: f and g at `e^{−λ}` equal ε wherever
    /// `e^{−λ}` neither underflows nor rounds to 1, and where b̃ω ≤ uετ,
    /// f stays under ε at every δ_L.
    #[test]
    fn inversions_round_trip() {
        let (eps, omega) = (0.01, 30_000u64);
        let target = Target::new(eps, omega);
        let (mut hits, mut free) = (0, 0);
        for tau in (1..=40).map(|k| k * omega / 40) {
            let t = tau as f64;
            for b in [1e-4, 1e-3, 5e-3, 8e-3, 1e-2, 2e-2, 0.05, 0.1, 0.3, 0.7] {
                let u = omega as f64 / t - 1.0 / 3.0;
                if b * omega as f64 <= u * eps * t {
                    assert_eq!(target.delta_l(b, t), 0.0);
                    for d in [1e-300, 1e-100, 1e-12, 1e-3, 0.4] {
                        assert!(f_bound(b, d, omega, tau) < eps, "f at b̃ {b}, τ {tau}, δ {d}");
                    }
                    free += 1;
                } else {
                    let d = target.delta_l(b, t);
                    if d > 0.0 && d < 1.0 {
                        let f = f_bound(b, d, omega, tau);
                        assert!(rel(f, eps) <= 1e-9, "f {f} at b̃ {b}, τ {tau}");
                        hits += 1;
                    }
                }
                let d = target.delta_u(b, t);
                if d > 0.0 && d < 1.0 {
                    let g = g_bound(b, d, omega, tau);
                    assert!(rel(g, eps) <= 1e-9, "g {g} at b̃ {b}, τ {tau}");
                    hits += 1;
                }
            }
        }
        assert!(hits > 300 && free > 20, "grid too thin: {hits} inverted, {free} free");
    }

    /// The fit lands on a common stopping time: τ* lies inside (1, ω), and
    /// every touched vertex's shaped δ_U is its own `e^{−λ_U(τ*)}` with no
    /// rescale to speak of.
    #[test]
    fn every_touched_vertex_reaches_eps_at_tau_star() {
        let cfg = KadabraConfig { epsilon: 0.01, delta: 0.1, ..Default::default() };
        let (counts, tau0, omega) = (power_law_counts(3_000), 1_200, 30_000);
        let t = tau_star(&counts, tau0, omega, &cfg);
        assert!(t > 1_000.0 && t < 29_000.0, "τ* {t}");
        let cal = Calibration::from_counts(&counts, tau0, omega, &cfg);
        let floor = Budgets::new(counts.len(), &cfg).per_slot_floor;
        let target = Target::new(cfg.epsilon, omega);
        for (v, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let b = c as f64 / tau0 as f64;
            let r = rel(cal.delta_u[v] - floor, target.delta_u(b, t));
            assert!(r <= 1e-9, "δ_U[{v}] off by {r}");
        }
    }

    #[test]
    fn budget_is_respected() {
        let counts = vec![50, 10, 0, 3, 120, 0, 7, 1];
        let cfg = cfg();
        let cal = Calibration::from_counts(&counts, 200, omega_of(&cfg), &cfg);
        let budget = cfg.delta / 2.0;
        assert!(cal.total_budget() <= budget * 1.000001, "budget {}", cal.total_budget());
        // The shaped part should actually be spent, not wasted.
        assert!(cal.total_budget() > budget * 0.5);
    }

    #[test]
    fn all_budgets_positive() {
        let counts = vec![0, 0, 100, 0];
        let cal = Calibration::from_counts(&counts, 100, omega_of(&cfg()), &cfg());
        for v in 0..4 {
            assert!(cal.delta_l[v] > 0.0);
            assert!(cal.delta_u[v] > 0.0);
        }
    }

    /// δ_U grows strictly with b̃; δ_L never falls, and only a vertex whose
    /// f passes at every δ_L at τ* (b̃ω ≤ uετ*) is left at the floor.
    #[test]
    fn high_centrality_gets_larger_budget() {
        let cfg = cfg();
        let omega = omega_of(&cfg);
        let counts = vec![150, 15, 0];
        let cal = Calibration::from_counts(&counts, 200, omega, &cfg);
        let floor = Budgets::new(3, &cfg).per_slot_floor;
        assert!(cal.delta_u[0] > cal.delta_u[1]);
        assert!(cal.delta_u[1] > cal.delta_u[2]);
        assert!(cal.delta_l[0] > cal.delta_l[1]);
        assert_eq!((cal.delta_l[1], cal.delta_l[2]), (floor, floor));
    }

    /// The same ordering over a heavy-tailed vector, against τ*.
    #[test]
    fn budgets_are_monotone_in_the_estimate() {
        let cfg = KadabraConfig { epsilon: 0.01, delta: 0.1, ..Default::default() };
        let (counts, tau0, omega) = (power_law_counts(3_000), 1_200, 30_000);
        let cal = Calibration::from_counts(&counts, tau0, omega, &cfg);
        let t = tau_star(&counts, tau0, omega, &cfg);
        let floor = Budgets::new(counts.len(), &cfg).per_slot_floor;
        let mut order: Vec<usize> = (0..counts.len()).filter(|&v| counts[v] > 0).collect();
        order.sort_by_key(|&v| counts[v]);
        for pair in order.windows(2) {
            let (a, z) = (pair[0], pair[1]);
            if counts[a] < counts[z] {
                assert!(
                    cal.delta_u[a] < cal.delta_u[z],
                    "δ_U at counts {}, {}",
                    counts[a],
                    counts[z]
                );
            }
            assert!(cal.delta_l[a] <= cal.delta_l[z]);
        }
        let u = omega as f64 / t - 1.0 / 3.0;
        // Past the line, a term can still vanish beside the floor (e^{−λ_L}
        // underflows for b̃ just above it), so only the hubs must rise.
        let (mut at_floor, mut shaped) = (0, 0);
        for &v in &order {
            let b = counts[v] as f64 / tau0 as f64;
            if b * omega as f64 <= u * cfg.epsilon * t {
                assert_eq!(cal.delta_l[v], floor);
                at_floor += 1;
            } else if cal.delta_l[v] > floor {
                shaped += 1;
            }
        }
        assert!(at_floor > 0 && shaped > 0, "{at_floor} at the floor, {shaped} shaped");
    }

    #[test]
    fn untouched_graph_gets_uniform_floor() {
        let counts = vec![0u64; 6];
        let cal = Calibration::from_counts(&counts, 50, omega_of(&cfg()), &cfg());
        let first = cal.delta_l[0];
        for v in 0..6 {
            assert_eq!(cal.delta_l[v], first);
            assert_eq!(cal.delta_u[v], first);
        }
        // Uniform floor = floor_fraction * (δ/2) / (2n).
        let expect = (cfg().delta / 2.0) * cfg().calibration_floor / 12.0;
        assert!((first - expect).abs() < 1e-15);
    }

    #[test]
    fn deterministic() {
        let counts = vec![5, 0, 9, 2, 2, 88];
        let a = Calibration::from_counts(&counts, 120, omega_of(&cfg()), &cfg());
        let b = Calibration::from_counts(&counts, 120, omega_of(&cfg()), &cfg());
        assert_eq!(a.delta_l, b.delta_l);
        assert_eq!(a.delta_u, b.delta_u);
    }

    #[test]
    fn budgets_capped_below_half() {
        // A single dominant vertex cannot eat a degenerate (≥ 0.5) share.
        let counts = vec![1000u64, 0, 0];
        let cal = Calibration::from_counts(&counts, 1000, omega_of(&cfg()), &cfg());
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
        Calibration::from_counts(&[0], 0, 1_000, &cfg());
    }
}
