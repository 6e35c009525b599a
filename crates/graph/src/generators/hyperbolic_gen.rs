//! Random hyperbolic graph (RHG) generator.
//!
//! Section V-C of the paper: "random hyperbolic graphs with power law
//! exponent 3", density chosen so that `|E| = 30 |V|`. In the standard model
//! (Krioukov et al.) `n` points are placed in a hyperbolic disk of radius
//! `R`; the radial coordinate has density `α sinh(αr) / (cosh(αR) − 1)` and
//! the angle is uniform. Two points are adjacent iff their hyperbolic
//! distance is at most `R`. The power-law exponent is `γ = 2α + 1`, so the
//! paper's `γ = 3` corresponds to `α = 1`.
//!
//! A naive generator checks all `n²` pairs. We use the classic *band*
//! optimization: points are bucketed into radial bands, each band is sorted
//! by angle, and for a query point only the angular window that can possibly
//! satisfy the distance threshold is scanned (the window follows from
//! `cosh d = cosh r₁ cosh r₂ − sinh r₁ sinh r₂ cos Δθ ≤ cosh R`). With
//! `γ = 3` most points sit near the rim where the windows are tiny, giving
//! near-linear behaviour in practice.

use crate::csr::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RHG parameters.
#[derive(Debug, Clone, Copy)]
pub struct HyperbolicConfig {
    /// Number of vertices.
    pub n: usize,
    /// Target average degree (`|E| ≈ n * avg_deg / 2`).
    pub avg_deg: f64,
    /// Radial dispersion; the degree power-law exponent is `2α + 1`.
    pub alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl HyperbolicConfig {
    /// The paper's setting: power-law exponent 3 (α = 1) and `|E| = 30 |V|`
    /// (average degree 60).
    pub fn paper(n: usize, seed: u64) -> Self {
        HyperbolicConfig { n, avg_deg: 60.0, alpha: 1.0, seed }
    }
}

/// Generates a random hyperbolic graph.
pub fn hyperbolic(cfg: HyperbolicConfig) -> Graph {
    assert!(cfg.alpha > 0.5, "alpha must exceed 1/2 for a finite-degree RHG");
    assert!(cfg.avg_deg > 0.0);
    let n = cfg.n;
    if n == 0 {
        return GraphBuilder::new(0).build();
    }
    // Expected average degree ~ (2/π) ξ² n e^{-R/2} with ξ = α/(α − 1/2)
    // (Krioukov et al. 2010, Eq. 22), hence:
    let xi = cfg.alpha / (cfg.alpha - 0.5);
    let r_disk =
        2.0 * ((2.0 / std::f64::consts::PI) * xi * xi * n as f64 / cfg.avg_deg).max(1.0).ln();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Sample polar coordinates; radial CDF inversion.
    let cosh_ar_minus1 = ((cfg.alpha * r_disk).cosh() - 1.0).max(f64::MIN_POSITIVE);
    let mut radius: Vec<f64> = Vec::with_capacity(n);
    let mut angle: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen();
        let r = ((1.0 + u * cosh_ar_minus1).acosh()) / cfg.alpha;
        radius.push(r.min(r_disk));
        angle.push(rng.gen::<f64>() * std::f64::consts::TAU);
    }

    // Radial bands of equal width; each band sorted by angle.
    let num_bands = ((n as f64).ln().ceil() as usize).max(1);
    let band_width = r_disk / num_bands as f64;
    let band_of = |r: f64| ((r / band_width) as usize).min(num_bands - 1);
    let mut bands: Vec<Vec<u32>> = vec![Vec::new(); num_bands];
    for (i, &r) in radius.iter().enumerate() {
        bands[band_of(r)].push(i as u32);
    }
    for band in &mut bands {
        #[expect(clippy::expect_used, reason = "angles are finite draws from [0, 2π)")]
        band.sort_by(|&a, &b| {
            angle[a as usize].partial_cmp(&angle[b as usize]).expect("angles are finite")
        });
    }

    let cosh_r: Vec<f64> = radius.iter().map(|r| r.cosh()).collect();
    let sinh_r: Vec<f64> = radius.iter().map(|r| r.sinh()).collect();
    let cosh_disk = r_disk.cosh();

    // Exact adjacency test.
    let connected = |i: usize, j: usize| -> bool {
        let mut dt = (angle[i] - angle[j]).abs();
        if dt > std::f64::consts::PI {
            dt = std::f64::consts::TAU - dt;
        }
        let cosh_d = cosh_r[i] * cosh_r[j] - sinh_r[i] * sinh_r[j] * dt.cos();
        cosh_d <= cosh_disk
    };

    // Max Δθ that can connect a point at radius r1 to any point at radius
    // ≥ band_min. cos Δθ ≥ (cosh r1 cosh r2 − cosh R)/(sinh r1 sinh r2) is
    // loosest at the band's inner radius.
    let max_dtheta = |r1: f64, band_min: f64| -> f64 {
        let r2 = band_min;
        let s = r1.sinh() * r2.sinh();
        if s <= 0.0 {
            return std::f64::consts::PI; // a point at the origin reaches everyone
        }
        let c = (r1.cosh() * r2.cosh() - cosh_disk) / s;
        if c <= -1.0 {
            std::f64::consts::PI
        } else if c >= 1.0 {
            0.0
        } else {
            c.acos()
        }
    };

    let mut builder = GraphBuilder::with_capacity(n, (n as f64 * cfg.avg_deg / 2.0) as usize);
    // For each point, scan candidate windows in every band at or outside its
    // own (pairs are visited once: inner-vs-outer by band order, and within a
    // band by index order).
    for i in 0..n {
        let bi = band_of(radius[i]);
        for (b, band) in bands.iter().enumerate().skip(bi) {
            if band.is_empty() {
                continue;
            }
            let band_min = b as f64 * band_width;
            let window = max_dtheta(radius[i], band_min);
            let lo_angle = angle[i] - window;
            let hi_angle = angle[i] + window;
            // The band is sorted by angle in [0, 2π); the window may wrap.
            // Dedup rule: same-band pairs are emitted by the lower index
            // only; cross-band pairs by the inner-band point only.
            scan_window(band, &angle, lo_angle, hi_angle, |j| {
                let j = j as usize;
                if (b > bi || j > i) && connected(i, j) {
                    #[expect(clippy::expect_used, reason = "band indices enumerate 0..n")]
                    builder.add_edge(i as NodeId, j as NodeId).expect("ids in range");
                }
            });
        }
    }
    builder.build()
}

/// Calls `f` for every band member whose angle lies in `[lo, hi]`
/// (wrapping around 2π as needed).
fn scan_window<F: FnMut(u32)>(band: &[u32], angle: &[f64], lo: f64, hi: f64, mut f: F) {
    if hi - lo >= std::f64::consts::TAU {
        for &j in band {
            f(j);
        }
        return;
    }
    let tau = std::f64::consts::TAU;
    let wrap = |x: f64| ((x % tau) + tau) % tau;
    let (lo_w, hi_w) = (wrap(lo), wrap(hi));
    let start = band.partition_point(|&j| angle[j as usize] < lo_w);
    if lo_w <= hi_w {
        for &j in &band[start..] {
            if angle[j as usize] > hi_w {
                break;
            }
            f(j);
        }
    } else {
        // Wrapped window: [lo_w, 2π) ∪ [0, hi_w].
        for &j in &band[start..] {
            f(j);
        }
        for &j in band {
            if angle[j as usize] > hi_w {
                break;
            }
            f(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component;

    #[test]
    fn average_degree_near_target() {
        let g = hyperbolic(HyperbolicConfig { n: 4000, avg_deg: 12.0, alpha: 1.0, seed: 1 });
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        // The closed-form calibration is asymptotic; allow a wide band.
        assert!(avg > 4.0 && avg < 36.0, "average degree {avg} far from target 12");
    }

    #[test]
    fn deterministic() {
        let cfg = HyperbolicConfig { n: 500, avg_deg: 8.0, alpha: 1.0, seed: 2 };
        assert_eq!(hyperbolic(cfg), hyperbolic(cfg));
    }

    #[test]
    fn band_generation_matches_naive_pair_check() {
        // Regenerate coordinates with the same RNG stream and compare the
        // band-based edge set against the O(n²) oracle.
        let cfg = HyperbolicConfig { n: 300, avg_deg: 10.0, alpha: 1.0, seed: 3 };
        let g = hyperbolic(cfg);

        let xi = cfg.alpha / (cfg.alpha - 0.5);
        let r_disk =
            2.0 * ((2.0 / std::f64::consts::PI) * xi * xi * cfg.n as f64 / cfg.avg_deg).ln();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let cosh_ar_minus1 = (cfg.alpha * r_disk).cosh() - 1.0;
        let mut pts = Vec::new();
        for _ in 0..cfg.n {
            let u: f64 = rng.gen();
            let r = ((1.0 + u * cosh_ar_minus1).acosh()) / cfg.alpha;
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            pts.push((r.min(r_disk), theta));
        }
        let cosh_disk = r_disk.cosh();
        let mut expected = 0usize;
        for i in 0..cfg.n {
            for j in (i + 1)..cfg.n {
                let mut dt = (pts[i].1 - pts[j].1).abs();
                if dt > std::f64::consts::PI {
                    dt = std::f64::consts::TAU - dt;
                }
                let d = pts[i].0.cosh() * pts[j].0.cosh()
                    - pts[i].0.sinh() * pts[j].0.sinh() * dt.cos();
                if d <= cosh_disk {
                    expected += 1;
                    assert!(g.has_edge(i as NodeId, j as NodeId), "missing edge {i}-{j}");
                }
            }
        }
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn power_law_tail_has_hubs() {
        let g = hyperbolic(HyperbolicConfig { n: 3000, avg_deg: 10.0, alpha: 1.0, seed: 4 });
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            g.max_degree() as f64 > 4.0 * avg,
            "no hub vertices: max {} avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn giant_component_exists() {
        let g = hyperbolic(HyperbolicConfig { n: 2000, avg_deg: 12.0, alpha: 1.0, seed: 5 });
        let (lcc, _) = largest_component(&g);
        assert!(
            lcc.num_nodes() * 2 > g.num_nodes(),
            "giant component too small: {}",
            lcc.num_nodes()
        );
    }

    #[test]
    fn empty_graph() {
        let g = hyperbolic(HyperbolicConfig { n: 0, avg_deg: 10.0, alpha: 1.0, seed: 6 });
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1/2")]
    fn alpha_validation() {
        hyperbolic(HyperbolicConfig { n: 10, avg_deg: 5.0, alpha: 0.4, seed: 0 });
    }

    #[test]
    fn canonical_output() {
        let g = hyperbolic(HyperbolicConfig { n: 800, avg_deg: 6.0, alpha: 1.0, seed: 7 });
        assert!(g.check_canonical().is_ok());
    }
}
