//! Directed and weighted KADABRA — the paper's footnote 1:
//! "The parallelization techniques considered in this paper also apply to
//! directed and/or weighted graphs if the required modifications to the
//! underlying sampling algorithm are done."
//!
//! The required modification is precisely the path sampler: KADABRA's
//! estimator and stopping machinery only consume *interior vertex lists of
//! uniformly drawn shortest paths*. This module factors the adaptive loop
//! over a [`PathSource`] trait and instantiates it for
//! [`kadabra_graph::digraph::DiGraph`] (bidirectional directed BFS sampler)
//! and [`kadabra_graph::weighted::WeightedGraph`] (Dijkstra sampler).
//!
//! These variants run the *sequential* algorithm; their parallelizations
//! would reuse the epoch/MPI machinery unchanged (the threads only call
//! `PathSource::sample_path`), exactly as the paper asserts.

use crate::bounds::{self, stopping_condition};
use crate::calibration::{calibration_sample_count, Calibration};
use crate::config::KadabraConfig;
use crate::phases::scores_from_counts;
use crate::result::{BetweennessResult, PhaseTimings, SamplingStats};
use kadabra_graph::digraph::{sample_directed_shortest_path, DiGraph};
use kadabra_graph::scratch::TraversalScratch;
use kadabra_graph::weighted::{sample_weighted_shortest_path, WeightedGraph};
use kadabra_graph::NodeId;
use kadabra_telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Anything KADABRA can sample shortest paths from.
pub trait PathSource {
    /// Number of vertices.
    fn num_nodes(&self) -> usize;
    /// Upper bound on the vertex diameter (vertices of the longest shortest
    /// path), the input to ω. Reported together with its computation time.
    fn vertex_diameter_upper(&self, cfg: &KadabraConfig) -> u32;
    /// Draws a uniform shortest path between the given distinct endpoints,
    /// pushing interior vertices into `out`. No-op if unreachable.
    fn sample_path<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    );
}

/// Directed KADABRA: [`PathSource`] over a [`DiGraph`].
pub struct DirectedSource<'g> {
    graph: &'g DiGraph,
    scratch: std::cell::RefCell<TraversalScratch>,
}

impl<'g> DirectedSource<'g> {
    /// Wraps a digraph for sampling.
    pub fn new(graph: &'g DiGraph) -> Self {
        DirectedSource {
            graph,
            scratch: std::cell::RefCell::new(TraversalScratch::new(graph.num_nodes())),
        }
    }
}

impl PathSource for DirectedSource<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn vertex_diameter_upper(&self, _cfg: &KadabraConfig) -> u32 {
        kadabra_graph::KadabraGraph::vertex_diameter_upper(self.graph, 0)
    }

    fn sample_path<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        let mut scratch = self.scratch.borrow_mut();
        if let Some(p) = sample_directed_shortest_path(self.graph, s, t, &mut scratch, rng) {
            out.extend_from_slice(&p.interior);
        }
    }
}

/// Weighted KADABRA: [`PathSource`] over a [`WeightedGraph`].
pub struct WeightedSource<'g> {
    graph: &'g WeightedGraph,
}

impl<'g> WeightedSource<'g> {
    /// Wraps a weighted graph for sampling.
    pub fn new(graph: &'g WeightedGraph) -> Self {
        WeightedSource { graph }
    }
}

impl PathSource for WeightedSource<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn vertex_diameter_upper(&self, _cfg: &KadabraConfig) -> u32 {
        kadabra_graph::KadabraGraph::vertex_diameter_upper(self.graph, 0)
    }

    fn sample_path<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        t: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        if let Some(p) = sample_weighted_shortest_path(self.graph, s, t, rng) {
            out.extend_from_slice(&p.interior);
        }
    }
}

/// Runs sequential KADABRA over any [`PathSource`]. All three phases, same
/// guarantee: every score within ±ε of the true (directed/weighted)
/// betweenness with probability ≥ 1 − δ.
pub fn kadabra_generic<S: PathSource>(source: &S, cfg: &KadabraConfig) -> BetweennessResult {
    cfg.validate();
    let n = source.num_nodes();
    assert!(n >= 2, "KADABRA requires at least two vertices");

    let diam_start = Stopwatch::start();
    let vd = source.vertex_diameter_upper(cfg);
    let diameter_time = diam_start.elapsed();
    let omega = bounds::omega(cfg.c, cfg.epsilon, cfg.delta, vd);

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9);
    let mut path = Vec::new();
    let draw_pair = |rng: &mut StdRng| -> (NodeId, NodeId) {
        let s = rng.gen_range(0..n as NodeId);
        let mut t = rng.gen_range(0..n as NodeId - 1);
        if t >= s {
            t += 1;
        }
        (s, t)
    };

    // Calibration.
    let calib_start = Stopwatch::start();
    let tau0 = calibration_sample_count(cfg, omega);
    let mut counts = vec![0u64; n];
    for _ in 0..tau0 {
        let (s, t) = draw_pair(&mut rng);
        path.clear();
        source.sample_path(s, t, &mut rng, &mut path);
        for &v in &path {
            counts[v as usize] += 1;
        }
    }
    let calibration = Calibration::from_counts(&counts, tau0, cfg);
    let calibration_time = calib_start.elapsed();

    // Adaptive sampling (fresh counters; calibration samples are not reused,
    // matching the main implementation).
    let ads_start = Stopwatch::start();
    let n0 = cfg.n0(1);
    let mut counts = vec![0u64; n];
    let mut tau = 0u64;
    let mut stats = SamplingStats::default();
    loop {
        for _ in 0..n0 {
            let (s, t) = draw_pair(&mut rng);
            path.clear();
            source.sample_path(s, t, &mut rng, &mut path);
            for &v in &path {
                counts[v as usize] += 1;
            }
        }
        tau += n0;
        stats.epochs += 1;
        let check_start = Stopwatch::start();
        let stop = stopping_condition(
            &counts,
            tau,
            cfg.epsilon,
            omega,
            &calibration.delta_l,
            &calibration.delta_u,
        );
        stats.check_time += check_start.elapsed();
        if stop {
            break;
        }
    }
    stats.samples = tau;

    BetweennessResult {
        scores: scores_from_counts(&counts, tau),
        samples: tau,
        omega,
        vertex_diameter: vd,
        timings: PhaseTimings {
            diameter: diameter_time,
            calibration: calibration_time,
            adaptive_sampling: ads_start.elapsed(),
        },
        stats,
    }
}

/// Sequential KADABRA on a directed graph.
pub fn kadabra_directed(g: &DiGraph, cfg: &KadabraConfig) -> BetweennessResult {
    kadabra_generic(&DirectedSource::new(g), cfg)
}

/// Sequential KADABRA on a positively weighted undirected graph.
pub fn kadabra_weighted(g: &WeightedGraph, cfg: &KadabraConfig) -> BetweennessResult {
    kadabra_generic(&WeightedSource::new(g), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_baselines::{brandes_directed, brandes_weighted};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn directed_kadabra_within_epsilon() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 40usize;
        let mut arcs = Vec::new();
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u != v && rng.gen_bool(0.1) {
                    arcs.push((u, v));
                }
            }
        }
        let g = DiGraph::from_arcs(n, &arcs);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 7, ..Default::default() };
        let r = kadabra_directed(&g, &cfg);
        let exact = brandes_directed(&g);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst}");
    }

    #[test]
    fn weighted_kadabra_within_epsilon() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 40usize;
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.gen_bool(0.15) {
                    edges.push((u, v, rng.gen_range(1..5)));
                }
            }
        }
        let g = WeightedGraph::from_edges(n, &edges);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 8, ..Default::default() };
        let r = kadabra_weighted(&g, &cfg);
        let exact = brandes_weighted(&g);
        let worst = r.scores.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0f64, f64::max);
        assert!(worst <= cfg.epsilon, "max error {worst}");
    }

    #[test]
    fn directed_asymmetry_shows_up() {
        // 0 -> 1 -> 2 plus 2 -> 0: vertex 1 carries (0,2) traffic; vertex 0
        // carries (1,0)->... check the two differ from the undirected case.
        let g = DiGraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
        let cfg = KadabraConfig { epsilon: 0.03, delta: 0.1, seed: 9, ..Default::default() };
        let r = kadabra_directed(&g, &cfg);
        let exact = brandes_directed(&g);
        for (s, e) in r.scores.iter().zip(&exact) {
            assert!((s - e).abs() <= cfg.epsilon);
        }
        // On the directed triangle every vertex relays exactly one pair.
        assert!(exact.iter().all(|&b| (b - 1.0 / 6.0).abs() < 1e-12));
    }

    #[test]
    fn weighted_weights_change_the_ranking() {
        // Unit weights: direct edge 0-2 wins; heavy direct edge: detour via 1
        // wins and vertex 1 becomes central.
        let light = WeightedGraph::from_edges(3, &[(0, 2, 1), (0, 1, 1), (1, 2, 1)]);
        let heavy = WeightedGraph::from_edges(3, &[(0, 2, 10), (0, 1, 1), (1, 2, 1)]);
        let cfg = KadabraConfig { epsilon: 0.05, delta: 0.1, seed: 10, ..Default::default() };
        let r_light = kadabra_weighted(&light, &cfg);
        let r_heavy = kadabra_weighted(&heavy, &cfg);
        assert!(r_light.scores[1] < 0.1);
        assert!(r_heavy.scores[1] > 0.2);
    }

    #[test]
    fn deterministic() {
        let g = DiGraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let cfg = KadabraConfig { epsilon: 0.1, delta: 0.1, seed: 11, ..Default::default() };
        let a = kadabra_directed(&g, &cfg);
        let b = kadabra_directed(&g, &cfg);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.samples, b.samples);
    }
}
