//! Per-thread sampling engine.
//!
//! Each sampling thread owns a [`ThreadSampler`]: a deterministic RNG stream
//! derived from `(seed, rank, thread)`, reusable BFS scratch, and the pair +
//! path sampling loop. One call to [`ThreadSampler::sample`] = one KADABRA
//! sample = one [`PathSource::sample_path_into`] (the `SAMPLE()` of Algorithms 1
//! and 2; a bidirectional BFS on every undirected view).
//! [`ThreadSampler::sample_batch`] amortizes the per-sample bookkeeping over
//! a whole batch (DESIGN.md §11): pairs are pre-drawn in one sweep from the
//! xoshiro stream and every sample writes its interior into the same reused
//! scratch buffer, so from the second batch on a sample allocates nothing.

use crate::config::KernelOptions;
use kadabra_graph::bibfs::SearchStats;
use kadabra_graph::{NodeId, PathSource, TraversalScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer — mixes the master seed with stream coordinates so
/// that each (rank, thread) gets a decorrelated RNG stream. Public so
/// auxiliary deterministic streams (e.g. the dynamic-update redraw streams)
/// can derive decorrelated seeds from the same coordinates.
pub fn mix_seed(seed: u64, rank: u64, thread: u64) -> u64 {
    let mut z = seed
        .wrapping_add(rank.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(thread.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream-index offset separating adaptive-sampling RNG streams from
/// calibration streams of the same `(rank, thread)` pair.
pub const ADS_STREAM_OFFSET: usize = 1 << 20;

/// A sampling thread's private state.
pub struct ThreadSampler {
    rng: StdRng,
    scratch: TraversalScratch,
    n: usize,
    /// Pre-drawn endpoint pairs for the current batch.
    pairs: Vec<(NodeId, NodeId)>,
    /// Cumulative search statistics over every sample taken.
    pub stats: SearchStats,
    /// Total samples produced by this sampler.
    pub samples_taken: u64,
}

impl ThreadSampler {
    /// Creates the sampler for `(rank, thread)` on an `n`-vertex graph.
    pub fn new(n: usize, seed: u64, rank: usize, thread: usize) -> Self {
        assert!(n >= 2, "sampling requires at least two vertices");
        ThreadSampler {
            rng: StdRng::seed_from_u64(mix_seed(seed, rank as u64, thread as u64)),
            scratch: TraversalScratch::new(n),
            n,
            pairs: Vec::new(),
            stats: SearchStats::default(),
            samples_taken: 0,
        }
    }

    /// Turns this sampler into [`ThreadSampler::new`]`(n, seed, rank,
    /// thread)` without reallocating its scratch: what a thread that samples
    /// one phase after another does between them.
    pub(crate) fn reseed(&mut self, seed: u64, rank: usize, thread: usize) {
        self.rng = StdRng::seed_from_u64(mix_seed(seed, rank as u64, thread as u64));
        self.stats = SearchStats::default();
        self.samples_taken = 0;
    }

    /// [`ThreadSampler::new`]. One of the five names frozen for `benchmark/`
    /// and uncalled inside the workspace; [`KernelOptions`] says why they
    /// exist and which later PR removes them.
    #[doc(hidden)]
    pub fn with_kernel(n: usize, seed: u64, rank: usize, thread: usize, _: KernelOptions) -> Self {
        Self::new(n, seed, rank, thread)
    }

    /// Always 0, which makes the harness's probe fall back to
    /// `stats.edges_scanned`. Frozen for `benchmark/` and removed with
    /// [`ThreadSampler::with_kernel`].
    #[doc(hidden)]
    pub fn kernel_physical_edges(&self) -> u64 {
        0
    }

    /// Draws a uniform ordered pair `(s, t)` with `s ≠ t`.
    #[inline]
    fn draw_pair(&mut self) -> (NodeId, NodeId) {
        let s = self.rng.gen_range(0..self.n as NodeId);
        let mut t = self.rng.gen_range(0..self.n as NodeId - 1);
        if t >= s {
            t += 1; // uniform over t != s without rejection
        }
        (s, t)
    }

    /// Takes one sample: draws a uniform ordered pair `(s, t)`, `s ≠ t`,
    /// samples a uniform shortest s-t path, and returns its interior
    /// vertices (empty for adjacent pairs **and** for disconnected pairs —
    /// KADABRA counts a sample of a disconnected pair as a path with no
    /// interior, keeping `b̃` an unbiased estimator on disconnected graphs).
    pub fn sample<G: PathSource>(&mut self, g: &G) -> &[NodeId] {
        // A batch of one consumes the stream exactly as a lone draw would.
        self.sample_batch_records(g, 1, |_, _, _, _| {});
        &self.scratch.path
    }

    /// Takes `k` samples, invoking `consume` with each sample's interior
    /// vertices (same semantics as [`ThreadSampler::sample`]).
    ///
    /// The `k` endpoint pairs are pre-drawn from the RNG stream in one tight
    /// sweep before any BFS runs — this batches the stream arithmetic and
    /// keeps the BFS loop free of per-sample RNG state churn. The pair/path
    /// distribution is identical to `k` calls of `sample` (every draw is
    /// independent), only the order in which the stream is consumed differs,
    /// which the `(ε, δ)` guarantee is insensitive to (DESIGN.md §11).
    pub fn sample_batch<G: PathSource, F: FnMut(&[NodeId])>(
        &mut self,
        g: &G,
        k: u64,
        mut consume: F,
    ) {
        self.sample_batch_records(g, k, |_, _, _, interior| consume(interior));
    }

    /// Like [`ThreadSampler::sample_batch`], but hands the consumer the full
    /// sample record — endpoints, shortest distance in hops (`u32::MAX` for a
    /// disconnected pair), and the interior — so callers that *retain*
    /// samples (the dynamic-update path store) can later re-validate them.
    pub fn sample_batch_records<G: PathSource, F: FnMut(NodeId, NodeId, u32, &[NodeId])>(
        &mut self,
        g: &G,
        k: u64,
        mut consume: F,
    ) {
        assert_eq!(
            g.num_nodes(),
            self.n,
            "sampler scratch sized for {} vertices, graph has {}",
            self.n,
            g.num_nodes()
        );
        self.pairs.clear();
        self.pairs.reserve(k as usize);
        for _ in 0..k {
            let p = self.draw_pair();
            self.pairs.push(p);
        }
        for &(s, t) in &self.pairs {
            let dist = g.sample_path_into(s, t, &mut self.scratch, &mut self.rng, &mut self.stats);
            consume(s, t, dist.unwrap_or(u32::MAX), &self.scratch.path);
        }
        self.samples_taken += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::csr::graph_from_edges;
    use kadabra_graph::generators::{gnm, GnmConfig};

    #[test]
    fn deterministic_streams() {
        let g = gnm(GnmConfig { n: 30, m: 90, seed: 1 });
        let mut a = ThreadSampler::new(30, 7, 0, 0);
        let mut b = ThreadSampler::new(30, 7, 0, 0);
        for _ in 0..50 {
            assert_eq!(a.sample(&g), b.sample(&g));
        }
    }

    #[test]
    fn reseeded_sampler_draws_what_a_fresh_one_draws() {
        let g = gnm(GnmConfig { n: 30, m: 90, seed: 1 });
        let mut used = ThreadSampler::new(30, 7, 0, 0);
        used.sample_batch(&g, 20, |_| {});
        used.reseed(7, 1, 3);
        let mut fresh = ThreadSampler::new(30, 7, 1, 3);
        for _ in 0..50 {
            assert_eq!(used.sample(&g), fresh.sample(&g));
        }
        assert_eq!(used.samples_taken, fresh.samples_taken);
        assert_eq!(used.stats.edges_scanned, fresh.stats.edges_scanned);
    }

    #[test]
    fn batch_is_deterministic_and_counts() {
        let g = gnm(GnmConfig { n: 40, m: 140, seed: 2 });
        let mut a = ThreadSampler::new(40, 9, 0, 0);
        let mut b = ThreadSampler::new(40, 9, 0, 0);
        let mut seen_a: Vec<Vec<NodeId>> = Vec::new();
        let mut seen_b: Vec<Vec<NodeId>> = Vec::new();
        a.sample_batch(&g, 64, |p| seen_a.push(p.to_vec()));
        b.sample_batch(&g, 64, |p| seen_b.push(p.to_vec()));
        assert_eq!(seen_a, seen_b);
        assert_eq!(seen_a.len(), 64);
        assert_eq!(a.samples_taken, 64);
        // At least one sample on this dense instance has an interior vertex.
        assert!(seen_a.iter().any(|p| !p.is_empty()));
    }

    #[test]
    fn different_threads_get_different_streams() {
        let g = gnm(GnmConfig { n: 30, m: 90, seed: 1 });
        let mut a = ThreadSampler::new(30, 7, 0, 0);
        let mut b = ThreadSampler::new(30, 7, 0, 1);
        let mut c = ThreadSampler::new(30, 7, 1, 0);
        let sa: Vec<Vec<NodeId>> = (0..20).map(|_| a.sample(&g).to_vec()).collect();
        let sb: Vec<Vec<NodeId>> = (0..20).map(|_| b.sample(&g).to_vec()).collect();
        let sc: Vec<Vec<NodeId>> = (0..20).map(|_| c.sample(&g).to_vec()).collect();
        assert_ne!(sa, sb);
        assert_ne!(sa, sc);
        assert_ne!(sb, sc);
    }

    #[test]
    fn counts_samples() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut s = ThreadSampler::new(4, 1, 0, 0);
        for _ in 0..10 {
            s.sample(&g);
        }
        assert_eq!(s.samples_taken, 10);
        assert!(s.stats.edges_scanned > 0);
    }

    #[test]
    fn disconnected_pairs_yield_empty_interior() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let mut s = ThreadSampler::new(4, 3, 0, 0);
        for _ in 0..50 {
            let interior = s.sample(&g);
            // Any sample on this graph has distance ≤ 1 or is disconnected:
            // the interior is always empty.
            assert!(interior.is_empty());
        }
        s.sample_batch(&g, 50, |interior| assert!(interior.is_empty()));
    }

    #[test]
    fn estimates_match_exact_on_path_graph() {
        // P3: only pairs (0,2)/(2,0) have an interior vertex (vertex 1);
        // expected fraction of samples hitting it = 2/6 = b(1).
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut s = ThreadSampler::new(3, 5, 0, 0);
        let trials = 30_000;
        let mut hits = 0u64;
        for _ in 0..trials {
            if !s.sample(&g).is_empty() {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn batch_estimates_match_exact_on_path_graph() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut s = ThreadSampler::new(3, 6, 0, 0);
        let trials = 30_000u64;
        let mut hits = 0u64;
        s.sample_batch(&g, trials, |p| {
            if !p.is_empty() {
                hits += 1;
            }
        });
        let frac = hits as f64 / trials as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn rejects_singleton() {
        ThreadSampler::new(1, 0, 0, 0);
    }
}
