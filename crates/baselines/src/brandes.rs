//! Brandes' exact betweenness algorithm (sequential and source-parallel).
//!
//! One augmented BFS per source plus a reverse accumulation of the
//! dependency recursion `δ_s(v) = Σ_{w : v ∈ pred(w)} (σ_v/σ_w)(1 + δ_s(w))`
//! (Ref. \[8\] of the paper). Scores are normalized by `n(n-1)`.

use kadabra_graph::bfs::sigma_bfs;
use kadabra_graph::{Graph, NodeId};

/// Exact normalized betweenness of every vertex, sequentially.
pub fn brandes(g: &Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut bc = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    for s in 0..n as NodeId {
        accumulate_source(g, s, &mut bc, &mut delta);
    }
    normalize(&mut bc, n);
    bc
}

/// Exact normalized betweenness, parallelized over sources with
/// `num_threads` worker threads (crossbeam scoped threads; sources are
/// claimed from an atomic counter, per-thread partial scores merged at the
/// end). This mirrors the standard shared-memory Brandes parallelization the
/// paper cites as Ref. \[15\].
pub fn brandes_parallel(g: &Graph, num_threads: usize) -> Vec<f64> {
    assert!(num_threads >= 1);
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    // xtask: allow(direct-atomics) — plain work-stealing counter in a baseline
    // crate; carries no protocol state worth model-checking under loom.
    let next_source = std::sync::atomic::AtomicU32::new(0);
    let mut partials: Vec<Vec<f64>> = Vec::new();
    let scope_result = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..num_threads)
            .map(|_| {
                let next_source = &next_source;
                scope.spawn(move |_| {
                    let mut bc = vec![0.0f64; n];
                    let mut delta = vec![0.0f64; n];
                    loop {
                        // xtask: allow(direct-atomics) — see counter above.
                        let s = next_source.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if s as usize >= n {
                            break;
                        }
                        accumulate_source(g, s, &mut bc, &mut delta);
                    }
                    bc
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(bc) => partials.push(bc),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if let Err(payload) = scope_result {
        std::panic::resume_unwind(payload);
    }
    let mut bc = vec![0.0f64; n];
    for p in partials {
        for (a, b) in bc.iter_mut().zip(p) {
            *a += b;
        }
    }
    normalize(&mut bc, n);
    bc
}

/// Adds source `s`'s dependency contributions to `bc`. `delta` is scratch.
fn accumulate_source(g: &Graph, s: NodeId, bc: &mut [f64], delta: &mut [f64]) {
    let res = sigma_bfs(g, s);
    for &v in &res.order {
        delta[v as usize] = 0.0;
    }
    // Reverse BFS order: every successor is processed before its
    // predecessors.
    for &w in res.order.iter().rev() {
        let dw = res.dist[w as usize];
        let coeff = (1.0 + delta[w as usize]) / res.sigma[w as usize] as f64;
        for &v in g.neighbors(w) {
            if res.dist[v as usize] + 1 == dw {
                delta[v as usize] += res.sigma[v as usize] as f64 * coeff;
            }
        }
        if w != s {
            bc[w as usize] += delta[w as usize];
        }
    }
}

fn normalize(bc: &mut [f64], n: usize) {
    if n >= 2 {
        let norm = 1.0 / (n as f64 * (n as f64 - 1.0));
        for b in bc.iter_mut() {
            *b *= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_graph::csr::graph_from_edges;
    use kadabra_graph::generators::{gnm, GnmConfig};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn path_graph_center() {
        // P3: middle vertex lies on the single shortest path between the two
        // ends, in both directions: b = 2 / (3*2) = 1/3.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let bc = brandes(&g);
        assert!(close(bc[0], 0.0));
        assert!(close(bc[1], 1.0 / 3.0));
        assert!(close(bc[2], 0.0));
    }

    #[test]
    fn star_graph_hub() {
        // Star K1,4: hub lies on all 4*3 ordered leaf pairs; b = 12/20.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let bc = brandes(&g);
        assert!(close(bc[0], 12.0 / 20.0));
        for b in &bc[1..5] {
            assert!(close(*b, 0.0));
        }
    }

    #[test]
    fn cycle_symmetry() {
        let n = 8u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let bc = brandes(&g);
        for v in 1..n as usize {
            assert!(close(bc[v], bc[0]), "cycle must be vertex-transitive");
        }
        assert!(bc[0] > 0.0);
    }

    #[test]
    fn complete_graph_zero() {
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(5, &edges);
        for b in brandes(&g) {
            assert!(close(b, 0.0));
        }
    }

    #[test]
    fn four_cycle_split_paths() {
        // C4: between opposite corners there are two shortest paths, each
        // middle vertex carries 1/2 per ordered pair; b(v) = 2 * (1/2) / 12.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bc = brandes(&g);
        for (v, b) in bc.iter().enumerate() {
            assert!(close(*b, 2.0 * 0.5 / 12.0), "bc[{v}] = {b}");
        }
    }

    #[test]
    fn disconnected_components_are_independent() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let bc = brandes(&g);
        // Each middle vertex: 2 ordered pairs / (6*5).
        assert!(close(bc[1], 2.0 / 30.0));
        assert!(close(bc[4], 2.0 / 30.0));
        assert!(close(bc[0], 0.0));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..6 {
            let g = gnm(GnmConfig { n: 10, m: 18, seed });
            let exact = brandes(&g);
            let brute = crate::brute::brute_force_betweenness(&g);
            for v in 0..10 {
                assert!(
                    (exact[v] - brute[v]).abs() < 1e-9,
                    "seed {seed} vertex {v}: {} vs {}",
                    exact[v],
                    brute[v]
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gnm(GnmConfig { n: 80, m: 240, seed: 42 });
        let seq = brandes(&g);
        for threads in [1, 2, 4] {
            let par = brandes_parallel(&g, threads);
            for v in 0..80 {
                assert!((seq[v] - par[v]).abs() < 1e-9, "threads={threads} vertex {v}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(brandes(&graph_from_edges(0, &[])).is_empty());
        assert_eq!(brandes(&graph_from_edges(1, &[])), vec![0.0]);
        assert!(brandes_parallel(&graph_from_edges(0, &[]), 2).is_empty());
    }

    #[test]
    fn scores_are_probabilities() {
        let g = gnm(GnmConfig { n: 40, m: 100, seed: 9 });
        for b in brandes(&g) {
            assert!((0.0..=1.0).contains(&b));
        }
    }
}
