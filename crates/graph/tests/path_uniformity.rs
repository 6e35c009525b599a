//! Statistical conformance suite for the bidirectional path sampler
//! (DESIGN.md §11): `sample_shortest_path` must draw **uniformly** from the
//! set of shortest s-t paths — the property the KADABRA (ε, δ) guarantee
//! stands on — across every corner-case topology the meeting-cut logic has:
//! adjacent endpoints (empty interior), disconnected endpoints, and cuts
//! with several vertices of unequal path multiplicity. The same harness
//! holds the directed sampler, the kernel over out-rows and in-rows, to the
//! same test on a digraph whose transpose differs from it.
//!
//! Each uniformity test takes ≥50 000 seed-pinned samples per vertex pair
//! and applies a chi-square goodness-of-fit test against the brute-force
//! enumeration of the path set; the aggregate test additionally reconciles
//! empirical interior frequencies with `brute_force_betweenness` from
//! `kadabra-baselines` (an enumerator independent of the sampler's σ
//! bookkeeping). Thresholds sit at α ≈ 1e-4 — with pinned seeds a failure
//! means the sampler's distribution moved, not bad luck.

use kadabra_baselines::brute_force_betweenness;
use kadabra_graph::bibfs::{
    enumerate_shortest_paths, sample_shortest_path, sample_shortest_path_into, SampleInfo,
    SearchStats,
};
use kadabra_graph::csr::graph_from_edges;
use kadabra_graph::digraph::{
    enumerate_directed_shortest_paths, sample_directed_shortest_path, DiGraph,
};
use kadabra_graph::generators::{grid, GridConfig};
use kadabra_graph::scratch::TraversalScratch;
use kadabra_graph::{Graph, NodeId, PathSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Samples per tested vertex pair (the ISSUE floor is 50k).
const SAMPLES: u64 = 50_000;

/// Chi-square critical value at `z = 4` normal deviations (α ≈ 3e-5) via the
/// Wilson–Hilferty approximation — accurate to a few percent for df ≥ 2,
/// and the margin is absorbed by the pinned seeds.
fn chi2_critical(df: f64) -> f64 {
    let z = 4.0;
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + z * a.sqrt()).powi(3)
}

/// A graph kind's sampler (interior left in the scratch) and its exhaustive
/// shortest-path enumeration.
type Kind<G> = (
    fn(&G, NodeId, NodeId, &mut TraversalScratch, &mut StdRng) -> Option<SampleInfo>,
    fn(&G, NodeId, NodeId) -> Vec<Vec<NodeId>>,
);

/// Undirected graphs: the kernel over one symmetric view.
const UNDIRECTED: Kind<Graph> = (
    |g, s, t, scratch, rng| {
        sample_shortest_path_into(g, s, t, scratch, rng, &mut SearchStats::default())
    },
    enumerate_shortest_paths,
);

/// Digraphs: the kernel over out-rows from `s` and in-rows from `t`.
const DIRECTED: Kind<DiGraph> = (sample_directed_shortest_path, enumerate_directed_shortest_paths);

/// Draws `SAMPLES` paths for `(s, t)` with `kind`'s sampler and
/// chi-square-tests the empirical path distribution against uniform over the
/// set `kind` enumerates. Also pins the per-sample `distance` / `num_paths`
/// metadata to the enumeration.
fn assert_uniform_over_paths<G: PathSource>(
    g: &G,
    (sample, enumerate): Kind<G>,
    s: NodeId,
    t: NodeId,
    seed: u64,
) {
    let oracle = enumerate(g, s, t);
    assert!(!oracle.is_empty(), "pair ({s},{t}) must be connected for this helper");
    // Path length in hops = interior vertices + the final hop.
    let expected_len = oracle[0].len() as u32 + 1;
    // The sampler reports the interior in side-of-expansion order, not s→t
    // order, so key paths by their sorted interior: on a shortest path the
    // vertex set determines the order (distance from s strictly increases),
    // making the sorted set a faithful path identity.
    let mut counts: HashMap<Vec<NodeId>, u64> = oracle
        .iter()
        .map(|p| {
            let mut key = p.clone();
            key.sort_unstable();
            (key, 0)
        })
        .collect();
    assert_eq!(counts.len(), oracle.len(), "oracle paths must have distinct vertex sets");

    let mut scratch = TraversalScratch::new(g.num_nodes());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut key = Vec::new();
    for _ in 0..SAMPLES {
        let info = sample(g, s, t, &mut scratch, &mut rng)
            .expect("oracle found paths; the sampler must too");
        assert_eq!(info.distance, expected_len, "distance must match the oracle");
        assert_eq!(
            info.num_paths,
            oracle.len() as u128,
            "σ bookkeeping must count exactly the enumerated paths"
        );
        key.clear();
        key.extend_from_slice(&scratch.path);
        key.sort_unstable();
        let slot = counts
            .get_mut(&key)
            .unwrap_or_else(|| panic!("sampled a non-shortest path: {:?}", scratch.path));
        *slot += 1;
    }

    let k = oracle.len() as f64;
    let expected = SAMPLES as f64 / k;
    let stat: f64 = counts.values().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
    let critical = chi2_critical(k - 1.0);
    assert!(
        stat <= critical,
        "path distribution not uniform over ({s},{t}): chi2 = {stat:.2} > {critical:.2} \
         (k = {k}, counts = {:?})",
        counts.values().collect::<Vec<_>>()
    );
}

#[test]
fn uniform_over_grid_corner_paths() {
    // 4x4 grid, opposite corners: C(6,3) = 20 monotone shortest paths.
    let g = grid(GridConfig { rows: 4, cols: 4, diagonal_prob: 0.0, seed: 0 });
    assert_eq!(enumerate_shortest_paths(&g, 0, 15).len(), 20);
    assert_uniform_over_paths(&g, UNDIRECTED, 0, 15, 0xC0FFEE);
}

#[test]
fn uniform_when_cut_vertices_have_unequal_multiplicity() {
    // Three length-3 paths from 0 to 6: [1,3], [2,3], [4,5]. The meeting cut
    // contains vertices with different σ_near·σ_far products (3 carries two
    // paths, 4/5 carry one), so uniformity requires both the proportional
    // cut pick and the σ-proportional backtrack to be correct.
    let g = graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 6), (0, 4), (4, 5), (5, 6)]);
    let oracle = enumerate_shortest_paths(&g, 0, 6);
    assert_eq!(oracle.len(), 3);
    assert_uniform_over_paths(&g, UNDIRECTED, 0, 6, 0xBEEF);
    // And in the reverse direction (the balanced expansion picks sides by
    // frontier degree, so s/t roles are not symmetric in the implementation).
    assert_uniform_over_paths(&g, UNDIRECTED, 6, 0, 0xFEED);
}

#[test]
fn uniform_over_multi_vertex_meeting_cut() {
    // Star-of-middles: 4 disjoint length-2 paths, cut = {1, 2, 3, 4}.
    let g = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]);
    assert_eq!(enumerate_shortest_paths(&g, 0, 5).len(), 4);
    assert_uniform_over_paths(&g, UNDIRECTED, 0, 5, 0xABAD1DEA);
}

#[test]
fn uniform_over_one_way_grid_paths() {
    // A 4x4 grid whose arcs run right and down, plus a chord up-left out of
    // every cell but the first row and column: the 20 monotone corner paths
    // are the shortest ones, and every row of the transpose differs from the
    // out-row of its vertex. The walk back to `s` must read in-rows and the
    // walk back to `t` out-rows; a walk that read its own side's rows would
    // find no predecessor one level down.
    //
    // The corners are hubs: `s` = 0 has 16 out-leaves, `t` = 15 has 16
    // in-leaves, and the arc 15 → 0 closes the loop the wrong way. One
    // binary search per far vertex is then far cheaper than the near row,
    // so the meet test runs before the first expansion; it must read the
    // far side's rows, where a search of `t`'s out-row would find `s` and
    // report a path of one hop.
    let cell = |r: NodeId, c: NodeId| 4 * r + c;
    let mut arcs = vec![(cell(3, 3), cell(0, 0))];
    for r in 0..4 {
        for c in 0..4 {
            if c < 3 {
                arcs.push((cell(r, c), cell(r, c + 1)));
            }
            if r < 3 {
                arcs.push((cell(r, c), cell(r + 1, c)));
            }
            if r > 0 && c > 0 {
                arcs.push((cell(r, c), cell(r - 1, c - 1)));
            }
        }
    }
    arcs.extend((16..32).map(|leaf| (cell(0, 0), leaf)));
    arcs.extend((32..48).map(|leaf| (leaf, cell(3, 3))));
    let g = DiGraph::from_arcs(48, &arcs);
    assert_eq!(enumerate_directed_shortest_paths(&g, 0, 15).len(), 20);
    assert_uniform_over_paths(&g, DIRECTED, 0, 15, 0xD1_6EC7);
    // From an inner cell to the corner: the chords reach back past `s`.
    assert_uniform_over_paths(&g, DIRECTED, cell(1, 1), 15, 0x5EED);
}

#[test]
fn adjacent_pairs_yield_the_edge_with_empty_interior() {
    // 0-1 are adjacent; a longer parallel route 0-2-3-1 must never surface.
    let g = graph_from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 1)]);
    let mut scratch = TraversalScratch::new(g.num_nodes());
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..SAMPLES {
        let s = sample_shortest_path(&g, 0, 1, &mut scratch, &mut rng)
            .expect("adjacent pair is connected");
        assert_eq!(s.distance, 1);
        assert_eq!(s.num_paths, 1);
        assert!(s.interior.is_empty(), "a direct edge has no interior vertices");
    }
}

#[test]
fn disconnected_pairs_always_return_none() {
    // Two components: {0,1,2} and {3,4}.
    let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
    assert!(enumerate_shortest_paths(&g, 0, 4).is_empty());
    let mut scratch = TraversalScratch::new(g.num_nodes());
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..1_000 {
        assert!(sample_shortest_path(&g, 0, 4, &mut scratch, &mut rng).is_none());
        assert!(sample_shortest_path(&g, 4, 0, &mut scratch, &mut rng).is_none());
    }
    // The scratch stays usable for connected pairs afterwards.
    assert!(sample_shortest_path(&g, 0, 2, &mut scratch, &mut rng).is_some());
}

#[test]
fn interior_frequencies_reconcile_with_brute_force_betweenness() {
    // Barbell: two triangles bridged by a path — strongly non-uniform
    // betweenness. Sampling every ordered pair equally often makes the
    // expected interior count of v proportional to its exact betweenness:
    // E[count(v)] = per_pair * n * (n-1) * bc(v).
    let g = graph_from_edges(
        8,
        &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)],
    );
    let bc = brute_force_betweenness(&g);
    let n = g.num_nodes();
    let per_pair: u64 = 2_000;

    let mut counts = vec![0u64; n];
    let mut scratch = TraversalScratch::new(n);
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    let mut total: u64 = 0;
    for s in 0..n as NodeId {
        for t in 0..n as NodeId {
            if s == t {
                continue;
            }
            for _ in 0..per_pair {
                let sample = sample_shortest_path(&g, s, t, &mut scratch, &mut rng)
                    .expect("barbell is connected");
                for &v in &sample.interior {
                    counts[v as usize] += 1;
                }
                total += 1;
            }
        }
    }
    assert_eq!(total, per_pair * (n * (n - 1)) as u64);
    for v in 0..n {
        let expected = total as f64 * bc[v];
        // Binomial-ish tolerance: 4.5 standard deviations of a Poisson with
        // the expected mass, floored so zero-betweenness vertices stay exact.
        let slack = 4.5 * expected.sqrt().max(1.0);
        let got = counts[v] as f64;
        assert!(
            (got - expected).abs() <= slack,
            "vertex {v}: interior count {got} vs expected {expected:.1} (±{slack:.1})"
        );
    }
}
