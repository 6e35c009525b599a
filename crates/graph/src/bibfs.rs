//! Balanced bidirectional BFS and uniform shortest-path sampling.
//!
//! KADABRA's key per-sample operation (improvement (ii) in Section III-A of
//! the paper) is: draw a random vertex pair `(s, t)`, find the s-t distance
//! `L` with a *bidirectional* BFS, and sample **one shortest s-t path
//! uniformly at random** among all shortest s-t paths. Every interior vertex
//! of the sampled path receives one count.
//!
//! The implementation grows complete BFS levels alternately from both
//! endpoints, always on the side whose frontier has the smaller total degree
//! (fewer edges to scan), until the level about to be settled meets the
//! other side.
//!
//! Correctness of the stopping rule: let the side about to grow (the *near*
//! side) have completed radius `ds` and the other (*far*) side radius `dt`.
//! All vertices within distance `ds` of the near root (resp. `dt` of the far
//! root) are settled with exact distances and path counts σ, and no vertex
//! is settled by both sides — else the search would have stopped. So
//! `L ≥ ds + dt + 1`: a shorter path would have a vertex within `ds` of one
//! root and within `dt` of the other. A vertex at near distance `ds + 1` that
//! the far side settled at distance `k ≤ dt` closes a path of length
//! `ds + 1 + k`, hence `k = dt` and `L = ds + 1 + dt`. The meeting cut is
//! therefore exactly `C = {w ∈ L_dt(far) : N(w) ∩ L_ds(near) ≠ ∅}`, with
//! `σ_near(w) = Σ σ_near(u)` over those neighbours `u`, and it is a complete
//! s-t cut of the shortest-path DAG, giving `σ_st = Σ_{w ∈ C} σ_near(w)·σ_far(w)`.
//!
//! `C` can be found from either side: by expanding the near side's next
//! level, where a vertex whose slot the far side holds is a meet (both sides
//! share one state array, and the near side takes such a slot over until the
//! cut is complete), or — when the far frontier is much cheaper to read than
//! the near one — by testing each far-frontier vertex against the near
//! frontier, without settling the meeting level at all (DESIGN.md §11.6).
//! An expansion settles its level only up to the first meet. All the rest of
//! the level can add is more of `C`, or σ to it, so it tests each remaining
//! row entry against the far frontier's bits and touches only the hits'
//! slots; the meet test likewise tests row entries against the near
//! frontier's bits. The bits are set for one test and cleared after it.
//!
//! A uniform path is then drawn by picking a cut vertex with probability
//! proportional to `σ_near(v)·σ_far(v)` and walking back to each endpoint, at
//! each step choosing a predecessor `u` with probability `σ(u)/Σ σ`. Each
//! direction keeps the vertices it settled cut into BFS levels, so a step
//! finds its predecessors from whichever is shorter, the row or the level
//! below (DESIGN.md §11.6).
//!
//! Nothing above needs symmetric rows: a digraph runs the same kernel, the
//! search from `s` on its out-rows and the one from `t` on the transpose.

use crate::bfs::sigma_bfs;
use crate::csr::{Graph, NodeId};
use crate::scratch::{Relax, StampedBfsState, TraversalScratch, VertexBits, UNREACHED};
use crate::view::GraphView;
use rand::Rng;

/// Outcome of one bidirectional shortest-path sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSample {
    /// Shortest s-t distance in hops.
    pub distance: u32,
    /// Interior vertices of the sampled path (excludes both endpoints).
    /// Empty when `s` and `t` are adjacent.
    pub interior: Vec<NodeId>,
    /// Total number of distinct shortest s-t paths (saturating at `u128::MAX`).
    pub num_paths: u128,
}

/// Statistics of the bidirectional search, used by performance models.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Adjacency entries read by both searches: every row entry an
    /// expansion scans, plus the meet test's reads, a binary search of a
    /// row of `deg` entries counting ⌈log₂(deg + 1)⌉.
    pub edges_scanned: u64,
    /// Vertices settled by both searches. A level that meets is settled
    /// only up to its first meet; after that only the far-frontier vertices
    /// it reaches count, which are the cut (the module docs).
    pub vertices_settled: u64,
    /// Work of the walk-back: row entries probed plus level vertices tested
    /// for membership in a row. Not part of `edges_scanned`.
    pub walk_probes: u64,
}

/// Summary of a sampled path whose interior vertices were left in
/// `scratch.path` by [`sample_shortest_path_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleInfo {
    /// Shortest s-t distance in hops.
    pub distance: u32,
    /// Total number of distinct shortest s-t paths (saturating at `u128::MAX`).
    pub num_paths: u128,
}

/// How many adjacency entries ahead the scan prefetches the stamped state.
const STATE_PREFETCH_DIST: usize = 4;

/// Samples a uniformly random shortest `s`-`t` path.
///
/// Returns `None` if `t` is unreachable from `s`. `s == t` is rejected with a
/// panic because KADABRA never samples such pairs.
///
/// `scratch` must be sized for `g` ([`TraversalScratch::new`] with
/// `g.num_nodes()`); it is reset internally, so the same scratch can be
/// reused across samples without reallocation.
pub fn sample_shortest_path<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
) -> Option<PathSample> {
    sample_shortest_path_with_stats(g, s, t, scratch, rng).map(|(p, _)| p)
}

/// Like [`sample_shortest_path`] but also reports search statistics.
pub fn sample_shortest_path_with_stats<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
) -> Option<(PathSample, SearchStats)> {
    let mut stats = SearchStats::default();
    let info = sample_shortest_path_into(g, s, t, scratch, rng, &mut stats)?;
    let sample = PathSample {
        distance: info.distance,
        interior: scratch.path.clone(),
        num_paths: info.num_paths,
    };
    Some((sample, stats))
}

/// Allocation-free core of the sampler: identical semantics to
/// [`sample_shortest_path`], but the sampled interior is left in
/// `scratch.path` (cleared on `None`) instead of being cloned into a fresh
/// [`PathSample`], and search statistics are *accumulated* into `stats`.
///
/// Every buffer the search needs lives in `scratch`, allocated at its
/// one-entry-per-vertex bound by [`TraversalScratch::new`], so a call performs
/// no heap allocation at all — the property the allocation-regression test in
/// `kadabra-core` pins down.
#[inline]
pub fn sample_shortest_path_into<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
    stats: &mut SearchStats,
) -> Option<SampleInfo> {
    sample_along(g, g, s, t, scratch, rng, stats).map(|(info, _)| info)
}

/// How a sample's search found its meeting cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Meeting {
    /// The meet test from the far frontier found it: the meeting level was
    /// never expanded.
    FromFar,
    /// The expansion met before its level's last row entry, and the rest of
    /// the level was tested against the far frontier's bits.
    Finished,
    /// The expansion's first meet was its level's last row entry.
    AtLastEntry,
}

/// The kernel: the search from `s` expands along `fwd`'s rows, the one from
/// `t` along `bwd`'s, and they must be each other's transpose,
/// `u ∈ fwd(v) ⇔ v ∈ bwd(u)` — one symmetric view passed twice, or a
/// digraph's out-rows and in-rows. Each side expands, costs its levels and
/// prefetches through its own rows; the meet test reads the far side's, a
/// walk the other side's (DESIGN.md §11.6). Also reports how the search met.
pub(crate) fn sample_along<V: GraphView, R: Rng + ?Sized>(
    fwd: &V,
    bwd: &V,
    s: NodeId,
    t: NodeId,
    scratch: &mut TraversalScratch,
    rng: &mut R,
    stats: &mut SearchStats,
) -> Option<(SampleInfo, Meeting)> {
    assert!(s != t, "sampling requires distinct endpoints");
    assert!((s as usize) < fwd.num_nodes() && (t as usize) < fwd.num_nodes());
    let (s_tag, t_tag) = scratch.reset();
    let TraversalScratch {
        state,
        path,
        order_fwd,
        order_bwd,
        levels_fwd,
        levels_bwd,
        cut,
        frontier_bits: bits,
    } = scratch;
    let mut fwd = Side::start(fwd, state, s_tag, order_fwd, levels_fwd, s);
    let mut bwd = Side::start(bwd, state, t_tag, order_bwd, levels_bwd, t);
    stats.vertices_settled += 2;

    let (near, far, meeting) = loop {
        // Balanced expansion: grow the cheaper side.
        let (near, far) =
            if fwd.cost.degrees <= bwd.cost.degrees { (&mut fwd, &bwd) } else { (&mut bwd, &fwd) };

        // The meet test reads at most min(D_far, |L_near| · Σ⌈log₂(deg + 1)⌉)
        // entries, and the expansion D_near ≤ D_far: run the test when the
        // second term is under half of D_near. Either way the cut is the
        // same set.
        let searches = (near.frontier().len() as u64).saturating_mul(far.cost.searches);
        if searches.saturating_mul(2) < near.cost.degrees {
            stats.edges_scanned += meet_from_far(state, bits, near, far, cut);
            if !cut.is_empty() {
                break (near, far, Meeting::FromFar);
            }
        }
        if let Some(at) = near.expand(state, far, cut, stats) {
            let meeting = near.finish_meeting_level(state, bits, far, at, cut, stats);
            // The cut is complete: hand each cut vertex back to the far side
            // as the level found it, its entry taking σ_near.
            state.hand_back(cut, near.tag, far.tag, far.depth);
            break (near, far, meeting);
        }
        let level = near.level(near.depth + 1);
        if level.is_empty() {
            return None; // one component exhausted without meeting
        }
        // The next balance decision reads this level's cost; the meeting
        // level, usually the widest, never pays for one.
        near.cost = LevelCost::of(near.rows, level);
        near.depth += 1;
    };
    let (info, probes) = select_and_backtrack(state, cut, near, far, path, rng);
    stats.walk_probes += probes;
    Some((info, meeting))
}

/// What reading a level costs: its degree sum (scanning every row) and its
/// Σ ⌈log₂(deg + 1)⌉ (one binary search in every row).
#[derive(Clone, Copy)]
struct LevelCost {
    degrees: u64,
    searches: u64,
}

impl LevelCost {
    /// Both sums over `level`'s rows in `rows`, in one pass.
    fn of<V: GraphView>(rows: &V, level: &[NodeId]) -> LevelCost {
        level.iter().fold(LevelCost { degrees: 0, searches: 0 }, |c, &v| {
            let deg = rows.degree(v);
            LevelCost { degrees: c.degrees + deg as u64, searches: c.searches + search_cost(deg) }
        })
    }
}

/// ⌈log₂(deg + 1)⌉: the probes of one binary search in a row of `deg` entries.
fn search_cost(deg: usize) -> u64 {
    u64::from(usize::BITS - deg.leading_zeros())
}

/// One direction of the search.
struct Side<'a, V> {
    /// The rows this direction expands along.
    rows: &'a V,
    /// The stamp of this direction's records in the shared state.
    tag: u32,
    /// Settled vertices in settling order.
    order: &'a mut Vec<NodeId>,
    /// Level starts into `order`.
    levels: &'a mut Vec<u32>,
    /// The endpoint this direction grows from.
    root: NodeId,
    /// Completed radius: levels `0..=depth` are settled. A level that meets
    /// is never counted, so the meeting cut sits at `depth + 1`.
    depth: u32,
    /// Cost of reading the frontier, level `depth`.
    cost: LevelCost,
}

impl<'a, V: GraphView> Side<'a, V> {
    /// Settles `root` as level 0 of the direction `tag`, growing along `rows`.
    fn start(
        rows: &'a V,
        state: &mut StampedBfsState,
        tag: u32,
        order: &'a mut Vec<NodeId>,
        levels: &'a mut Vec<u32>,
        root: NodeId,
    ) -> Side<'a, V> {
        state.visit(root, tag, 0, 1);
        order.push(root);
        levels.push(0);
        Side { rows, tag, order, levels, root, depth: 0, cost: LevelCost::of(rows, &[root]) }
    }

    /// The vertices at distance `d` from the root, for a level that is
    /// complete or the last one started.
    fn level(&self, d: u32) -> &[NodeId] {
        let d = d as usize;
        let end = self.levels.get(d + 1).map_or(self.order.len(), |&e| e as usize);
        &self.order[self.levels[d] as usize..end]
    }

    /// The vertices at the completed radius.
    fn frontier(&self) -> &[NodeId] {
        self.level(self.depth)
    }

    /// Settles level `depth + 1` from the frontier, leaving `depth` alone,
    /// up to its first meet: a vertex whose slot `far` holds. The level
    /// takes that slot over, `cut` keeps the vertex with σ_far, for the
    /// caller to hand back once the cut is complete, and the return value is
    /// where the level stops: the position in `order` of the row that met
    /// and the entry after the meet, for [`Self::finish_meeting_level`].
    /// `None` is a level settled in full without a meet. After a meet test
    /// that found no cut, no slot of `far`'s can come up.
    fn expand(
        &mut self,
        state: &mut StampedBfsState,
        far: &Side<'_, V>,
        cut: &mut Vec<(NodeId, u64)>,
        stats: &mut SearchStats,
    ) -> Option<(usize, usize)> {
        let (rows, order, levels) = (self.rows, &mut *self.order, &mut *self.levels);
        let (tag, new_depth) = (self.tag, self.depth + 1);
        let (start, end) = (levels[levels.len() - 1] as usize, order.len());
        // `order` holds each vertex at most once and ids are u32: this fits.
        levels.push(end as u32);
        for i in start..end {
            let u = order[i];
            // Pull the next frontier vertex's adjacency row while scanning
            // this one's.
            if i + 1 < end {
                rows.prefetch_neighbors(order[i + 1]);
            }
            let su = state.sigma(u, tag);
            let adj = rows.neighbors(u);
            stats.edges_scanned += adj.len() as u64;
            for (j, &v) in adj.iter().enumerate() {
                // Pull the slots a few probes ahead: the v's are
                // data-dependent, so the hardware prefetcher cannot help.
                if let Some(&w) = adj.get(j + STATE_PREFETCH_DIST) {
                    state.prefetch(w);
                }
                match state.settle_or_merge(v, tag, far.tag, new_depth, su) {
                    Relax::Known => {}
                    Relax::Settled => {
                        stats.vertices_settled += 1;
                        order.push(v);
                    }
                    Relax::Met(k, far_sigma) => {
                        debug_assert_eq!(k, far.depth, "every meet is at the far radius");
                        cut.push((v, far_sigma));
                        stats.vertices_settled += 1;
                        order.push(v);
                        return Some((i, j + 1));
                    }
                }
            }
        }
        None
    }

    /// Finishes the level [`Self::expand`] met in, from entry `entry` of the
    /// row of `order[row]` on. What a sample reads of that level is its cut —
    /// the far-frontier vertices it reaches — and their σ_near, so each entry
    /// is tested against the far frontier's bits, and only a hit touches its
    /// slot: the first takes the far record over into `cut`, as in
    /// `expand`, later ones merge σ. Every other vertex of the level stays
    /// unsettled. Reads the same row entries, in the same order, as settling
    /// the level in full, so `cut` ends up the same list with the same σ.
    ///
    /// Runs once per sample, so a call costs nothing; inlined into
    /// `sample_along`, it slowed the road grid's samples, whose time is in
    /// `expand`, by ≈ 9 % in a kernel probe (DESIGN.md §11.6).
    #[inline(never)]
    fn finish_meeting_level(
        &mut self,
        state: &mut StampedBfsState,
        bits: &mut VertexBits,
        far: &Side<'_, V>,
        (row, entry): (usize, usize),
        cut: &mut Vec<(NodeId, u64)>,
        stats: &mut SearchStats,
    ) -> Meeting {
        let (rows, tag, new_depth) = (self.rows, self.tag, self.depth + 1);
        let end = self.levels[new_depth as usize] as usize;
        if row + 1 == end && entry == rows.degree(self.order[row]) {
            return Meeting::AtLastEntry;
        }
        let targets = far.frontier();
        bits.insert_all(targets);
        for i in row..end {
            let u = self.order[i];
            if i + 1 < end {
                rows.prefetch_neighbors(self.order[i + 1]);
            }
            let adj = rows.neighbors(u);
            // `expand` counted the row that met when it began it.
            let rest = if i == row {
                &adj[entry..]
            } else {
                stats.edges_scanned += adj.len() as u64;
                adj
            };
            for &v in rest {
                if !bits.contains(v) {
                    continue;
                }
                let su = state.sigma(u, tag);
                match state.settle_or_merge(v, tag, far.tag, new_depth, su) {
                    Relax::Met(k, far_sigma) => {
                        debug_assert_eq!(k, far.depth, "every meet is at the far radius");
                        cut.push((v, far_sigma));
                        stats.vertices_settled += 1;
                        self.order.push(v);
                    }
                    // A cut vertex met before: σ merged into the level's record.
                    relax => debug_assert_eq!(relax, Relax::Known),
                }
            }
        }
        bits.clear_all(targets);
        Meeting::Finished
    }
}

/// The meet test from the far frontier: fills `cut` with every far-frontier
/// vertex `w` adjacent to the near frontier, each with σ_near(w), the
/// saturating sum of σ over those neighbours — the vertices, and the σ, that
/// expanding `near` would settle on the far side (a saturating sum of
/// non-negative terms does not depend on their order). `row(w)` is `w`'s
/// row in the far side's rows: the vertices the near side steps to `w` from.
/// For each `w` it either tests every entry of `row(w)` against the near
/// frontier's bits or binary-searches each near-frontier vertex in
/// `row(w)`, whichever reads less, as the walk-back does; either way it
/// reads σ only at a hit. Returns the entries read, a binary search counting
/// ⌈log₂(deg + 1)⌉.
fn meet_from_far<V: GraphView>(
    state: &StampedBfsState,
    bits: &mut VertexBits,
    near: &Side<'_, V>,
    far: &Side<'_, V>,
    cut: &mut Vec<(NodeId, u64)>,
) -> u64 {
    let (level, tag) = (near.frontier(), near.tag);
    let targets = far.frontier();
    bits.insert_all(level);
    let mut reads = 0u64;
    for (i, &w) in targets.iter().enumerate() {
        if let Some(&next) = targets.get(i + 1) {
            far.rows.prefetch_neighbors(next);
        }
        let adj = far.rows.neighbors(w);
        let search = search_cost(adj.len());
        let mut sigma = 0u64;
        if (level.len() as u64) * search < adj.len() as u64 {
            reads += level.len() as u64 * search;
            for &u in level {
                if adj.binary_search(&u).is_ok() {
                    sigma = sigma.saturating_add(state.sigma(u, tag));
                }
            }
        } else {
            reads += adj.len() as u64;
            // A near-side neighbour below the frontier would have settled
            // `w` on the near side too: the frontier holds every one.
            for &u in adj {
                if bits.contains(u) {
                    sigma = sigma.saturating_add(state.sigma(u, tag));
                }
            }
        }
        // σ of a settled vertex is at least 1: a zero sum is no neighbour.
        if sigma > 0 {
            cut.push((w, sigma));
        }
    }
    bits.clear_all(level);
    reads
}

/// Tail of a sample: draws one cut vertex ∝ σ_near·σ_far and walks back to
/// both roots, leaving the interior in `path`; returns the sample and the
/// walks' probes. `cut` holds each cut vertex with σ_near, and `state` its
/// far record; the cut sits at distance `near.depth + 1` from the near root
/// and `far.depth` from the far one.
///
/// The cut is first sorted by vertex id. The level sets of a BFS are
/// order-independent, but the order in which a cut is found is not, so the
/// cut is put into a canonical order before any RNG is consumed. Selection
/// then depends only on the level sets and the RNG stream, never on
/// traversal schedule, nor on which side found the cut.
fn select_and_backtrack<V: GraphView, R: Rng + ?Sized>(
    state: &StampedBfsState,
    cut: &mut Vec<(NodeId, u64)>,
    near: &Side<'_, V>,
    far: &Side<'_, V>,
    path: &mut Vec<NodeId>,
    rng: &mut R,
) -> (SampleInfo, u64) {
    // Canonical cut order (each vertex enters the cut at most once, so ids
    // are distinct and the sort is a total order).
    cut.sort_unstable_by_key(|&(v, _)| v);

    // Sample a cut vertex proportionally to σ_near · σ_far.
    let weight = |v: NodeId, sn: u64| (sn as u128).saturating_mul(state.sigma(v, far.tag) as u128);
    let num_paths = cut.iter().fold(0u128, |sum, &(v, sn)| sum.saturating_add(weight(v, sn)));
    debug_assert!(num_paths > 0);
    let mut pick = rng.gen_range(0..num_paths);
    let mut chosen = cut[0].0;
    for &(v, sn) in cut.iter() {
        let w = weight(v, sn);
        if pick < w {
            chosen = v;
            break;
        }
        pick -= w;
    }

    // Walk back towards both endpoints, σ-proportionally. The cut buffer is
    // dead once a vertex is drawn, so the walks reuse it as predecessor
    // scratch — no extra allocation, no extra plumbing.
    path.clear();
    let probes = backtrack(state, near, far.rows, chosen, near.depth + 1, path, cut, rng);
    if chosen != far.root {
        path.push(chosen);
    }
    let probes = probes + backtrack(state, far, near.rows, chosen, far.depth, path, cut, rng);
    let distance = near.depth + 1 + far.depth;
    debug_assert_eq!(
        // xtask: allow(determinism) — a shortest path visits each vertex at
        // most once, so its length fits the u32 the CSR layout guarantees
        // for vertex counts.
        path.len() as u32 + 1,
        distance,
        "interior vertex count must be distance - 1"
    );
    (SampleInfo { distance, num_paths }, probes)
}

/// Sliding prefetch distance for the backtrack predecessor scan: the
/// neighbor records are data-dependent random probes, so pull them toward
/// cache a few entries ahead.
const BACKTRACK_PREFETCH_DIST: usize = 6;

/// Walks from `from` (exclusive), at distance `d` from `side.root`, towards
/// the root (exclusive), pushing interior vertices onto `out`. At a vertex
/// of distance `d` the predecessor `u` (distance `d - 1`) is chosen with
/// probability `σ(u) / Σ σ`, which makes the complete walk a uniform draw
/// among the σ(from) shortest root→from paths. The distance is passed in
/// because the near side's cut vertex holds no near record: the meet test
/// never settled it, or the expansion handed it back to the far side.
///
/// The predecessors of `cur` are the vertices of level `d - 1` in
/// `row(cur)`, its row in `rows`, the transpose of `side`'s rows. Each step
/// finds them from whichever side is cheaper: scanning the row and probing
/// every entry's record, or, when the level is short against a long row (a
/// hub reached from a low-degree root), testing each level vertex for
/// membership in the row by binary search and sorting the hits by id. Rows are strictly increasing, so id order is row order:
/// either way `preds` (caller scratch, clobbered) ends up as the same list,
/// the draw is made from it with the same `total`, and the drawn
/// predecessor — and the RNG stream — do not depend on the branch.
///
/// Returns the probes made: row entries read plus level vertices tested.
#[expect(
    clippy::too_many_arguments,
    reason = "hot per-hop kernel: its scratch and RNG are the caller's"
)]
fn backtrack<V: GraphView, R: Rng + ?Sized>(
    state: &StampedBfsState,
    side: &Side<'_, V>,
    rows: &V,
    from: NodeId,
    mut d: u32,
    out: &mut Vec<NodeId>,
    preds: &mut Vec<(NodeId, u64)>,
    rng: &mut R,
) -> u64 {
    let tag = side.tag;
    let mut probes = 0u64;
    let mut cur = from;
    while d > 1 {
        let adj = rows.neighbors(cur);
        let level = side.level(d - 1);
        preds.clear();
        let search = search_cost(adj.len()) as usize;
        if level.len() * search < adj.len() {
            probes += level.len() as u64;
            for &u in level {
                if adj.binary_search(&u).is_ok() {
                    preds.push((u, state.sigma(u, tag)));
                }
            }
            preds.sort_unstable_by_key(|&(u, _)| u);
        } else {
            probes += adj.len() as u64;
            for &u in adj.iter().take(BACKTRACK_PREFETCH_DIST) {
                state.prefetch(u);
            }
            for (j, &u) in adj.iter().enumerate() {
                if let Some(&nu) = adj.get(j + BACKTRACK_PREFETCH_DIST) {
                    state.prefetch(nu);
                }
                if let Some((du, su)) = state.record(u, tag) {
                    if du == d - 1 {
                        preds.push((u, su));
                    }
                }
            }
        }
        // Σσ over the predecessors is σ(cur), recomputed in case σ saturated.
        // It wraps, as release builds always did: on inputs where σ passes
        // u64::MAX (long grid paths) the draw is the one release makes, not
        // a debug-build overflow panic.
        let total = preds.iter().fold(0u64, |sum, &(_, su)| sum.wrapping_add(su));
        debug_assert!(total > 0);
        let mut pick = rng.gen_range(0..total);
        let mut nxt = cur;
        for &(u, su) in preds.iter() {
            if pick < su {
                nxt = u;
                break;
            }
            pick -= su;
        }
        debug_assert_ne!(nxt, cur);
        rows.prefetch_neighbors(nxt);
        out.push(nxt);
        cur = nxt;
        d -= 1;
    }
    debug_assert!(d == 0 || rows.has_edge(cur, side.root) || cur == side.root);
    probes
}

/// Exhaustively enumerates **all** shortest `s`-`t` paths. Exponential in the
/// worst case — intended as a test oracle on small graphs only.
///
/// Each returned path lists interior vertices in s→t order.
pub fn enumerate_shortest_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    assert!(s != t);
    enumerate_back(g, &sigma_bfs(g, s).dist, s, t)
}

/// Every shortest `s`-`t` path by DFS backwards from `t` over the
/// shortest-path DAG: the predecessors of `v` are the vertices of `preds`'
/// row of `v` one level closer to `s` by `dist`, the distances from `s`.
pub(crate) fn enumerate_back<V: GraphView>(
    preds: &V,
    dist: &[u32],
    s: NodeId,
    t: NodeId,
) -> Vec<Vec<NodeId>> {
    fn rec<V: GraphView>(
        preds: &V,
        dist: &[u32],
        s: NodeId,
        stack: &mut Vec<NodeId>,
        paths: &mut Vec<Vec<NodeId>>,
    ) {
        let cur = stack[stack.len() - 1];
        if cur == s {
            // stack holds t..=s reversed; interior = everything but ends.
            paths.push(stack[1..stack.len() - 1].iter().rev().copied().collect());
            return;
        }
        for &u in preds.neighbors(cur) {
            if dist[u as usize] != UNREACHED && dist[u as usize] + 1 == dist[cur as usize] {
                stack.push(u);
                rec(preds, dist, s, stack, paths);
                stack.pop();
            }
        }
    }
    let mut paths = Vec::new();
    if dist[t as usize] != UNREACHED {
        rec(preds, dist, s, &mut vec![t], &mut paths);
    }
    paths
}

/// The kernel as PR 24 left it — frontier swap, a degree sum per settled
/// vertex, a walk-back that scans the whole row of every vertex it passes —
/// kept as the differential oracle of the current one: same samples, same
/// counters, same RNG consumption (`tests::oracle`). Its walk counts the
/// row entries it reads into `walk_probes`, the most the current walk may
/// probe.
#[cfg(test)]
mod reference {
    use super::*;

    /// One direction's records: its state of its own and its tag there.
    type Tree<'a> = (&'a StampedBfsState, u32);

    /// The buffers of PR 24's `TraversalScratch`.
    pub(super) struct Scratch {
        fwd: StampedBfsState,
        bwd: StampedBfsState,
        /// The tag pair of each state's last reset. A direction with a state
        /// of its own writes only the first tag, so relaxing against the
        /// second never meets.
        tags: [(u32, u32); 2],
        /// Whether the last sample that met expanded the forward side.
        pub(super) met_fwd: bool,
        pub(super) path: Vec<NodeId>,
        frontier_fwd: Vec<NodeId>,
        frontier_bwd: Vec<NodeId>,
        next_frontier: Vec<NodeId>,
        meets: Vec<(NodeId, u32)>,
        cut: Vec<(NodeId, u128)>,
    }

    impl Scratch {
        pub(super) fn new(n: usize) -> Self {
            Scratch {
                fwd: StampedBfsState::new(n),
                bwd: StampedBfsState::new(n),
                tags: [(0, 0); 2],
                met_fwd: false,
                path: Vec::new(),
                frontier_fwd: Vec::new(),
                frontier_bwd: Vec::new(),
                next_frontier: Vec::new(),
                meets: Vec::new(),
                cut: Vec::new(),
            }
        }

        /// The far side's record of `v` after the last sample that met.
        pub(super) fn far_record(&self, v: NodeId) -> Option<(u32, u64)> {
            if self.met_fwd {
                self.bwd.record(v, self.tags[1].0)
            } else {
                self.fwd.record(v, self.tags[0].0)
            }
        }
    }

    pub(super) fn sample_shortest_path_into<G: GraphView, R: Rng + ?Sized>(
        g: &G,
        s: NodeId,
        t: NodeId,
        scratch: &mut Scratch,
        rng: &mut R,
        stats: &mut SearchStats,
    ) -> Option<SampleInfo> {
        assert!(s != t, "sampling requires distinct endpoints");
        scratch.tags = [scratch.fwd.reset(), scratch.bwd.reset()];
        let Scratch {
            fwd,
            bwd,
            tags,
            met_fwd,
            path,
            frontier_fwd,
            frontier_bwd,
            next_frontier,
            meets,
            cut,
        } = scratch;
        let (tf, tb) = (tags[0].0, tags[1].0);
        path.clear();
        frontier_fwd.clear();
        frontier_bwd.clear();
        meets.clear();
        cut.clear();

        frontier_fwd.push(s);
        frontier_bwd.push(t);
        fwd.visit(s, tf, 0, 1);
        bwd.visit(t, tb, 0, 1);
        stats.vertices_settled += 2;
        let mut ds = 0u32;
        let mut dt = 0u32;
        let mut deg_s: u64 = g.degree(s) as u64;
        let mut deg_t: u64 = g.degree(t) as u64;

        loop {
            if frontier_fwd.is_empty() || frontier_bwd.is_empty() {
                return None;
            }
            let expand_fwd = deg_s <= deg_t;
            let (state, other, frontier, depth, (tag, alone), other_tag): (
                &mut StampedBfsState,
                &mut StampedBfsState,
                &mut Vec<NodeId>,
                &mut u32,
                (u32, u32),
                u32,
            ) = if expand_fwd {
                (&mut *fwd, &mut *bwd, &mut *frontier_fwd, &mut ds, tags[0], tb)
            } else {
                (&mut *bwd, &mut *fwd, &mut *frontier_bwd, &mut dt, tags[1], tf)
            };

            let new_depth = *depth + 1;
            next_frontier.clear();
            let mut next_deg: u64 = 0;
            for &u in frontier.iter() {
                let su = state.sigma(u, tag);
                for &v in g.neighbors(u) {
                    stats.edges_scanned += 1;
                    if state.settle_or_merge(v, tag, alone, new_depth, su) == Relax::Settled {
                        stats.vertices_settled += 1;
                        next_frontier.push(v);
                        next_deg += g.degree(v) as u64;
                        if let Some((k, _)) = other.record(v, other_tag) {
                            meets.push((v, k));
                        }
                    }
                }
            }
            *depth = new_depth;
            std::mem::swap(frontier, next_frontier);
            if expand_fwd {
                deg_s = next_deg;
            } else {
                deg_t = next_deg;
            }
            if !meets.is_empty() {
                *met_fwd = expand_fwd;
                let k0 = meets.iter().map(|&(_, k)| k).min().unwrap();
                let distance = new_depth + k0;
                let (near, far): (Tree<'_>, Tree<'_>) = if expand_fwd {
                    ((&*fwd, tf), (&*bwd, tb))
                } else {
                    ((&*bwd, tb), (&*fwd, tf))
                };
                let mut num_paths: u128 = 0;
                for &(v, k) in meets.iter() {
                    if k == k0 {
                        let w = (near.0.sigma(v, near.1) as u128)
                            .saturating_mul(far.0.sigma(v, far.1) as u128);
                        num_paths = num_paths.saturating_add(w);
                        cut.push((v, w));
                    }
                }
                let (near_root, far_root) = if expand_fwd { (s, t) } else { (t, s) };
                stats.walk_probes += select_and_backtrack(
                    g, cut, num_paths, near, near_root, far, far_root, path, rng,
                );
                return Some(SampleInfo { distance, num_paths });
            }
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the reference kernel keeps its original signature"
    )]
    fn select_and_backtrack<G: GraphView, R: Rng + ?Sized>(
        g: &G,
        cut: &mut Vec<(NodeId, u128)>,
        num_paths: u128,
        near: Tree<'_>,
        near_root: NodeId,
        far: Tree<'_>,
        far_root: NodeId,
        path: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> u64 {
        cut.sort_unstable_by_key(|&(v, _)| v);
        let mut pick = rng.gen_range(0..num_paths);
        let mut chosen = cut[0].0;
        for &(v, w) in cut.iter() {
            if pick < w {
                chosen = v;
                break;
            }
            pick -= w;
        }
        path.clear();
        let probes = backtrack(g, near, chosen, near_root, path, cut, rng);
        if chosen != far_root {
            path.push(chosen);
        }
        probes + backtrack(g, far, chosen, far_root, path, cut, rng)
    }

    fn backtrack<G: GraphView, R: Rng + ?Sized>(
        g: &G,
        (state, tag): Tree<'_>,
        from: NodeId,
        _root: NodeId,
        out: &mut Vec<NodeId>,
        preds: &mut Vec<(NodeId, u128)>,
        rng: &mut R,
    ) -> u64 {
        let mut probes = 0;
        let mut cur = from;
        let mut d = state.record(cur, tag).map_or(0, |(d, _)| d);
        while d > 1 {
            preds.clear();
            let mut total: u64 = 0;
            probes += g.degree(cur) as u64;
            for &u in g.neighbors(cur) {
                if let Some((du, su)) = state.record(u, tag) {
                    if du == d - 1 {
                        total += su;
                        preds.push((u, su as u128));
                    }
                }
            }
            let mut pick = rng.gen_range(0..total);
            let mut nxt = cur;
            for &(u, su) in preds.iter() {
                let su = su as u64;
                if pick < su {
                    nxt = u;
                    break;
                }
                pick -= su;
            }
            out.push(nxt);
            cur = nxt;
            d -= 1;
        }
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scratch_for(g: &Graph) -> TraversalScratch {
        TraversalScratch::new(g.num_nodes())
    }

    /// The differential oracle: on random pairs of random graphs — G(n, m),
    /// small R-MAT, grids with diagonals, disjoint unions, stars of stars
    /// whose centre has a degree far above the level it is walked to, and
    /// two fans whose hubs meet the far side through long and short rows —
    /// the kernel and [`reference`] return the same sample and leave the RNG
    /// at the same position. The kernel settles no more vertices than the
    /// reference, reads less than 1.5× its adjacency entries (a meet test
    /// reads under half of the expansion it precedes), its walk probes no
    /// more than the row-scanning one, and after a sample that meets, the far
    /// side's records are the reference's bit for bit (the take-over rule
    /// hands every cut vertex back).
    mod oracle {
        use super::*;
        use crate::digraph::DiGraph;
        use crate::generators::{gnm, grid, rmat, GnmConfig, GridConfig, RmatConfig};
        use proptest::prelude::*;

        /// A centre joined to `hubs` hubs, hub `i` carrying `leaves[i]`
        /// leaves, plus `extra` random edges: a walk from the centre towards
        /// a leaf's hub looks for a one-vertex level in a long row.
        fn star_of_stars(leaves: &[usize], extra: usize, seed: u64) -> Graph {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = Vec::new();
            let mut next = 1 + leaves.len() as NodeId;
            for (i, &l) in leaves.iter().enumerate() {
                let hub = 1 + i as NodeId;
                edges.push((0, hub));
                for _ in 0..l {
                    edges.push((hub, next));
                    next += 1;
                }
            }
            let n = next as usize;
            for _ in 0..extra {
                edges.push((rng.gen_range(0..next), rng.gen_range(0..next)));
            }
            graph_from_edges(n, &edges)
        }

        /// Two fans meeting in the middle. `s = 0` is joined to `k` vertices;
        /// each of `j` hubs is joined to a random non-empty subset of them
        /// and carries `leaves` leaves. `t = 1` is joined to `r` vertices,
        /// the first carrying `4 · leaves` leaves, each joined to a random
        /// non-empty subset of the hubs. From `s` to `t` the near frontier
        /// is the hubs, σ above 1, and the far frontier one long row and
        /// some short ones: the meet test fires, in both of its branches.
        fn fans(k: usize, j: usize, r: usize, leaves: usize, seed: u64) -> Graph {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = Vec::new();
            let subset = |rng: &mut StdRng, from: std::ops::Range<NodeId>| {
                let first = rng.gen_range(from.clone());
                let mut picked: Vec<NodeId> = from.filter(|_| rng.gen_bool(0.5)).collect();
                picked.push(first);
                picked
            };
            let mids = 2..2 + k as NodeId;
            let hubs = mids.end..mids.end + j as NodeId;
            let rims = hubs.end..hubs.end + r as NodeId;
            let mut next = rims.end;
            edges.extend(mids.clone().map(|a| (0, a)));
            for h in hubs.clone() {
                edges.extend(subset(&mut rng, mids.clone()).into_iter().map(|a| (a, h)));
            }
            for c in rims.clone() {
                edges.push((1, c));
                edges.extend(subset(&mut rng, hubs.clone()).into_iter().map(|h| (h, c)));
            }
            let mut hang = |v: NodeId, count: usize| {
                for _ in 0..count {
                    edges.push((v, next));
                    next += 1;
                }
            };
            hubs.for_each(|h| hang(h, leaves));
            hang(rims.start, 4 * leaves);
            graph_from_edges(next as usize, &edges)
        }

        /// `a` and `b` side by side, no edge between them.
        fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
            let shift = a.num_nodes() as NodeId;
            let edges: Vec<_> =
                a.edges().chain(b.edges().map(|(u, v)| (u + shift, v + shift))).collect();
            graph_from_edges(a.num_nodes() + b.num_nodes(), &edges)
        }

        /// The graph of family `family % 6` drawn with size knobs `a`, `b`
        /// (both in `0..64`) and `seed`.
        pub(super) fn draw_graph(family: u8, a: usize, b: usize, seed: u64) -> Graph {
            match family % 6 {
                0 => gnm(GnmConfig { n: 4 + a, m: (4 + a) * (b % 5) / 2, seed }),
                1 => rmat(RmatConfig::graph500(4 + a as u32 % 5, 1 + b as u32 % 8, seed)),
                2 => grid(GridConfig {
                    rows: 1 + a % 14,
                    cols: 2 + b % 14,
                    diagonal_prob: (seed % 7) as f64 / 10.0,
                    seed,
                }),
                3 => disjoint_union(
                    &gnm(GnmConfig { n: 4 + a % 30, m: 4 + a % 30, seed }),
                    &gnm(GnmConfig { n: 4 + b % 30, m: 2 * (4 + b % 30), seed: seed ^ 1 }),
                ),
                4 => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let leaves: Vec<usize> =
                        (0..2 + a % 10).map(|_| rng.gen_range(0..1 + b % 40)).collect();
                    star_of_stars(&leaves, b % 6, seed)
                }
                _ => fans(1 + a % 4, 1 + b % 3, 1 + a / 16, 8 + b, seed),
            }
        }

        /// How [`agree_on`]'s samples compared with [`reference`]'s.
        #[derive(Default)]
        pub(super) struct Branches {
            /// Samples whose walk probed less: a level step was taken.
            pub(super) shorter: u64,
            /// Samples that walked and probed exactly as much: every step
            /// scanned its row (a level step probes strictly less, since it
            /// fires only on `|level| · ⌈log₂(deg + 1)⌉ < deg`).
            pub(super) rows_only: u64,
            /// Samples whose cut the meet test found: the meeting level was
            /// not expanded.
            pub(super) met_from_far: u64,
            /// Samples whose expansion met before its level's last entry and
            /// finished the level against the far frontier's bits.
            pub(super) finished: u64,
            /// Samples whose expansion first met at its level's last entry.
            pub(super) at_last_entry: u64,
        }

        /// Runs the pair (0, 1) and `pairs - 1` random pairs of `g` through
        /// both kernels from one RNG seed and asserts they agree on everything
        /// observable.
        pub(super) fn agree_on(g: &Graph, pairs: usize, seed: u64) -> Branches {
            let mut seen = Branches::default();
            let n = g.num_nodes();
            let (mut sc, mut rsc) = (TraversalScratch::new(n), reference::Scratch::new(n));
            let (mut rng, mut rrng) =
                (StdRng::seed_from_u64(seed ^ 7), StdRng::seed_from_u64(seed ^ 7));
            for (s, t) in draw_pairs(n, pairs, seed) {
                let (mut st, mut rst) = (SearchStats::default(), SearchStats::default());
                let met = sample_along(g, g, s, t, &mut sc, &mut rng, &mut st);
                let got = met.map(|(info, _)| info);
                let want =
                    reference::sample_shortest_path_into(g, s, t, &mut rsc, &mut rrng, &mut rst);
                prop_assert_eq!(got, want, "s={} t={}", s, t);
                prop_assert_eq!(&sc.path, &rsc.path, "interior, s={} t={}", s, t);
                prop_assert!(st.vertices_settled <= rst.vertices_settled, "s={} t={}", s, t);
                prop_assert!(2 * st.edges_scanned <= 3 * rst.edges_scanned, "s={} t={}", s, t);
                prop_assert_eq!(
                    rng.clone().gen::<u64>(),
                    rrng.clone().gen::<u64>(),
                    "RNG position, s={} t={}",
                    s,
                    t
                );
                prop_assert!(st.walk_probes <= rst.walk_probes, "s={} t={}", s, t);
                if got.is_some() {
                    // The far side's records, in the array both sides share,
                    // are bit-equal to the reference's array of their own:
                    // every cut vertex a meeting level took over was handed
                    // back. A reset hands out (s, t) tags as consecutive
                    // rounds, and no u32 round wraps here.
                    let t_tag = sc.state.round();
                    let far_tag = if rsc.met_fwd { t_tag } else { t_tag - 1 };
                    for v in 0..n as NodeId {
                        prop_assert_eq!(
                            sc.state.record(v, far_tag),
                            rsc.far_record(v),
                            "far record of {}, s={} t={}",
                            v,
                            s,
                            t
                        );
                    }
                }
                seen.shorter += u64::from(st.walk_probes < rst.walk_probes);
                seen.rows_only +=
                    u64::from(st.walk_probes == rst.walk_probes && st.walk_probes > 0);
                match met.map(|(_, meeting)| meeting) {
                    Some(Meeting::FromFar) => seen.met_from_far += 1,
                    Some(Meeting::Finished) => seen.finished += 1,
                    Some(Meeting::AtLastEntry) => seen.at_last_entry += 1,
                    None => {}
                }
            }
            seen
        }

        /// The pair (0, 1) and `pairs - 1` random pairs of `0..n` drawn from
        /// `seed`, those with `s == t` left out.
        fn draw_pairs(n: usize, pairs: usize, seed: u64) -> impl Iterator<Item = (NodeId, NodeId)> {
            let mut pick = StdRng::seed_from_u64(seed);
            (0..pairs)
                .map(move |i| match i {
                    0 => (0, 1),
                    _ => (pick.gen_range(0..n as NodeId), pick.gen_range(0..n as NodeId)),
                })
                .filter(|&(s, t)| s != t)
        }

        /// [`agree_on`] over the graph families at 40 seeds each.
        fn branches_taken() -> Branches {
            let mut seen = Branches::default();
            for family in 0..6 {
                for seed in 0..40u64 {
                    let (a, b) = ((seed * 13 % 64) as usize, (seed * 29 % 64) as usize);
                    let w = agree_on(&draw_graph(family, a, b, seed), 24, seed);
                    seen.shorter += w.shorter;
                    seen.rows_only += w.rows_only;
                    seen.met_from_far += w.met_from_far;
                    seen.finished += w.finished;
                    seen.at_last_entry += w.at_last_entry;
                }
            }
            seen
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            #[test]
            fn kernel_matches_the_reference(
                (family, a, b) in (0u8..6, 0usize..64, 0usize..64),
                seed in any::<u64>(),
            ) {
                agree_on(&draw_graph(family, a, b, seed), 24, seed);
            }

            /// A digraph holding both orientations of every edge of `g`
            /// samples exactly as `g` does: its out-rows and in-rows are both
            /// `g`'s rows, so the kernel reads what it reads on `g`, and
            /// returns the same sample, interior, counters and RNG position.
            #[test]
            fn symmetric_digraph_samples_as_its_graph(
                (family, a, b) in (0u8..6, 0usize..64, 0usize..64),
                seed in any::<u64>(),
            ) {
                let g = draw_graph(family, a, b, seed);
                let arcs: Vec<_> = g.edges().flat_map(|(u, v)| [(u, v), (v, u)]).collect();
                let dg = DiGraph::from_arcs(g.num_nodes(), &arcs);
                let n = g.num_nodes();
                let (mut sc, mut dsc) = (TraversalScratch::new(n), TraversalScratch::new(n));
                let (mut rng, mut drng) =
                    (StdRng::seed_from_u64(seed ^ 7), StdRng::seed_from_u64(seed ^ 7));
                for (s, t) in draw_pairs(n, 24, seed) {
                    let (mut st, mut dst) = (SearchStats::default(), SearchStats::default());
                    let want = sample_shortest_path_into(&g, s, t, &mut sc, &mut rng, &mut st);
                    let got = dg.sample_into(s, t, &mut dsc, &mut drng, &mut dst);
                    prop_assert_eq!(got, want, "s={} t={}", s, t);
                    prop_assert_eq!(&dsc.path, &sc.path, "interior, s={} t={}", s, t);
                    prop_assert_eq!(
                        (dst.edges_scanned, dst.vertices_settled, dst.walk_probes),
                        (st.edges_scanned, st.vertices_settled, st.walk_probes),
                        "counters, s={} t={}",
                        s,
                        t
                    );
                    prop_assert_eq!(
                        drng.clone().gen::<u64>(),
                        rng.clone().gen::<u64>(),
                        "RNG position, s={} t={}",
                        s,
                        t
                    );
                }
            }
        }

        /// The inputs above drive both walk branches: some samples take a
        /// level step, some walk through rows only.
        #[test]
        fn both_walk_branches_are_taken() {
            let seen = branches_taken();
            assert!(seen.shorter > 0, "no sample took the level branch");
            assert!(seen.rows_only > 0, "no sample walked through rows only");
        }

        /// The inputs above drive every way of meeting, as the kernel
        /// reports it: some samples find the cut from the far frontier, some
        /// finish a level that met against the far frontier's bits, and
        /// some first meet at their level's last entry.
        #[test]
        fn every_meeting_path_is_taken() {
            let seen = branches_taken();
            assert!(seen.met_from_far > 0, "no sample found its cut from the far frontier");
            assert!(seen.finished > 0, "no sample finished a level against the bits");
            assert!(seen.at_last_entry > 0, "no sample first met at its level's last entry");
        }

        /// Every sample leaves the frontier bits clear, so the set costs
        /// nothing between samples: after each way of meeting, after a pair
        /// in two components, and after samples of a digraph whose in-rows
        /// differ from its out-rows.
        #[test]
        fn frontier_bits_are_left_clear() {
            let (mut met, mut unmet, mut directed) = ([0u64; 3], 0u64, 0u64);
            for family in 0..6 {
                for seed in 0..20u64 {
                    let (a, b) = ((seed * 13 % 64) as usize, (seed * 29 % 64) as usize);
                    let g = draw_graph(family, a, b, seed);
                    // Every edge one way, and every other one both ways.
                    let arcs: Vec<_> = g
                        .edges()
                        .flat_map(|(u, v)| [(u, v), if (u ^ v) & 1 == 0 { (v, u) } else { (u, v) }])
                        .collect();
                    let dg = DiGraph::from_arcs(g.num_nodes(), &arcs);
                    let mut sc = TraversalScratch::new(g.num_nodes());
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut st = SearchStats::default();
                    for (s, t) in draw_pairs(g.num_nodes(), 24, seed) {
                        match sample_along(&g, &g, s, t, &mut sc, &mut rng, &mut st) {
                            Some((_, Meeting::FromFar)) => met[0] += 1,
                            Some((_, Meeting::Finished)) => met[1] += 1,
                            Some((_, Meeting::AtLastEntry)) => met[2] += 1,
                            None => unmet += 1,
                        }
                        assert!(sc.frontier_bits.is_clear(), "graph, s={s} t={t}");
                        directed +=
                            u64::from(dg.sample_into(s, t, &mut sc, &mut rng, &mut st).is_some());
                        assert!(sc.frontier_bits.is_clear(), "digraph, s={s} t={t}");
                    }
                }
            }
            assert!(met.iter().all(|&m| m > 0), "a way of meeting was not taken: {met:?}");
            assert!(unmet > 0, "no pair was disconnected");
            assert!(directed > 0, "no digraph sample met");
        }
    }

    #[test]
    fn adjacent_pair_has_empty_interior() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let p = sample_shortest_path(&g, 0, 1, &mut sc, &mut rng).unwrap();
        assert_eq!(p.distance, 1);
        assert!(p.interior.is_empty());
        assert_eq!(p.num_paths, 1);
    }

    #[test]
    fn path_graph_interior_is_whole_middle() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let p = sample_shortest_path(&g, 0, 4, &mut sc, &mut rng).unwrap();
        assert_eq!(p.distance, 4);
        assert_eq!(p.num_paths, 1);
        let mut interior = p.interior.clone();
        interior.sort_unstable();
        assert_eq!(interior, vec![1, 2, 3]);
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_shortest_path(&g, 0, 3, &mut sc, &mut rng).is_none());
    }

    #[test]
    fn four_cycle_counts_two_paths() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let p = sample_shortest_path(&g, 0, 2, &mut sc, &mut rng).unwrap();
        assert_eq!(p.distance, 2);
        assert_eq!(p.num_paths, 2);
        assert_eq!(p.interior.len(), 1);
        assert!(p.interior[0] == 1 || p.interior[0] == 3);
    }

    #[test]
    fn distance_matches_unidirectional_bfs_on_random_graphs() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..30 {
            let n = 20 + trial % 10;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(0.12) {
                        edges.push((u, v));
                    }
                }
            }
            let g = graph_from_edges(n, &edges);
            let mut sc = scratch_for(&g);
            for _ in 0..20 {
                let s = rng.gen_range(0..n as NodeId);
                let t = rng.gen_range(0..n as NodeId);
                if s == t {
                    continue;
                }
                let expect = crate::bfs::hop_distance(&g, s, t);
                let got = sample_shortest_path(&g, s, t, &mut sc, &mut rng);
                match (expect, &got) {
                    (None, None) => {}
                    (Some(d), Some(p)) => assert_eq!(d, p.distance, "s={s} t={t}"),
                    _ => panic!("reachability mismatch for s={s} t={t}: {expect:?} vs {got:?}"),
                }
            }
        }
    }

    #[test]
    fn num_paths_matches_enumeration_on_random_graphs() {
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..40 {
            let n = 12;
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(0.25) {
                        edges.push((u, v));
                    }
                }
            }
            let g = graph_from_edges(n, &edges);
            let mut sc = scratch_for(&g);
            for s in 0..3 {
                for t in 6..9 {
                    let all = enumerate_shortest_paths(&g, s, t);
                    let got = sample_shortest_path(&g, s, t, &mut sc, &mut rng);
                    if all.is_empty() {
                        assert!(got.is_none());
                    } else {
                        let p = got.unwrap();
                        assert_eq!(p.num_paths as usize, all.len(), "s={s} t={t}");
                        assert!(all.iter().any(|cand| {
                            let mut a = cand.clone();
                            let mut b = p.interior.clone();
                            a.sort_unstable();
                            b.sort_unstable();
                            a == b
                        }));
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_interior_is_a_real_shortest_path() {
        // Verify connectivity of the sampled interior explicitly.
        use rand::Rng as _;
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges = Vec::new();
        let n = 30;
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.gen_bool(0.1) {
                    edges.push((u, v));
                }
            }
        }
        let g = graph_from_edges(n, &edges);
        let mut sc = scratch_for(&g);
        for _ in 0..100 {
            let s = rng.gen_range(0..n as NodeId);
            let t = rng.gen_range(0..n as NodeId);
            if s == t {
                continue;
            }
            if let Some(p) = sample_shortest_path(&g, s, t, &mut sc, &mut rng) {
                // The interior, ordered by distance from s, must form a chain
                // s - i1 - i2 - ... - t.
                let dist_s = crate::bfs::bfs(&g, s).dist;
                let mut chain = p.interior.clone();
                chain.sort_unstable_by_key(|&v| dist_s[v as usize]);
                let mut prev = s;
                for (i, &v) in chain.iter().enumerate() {
                    assert_eq!(dist_s[v as usize], i as u32 + 1);
                    assert!(g.has_edge(prev, v), "chain break {prev}-{v}");
                    prev = v;
                }
                assert!(g.has_edge(prev, t));
            }
        }
    }

    #[test]
    fn path_sampling_is_uniform_chi_square() {
        // Graph with exactly 6 shortest 0→5 paths of length 3:
        // 0 -> {1,2} -> {3,4} crossing completely -> 5 gives 2*2=4 paths; add
        // a third middle layer vertex to reach 6.
        let g = graph_from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                // extra decoys
                (0, 6),
                (6, 7),
            ],
        );
        let all = enumerate_shortest_paths(&g, 0, 5);
        assert_eq!(all.len(), 4);
        let mut counts = vec![0u64; all.len()];
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 40_000;
        for _ in 0..trials {
            let p = sample_shortest_path(&g, 0, 5, &mut sc, &mut rng).unwrap();
            let mut b = p.interior.clone();
            b.sort_unstable();
            let idx = all
                .iter()
                .position(|cand| {
                    let mut a = cand.clone();
                    a.sort_unstable();
                    a == b
                })
                .expect("sampled path must be a shortest path");
            counts[idx] += 1;
        }
        // χ² with 3 dof; 99.9% critical value ≈ 16.27. Allow generous slack.
        let expected = trials as f64 / all.len() as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 25.0, "χ² too large: {chi2}, counts {counts:?}");
    }

    #[test]
    fn uniformity_with_asymmetric_path_counts() {
        // Diamond chain where one branch splits further: paths 0→4 are
        // 0-1-3-4, 0-2-3-4 plus 0-5-6-4 (disjoint route), all length 3.
        let g =
            graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5), (5, 6), (6, 4)]);
        let all = enumerate_shortest_paths(&g, 0, 4);
        assert_eq!(all.len(), 3);
        let mut counts = vec![0u64; 3];
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 30_000;
        for _ in 0..trials {
            let p = sample_shortest_path(&g, 0, 4, &mut sc, &mut rng).unwrap();
            let mut b = p.interior.clone();
            b.sort_unstable();
            let idx = all
                .iter()
                .position(|cand| {
                    let mut a = cand.clone();
                    a.sort_unstable();
                    a == b
                })
                .unwrap();
            counts[idx] += 1;
        }
        let expected = trials as f64 / 3.0;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "non-uniform counts: {counts:?}");
        }
    }

    #[test]
    fn stats_report_work() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(10);
        let (_, st) = sample_shortest_path_with_stats(&g, 0, 4, &mut sc, &mut rng).unwrap();
        assert!(st.edges_scanned > 0);
        assert!(st.vertices_settled >= 2);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn equal_endpoints_panic() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let mut sc = scratch_for(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let _ = sample_shortest_path(&g, 1, 1, &mut sc, &mut rng);
    }

    #[test]
    fn enumerate_on_cycle() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let paths = enumerate_shortest_paths(&g, 0, 3);
        assert_eq!(paths.len(), 2);
    }
}
