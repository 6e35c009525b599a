//! Affected-pair detection: bounded BFS sweeps from the endpoints touched
//! by an update batch, and the classification kernel that marks each
//! retained sample as provably-valid or invalidated.
//!
//! # The invalidation rule
//!
//! A retained sample is a triple `(s, t, L)` plus the interior of a path
//! drawn uniformly from the shortest s-t paths of the graph it was sampled
//! on (`L` is that graph's `d(s, t)`, or `u32::MAX` for a disconnected
//! pair). For a batch with deletions `D` (checked against the *old* view,
//! before the batch applies) and insertions `I` (checked against the *new*
//! view, after), the sample is **provably valid** iff
//!
//! * for every `{u, v} ∈ D`: `d_old(s,u) + 1 + d_old(v,t) > L` and
//!   `d_old(s,v) + 1 + d_old(u,t) > L`, and
//! * for every `{u, v} ∈ I`: `d_new(s,u) + 1 + d_new(v,t) > L` and
//!   `d_new(s,v) + 1 + d_new(u,t) > L`.
//!
//! Validity implies the *set* of shortest s-t paths is identical in the old
//! and new graphs: no old shortest path can cross a deleted edge (its
//! endpoint-distance sum would be ≤ L), so all survive; and any new path of
//! length ≤ L through an inserted edge would force an endpoint-distance sum
//! ≤ L on the new view, so none exists — paths of length ≤ L in the new
//! graph all avoid `I`, hence lie in the old graph too. The rule reads only
//! `(s, t, L)` — never the drawn path — so conditioned on retention the
//! kept path stays uniform over the (unchanged) shortest-path set, and the
//! combined retained + redrawn population is exactly i.i.d. on the new
//! graph (DESIGN.md §14).
//!
//! Sums use `u64` arithmetic with [`UNREACHED`] promoted, so unreachable
//! endpoints fall out naturally, and the sweeps are depth-capped: any
//! distance beyond the cap reads as [`UNREACHED`], which is sound whenever
//! the cap is at least the largest finite `L` under test (the caller adds
//! an uncapped pass only where connectivity can flip — see
//! [`crate::engine::DynamicEngine`]).

use kadabra_core::{SampleSink, ValidityBitmap};
use kadabra_graph::scratch::UNREACHED;
use kadabra_graph::{GraphView, NodeId};

/// One retained sample: the drawn pair, its shortest-path distance at draw
/// time (`u32::MAX` for a disconnected pair), and the interior span in the
/// owning [`PathStore`]'s pool.
#[derive(Debug, Clone, Copy)]
pub struct PathRec {
    /// Source endpoint.
    pub s: NodeId,
    /// Target endpoint.
    pub t: NodeId,
    /// `d(s, t)` on the view the sample was drawn on, or `u32::MAX`.
    pub dist: u32,
    start: u32,
    len: u32,
}

/// Per-stream store of retained samples: fixed-width records plus a flat
/// interior pool. As the stream's [`SampleSink`] it holds, oldest first,
/// the records the owning rank's `SampleLedger` counts, those of the
/// snapshot in flight, and the overlap drawn since; between a
/// `drop_unconfirmed` and the next round it mirrors the ledger exactly.
pub struct PathStore {
    recs: Vec<PathRec>,
    pool: Vec<NodeId>,
    spare: Vec<NodeId>,
    /// Records `..confirmed` are counted by the ledger; `confirmed..pending`
    /// are the snapshot in flight.
    confirmed: usize,
    pending: usize,
    /// Traversal scratch for redraws (separate from the sampler's, so
    /// redraw streams never perturb the adaptive stream's buffers).
    pub scratch: kadabra_graph::TraversalScratch,
    /// Cumulative search statistics over every redraw.
    pub redraw_stats: kadabra_graph::bibfs::SearchStats,
}

impl PathStore {
    /// An empty store for an `n`-vertex view.
    pub fn new(n: usize) -> Self {
        PathStore {
            recs: Vec::new(),
            pool: Vec::new(),
            spare: Vec::new(),
            confirmed: 0,
            pending: 0,
            scratch: kadabra_graph::TraversalScratch::new(n),
            redraw_stats: kadabra_graph::bibfs::SearchStats::default(),
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The retained records, in confirmation order.
    pub fn recs(&self) -> &[PathRec] {
        &self.recs
    }

    /// Appends a sample.
    pub fn push(&mut self, s: NodeId, t: NodeId, dist: u32, interior: &[NodeId]) {
        let start = self.pool.len();
        assert!(start + interior.len() <= u32::MAX as usize, "interior pool overflow");
        self.pool.extend_from_slice(interior);
        self.recs.push(PathRec {
            s,
            t,
            dist,
            start: start as u32,
            // xtask: allow(determinism) — the assert above bounds the whole
            // pool (hence every span length) to u32.
            len: interior.len() as u32,
        });
    }

    /// Interior vertices of record `i`.
    pub fn interior(&self, i: usize) -> &[NodeId] {
        let r = &self.recs[i];
        &self.pool[r.start as usize..(r.start + r.len) as usize]
    }

    /// Pool offset where record `i`'s interior starts (the pool's end for
    /// `i == len`). Records sit in the pool in order whenever marks move:
    /// pushes append, and an update compacts before the next round.
    fn pool_at(&self, i: usize) -> usize {
        self.recs.get(i).map_or(self.pool.len(), |r| r.start as usize)
    }

    /// Replaces record `i`'s path with the redraw left in `self.scratch`
    /// (`dist` is the redraw's distance, `u32::MAX` if disconnected). The
    /// new interior is appended to the pool; [`Self::compact_pool`] reclaims
    /// the abandoned span.
    pub fn replace_with_scratch_path(&mut self, i: usize, dist: u32) {
        let start = self.pool.len();
        let len = self.scratch.path.len();
        assert!(start + len <= u32::MAX as usize, "interior pool overflow");
        self.pool.extend_from_slice(&self.scratch.path);
        let r = &mut self.recs[i];
        r.dist = dist;
        r.start = start as u32;
        r.len = len as u32;
    }

    /// Rewrites the pool in record order, dropping spans abandoned by
    /// [`Self::replace_with_scratch_path`]. Uses a resident spare buffer,
    /// so steady-state updates allocate nothing new.
    pub fn compact_pool(&mut self) {
        self.spare.clear();
        self.spare.reserve(self.pool.len());
        for r in self.recs.iter_mut() {
            // xtask: allow(determinism) — the spare rewrites a pool already
            // asserted to fit u32, and compaction only shrinks it.
            let start = self.spare.len() as u32;
            self.spare.extend_from_slice(&self.pool[r.start as usize..(r.start + r.len) as usize]);
            r.start = start;
        }
        std::mem::swap(&mut self.pool, &mut self.spare);
    }
}

impl SampleSink for PathStore {
    fn record(&mut self, s: NodeId, t: NodeId, dist: u32, interior: &[NodeId]) {
        self.push(s, t, dist, interior);
    }

    fn snapshot(&mut self) {
        self.pending = self.recs.len();
    }

    fn confirm(&mut self) {
        self.confirmed = self.pending;
    }

    /// Cuts the in-flight records out from between the confirmed ones and
    /// the overlap, keeping the store ledger-exact after a failed reduction.
    fn discard(&mut self) {
        let (lo, hi) = (self.pool_at(self.confirmed), self.pool_at(self.pending));
        self.pool.drain(lo..hi);
        self.recs.drain(self.confirmed..self.pending);
        for r in &mut self.recs[self.confirmed..] {
            r.start -= (hi - lo) as u32;
        }
        self.pending = self.confirmed;
    }
}

/// Reusable buffers for the endpoint distance sweeps of one update batch.
pub struct SweepScratch {
    /// Flat `endpoints × n` distance tables over the old view.
    pub dist_old: Vec<u32>,
    /// Distinct deletion endpoints, sorted (row order of `dist_old`).
    pub eps_old: Vec<NodeId>,
    /// Flat `endpoints × n` distance tables over the new view.
    pub dist_new: Vec<u32>,
    /// Distinct insertion endpoints, sorted (row order of `dist_new`).
    pub eps_new: Vec<NodeId>,
    /// Per-deleted-edge `(row(u), row(v))` into `dist_old`.
    pub del_slots: Vec<(u32, u32)>,
    /// Per-inserted-edge `(row(u), row(v))` into `dist_new`.
    pub ins_slots: Vec<(u32, u32)>,
    queue: Vec<NodeId>,
}

impl SweepScratch {
    /// Empty scratch; buffers grow to the working set on first use.
    pub fn new() -> Self {
        SweepScratch {
            dist_old: Vec::new(),
            eps_old: Vec::new(),
            dist_new: Vec::new(),
            eps_new: Vec::new(),
            del_slots: Vec::new(),
            ins_slots: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Runs one BFS per endpoint in `eps` over `g`, filling `dist` as a
    /// flat `eps.len() × n` table (depth-capped at `cap`), and resolves
    /// `edges` to `(row, row)` slot pairs in `slots`. Returns edges
    /// scanned.
    fn sweep_into<G: GraphView>(
        g: &G,
        eps: &[NodeId],
        cap: u32,
        dist: &mut Vec<u32>,
        queue: &mut Vec<NodeId>,
        edges: &[(NodeId, NodeId)],
        slots: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let n = g.num_nodes();
        dist.clear();
        dist.resize(eps.len() * n, UNREACHED);
        let mut scanned = 0u64;
        for (row, &src) in eps.iter().enumerate() {
            scanned += bfs_distances_into(g, src, cap, &mut dist[row * n..(row + 1) * n], queue);
        }
        slots.clear();
        #[expect(
            clippy::unwrap_used,
            reason = "every edge endpoint is in `eps` by construction (eps is the dedup of these \
                      very endpoints)"
        )]
        let row = |x: NodeId| eps.binary_search(&x).unwrap() as u32;
        for &(u, v) in edges {
            slots.push((row(u), row(v)));
        }
        scanned
    }

    /// Sweeps the *old* view from the deletion endpoints. Returns edges
    /// scanned.
    pub fn sweep_old<G: GraphView>(
        &mut self,
        g: &G,
        eps: Vec<NodeId>,
        cap: u32,
        deletes: &[(NodeId, NodeId)],
    ) -> u64 {
        self.eps_old = eps;
        Self::sweep_into(
            g,
            &self.eps_old,
            cap,
            &mut self.dist_old,
            &mut self.queue,
            deletes,
            &mut self.del_slots,
        )
    }

    /// Sweeps the *new* view from the insertion endpoints. Returns edges
    /// scanned.
    pub fn sweep_new<G: GraphView>(
        &mut self,
        g: &G,
        eps: Vec<NodeId>,
        cap: u32,
        inserts: &[(NodeId, NodeId)],
    ) -> u64 {
        self.eps_new = eps;
        Self::sweep_into(
            g,
            &self.eps_new,
            cap,
            &mut self.dist_new,
            &mut self.queue,
            inserts,
            &mut self.ins_slots,
        )
    }
}

impl Default for SweepScratch {
    fn default() -> Self {
        SweepScratch::new()
    }
}

/// Single-source BFS over a [`GraphView`] into a caller-owned distance
/// slice, depth-capped at `cap` (vertices farther than `cap` keep
/// [`UNREACHED`]). Reuses `queue`; allocation-free once buffers are grown.
/// Returns the number of edges scanned.
pub fn bfs_distances_into<G: GraphView>(
    g: &G,
    src: NodeId,
    cap: u32,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) -> u64 {
    debug_assert_eq!(dist.len(), g.num_nodes());
    debug_assert!(dist.iter().all(|&d| d == UNREACHED));
    queue.clear();
    queue.push(src);
    dist[src as usize] = 0;
    let mut head = 0usize;
    let mut scanned = 0u64;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        if du >= cap {
            continue;
        }
        if let Some(&w) = queue.get(head) {
            g.prefetch_neighbors(w);
        }
        let adj = g.neighbors(u);
        scanned += adj.len() as u64;
        for &v in adj {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
    scanned
}

/// The classification kernel: marks in `bitmap` every record whose
/// shortest-path set may have changed under the batch (module docs give
/// the rule and its proof sketch). `dist_old`/`dist_new` are the flat
/// endpoint tables of [`SweepScratch`]; `del_slots`/`ins_slots` the
/// per-edge row pairs. Allocation-free.
pub fn classify_samples(
    recs: &[PathRec],
    n: usize,
    del_slots: &[(u32, u32)],
    dist_old: &[u32],
    ins_slots: &[(u32, u32)],
    dist_new: &[u32],
    bitmap: &mut ValidityBitmap,
) {
    debug_assert_eq!(bitmap.len(), recs.len());
    for (i, r) in recs.iter().enumerate() {
        let l = r.dist as u64;
        let (s, t) = (r.s as usize, r.t as usize);
        let mut invalid = false;
        for &(ru, rv) in del_slots {
            let (ou, ov) = ((ru as usize) * n, (rv as usize) * n);
            let su = dist_old[ou + s] as u64;
            let vt = dist_old[ov + t] as u64;
            let sv = dist_old[ov + s] as u64;
            let ut = dist_old[ou + t] as u64;
            if su + 1 + vt <= l || sv + 1 + ut <= l {
                invalid = true;
                break;
            }
        }
        if !invalid {
            for &(ru, rv) in ins_slots {
                let (ou, ov) = ((ru as usize) * n, (rv as usize) * n);
                let su = dist_new[ou + s] as u64;
                let vt = dist_new[ov + t] as u64;
                let sv = dist_new[ov + s] as u64;
                let ut = dist_new[ou + t] as u64;
                if su + 1 + vt <= l || sv + 1 + ut <= l {
                    invalid = true;
                    break;
                }
            }
        }
        if invalid {
            bitmap.invalidate(i);
        }
    }
}

/// One full-graph BFS sweep giving a sound vertex-diameter upper bound for
/// the ω recomputation after a batch: per connected component, `2·ecc + 1`
/// from an arbitrary root bounds the component's vertex diameter. Reuses
/// `dist`/`queue`; returns `(bound, edges_scanned)`.
pub fn vertex_diameter_bound<G: GraphView>(
    g: &G,
    dist: &mut Vec<u32>,
    queue: &mut Vec<NodeId>,
) -> (u32, u64) {
    let n = g.num_nodes();
    dist.clear();
    dist.resize(n, UNREACHED);
    let mut bound = 1u32;
    let mut scanned = 0u64;
    for root in 0..n as NodeId {
        if dist[root as usize] != UNREACHED {
            continue;
        }
        queue.clear();
        queue.push(root);
        dist[root as usize] = 0;
        let mut head = 0usize;
        let mut ecc = 0u32;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[u as usize];
            ecc = ecc.max(du);
            let adj = g.neighbors(u);
            scanned += adj.len() as u64;
            for &v in adj {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    queue.push(v);
                }
            }
        }
        bound = bound.max(2 * ecc + 1);
    }
    (bound, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::UpdateBatch;
    use crate::overlay::DynamicGraph;
    use kadabra_graph::csr::graph_from_edges;

    #[test]
    fn capped_bfs_marks_everything_beyond_the_horizon_unreached() {
        // Path 0-1-2-3-4.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut dist = vec![UNREACHED; 5];
        let mut queue = Vec::new();
        let scanned = bfs_distances_into(&g, 0, 2, &mut dist, &mut queue);
        assert_eq!(dist, vec![0, 1, 2, UNREACHED, UNREACHED]);
        assert!(scanned > 0);
        dist.fill(UNREACHED);
        bfs_distances_into(&g, 0, u32::MAX, &mut dist, &mut queue);
        assert_eq!(dist, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn classification_flags_exactly_the_affected_pairs() {
        // Cycle 0-1-2-3-4-5-0. Delete {2,3}: pairs whose shortest paths
        // cross it are invalidated; antipodal-free pairs far from the edge
        // keep their paths.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let view = DynamicGraph::new(g);
        let batch = UpdateBatch::new(vec![], vec![(2, 3)]).expect("valid");
        let mut store = PathStore::new(6);
        // (s, t, d(s,t)) on the old cycle.
        store.push(2, 3, 1, &[]); // the deleted edge itself → invalid
        store.push(1, 4, 3, &[2, 3]); // shortest path crosses {2,3} → invalid
        store.push(0, 1, 1, &[]); // far from the edge → valid
        store.push(0, 2, 2, &[1]); // d=2 both ways? 0-1-2 only (other side is 4 hops) → valid
        let mut sweep = SweepScratch::new();
        let mut eps = Vec::new();
        batch.delete_endpoints(&mut eps);
        assert_eq!(eps, vec![2, 3]);
        sweep.sweep_old(&view, eps, u32::MAX, batch.deletes());
        let mut bitmap = kadabra_core::ValidityBitmap::all_valid(store.len());
        classify_samples(
            store.recs(),
            6,
            &sweep.del_slots,
            &sweep.dist_old,
            &sweep.ins_slots,
            &sweep.dist_new,
            &mut bitmap,
        );
        assert!(!bitmap.is_valid(0));
        assert!(!bitmap.is_valid(1));
        assert!(bitmap.is_valid(2));
        assert!(bitmap.is_valid(3));
    }

    #[test]
    fn insertion_invalidates_newly_connected_pairs() {
        // Two components {0,1} and {2,3}; inserting {1,2} connects them.
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let mut view = DynamicGraph::new(g);
        let batch = UpdateBatch::new(vec![(1, 2)], vec![]).expect("valid");
        let mut store = PathStore::new(4);
        store.push(0, 3, u32::MAX, &[]); // disconnected at draw time
        store.push(0, 1, 1, &[]); // same-component, untouched
        view.apply_batch(&batch);
        let mut sweep = SweepScratch::new();
        let mut eps = Vec::new();
        batch.insert_endpoints(&mut eps);
        sweep.sweep_new(&view, eps, u32::MAX, batch.inserts());
        let mut bitmap = kadabra_core::ValidityBitmap::all_valid(store.len());
        classify_samples(
            store.recs(),
            4,
            &sweep.del_slots,
            &sweep.dist_old,
            &sweep.ins_slots,
            &sweep.dist_new,
            &mut bitmap,
        );
        assert!(!bitmap.is_valid(0), "newly connected pair must redraw");
        assert!(bitmap.is_valid(1));
    }

    #[test]
    fn store_rollback_and_pool_compaction_keep_records_exact() {
        let mut store = PathStore::new(8);
        store.push(0, 3, 2, &[1, 2]);
        store.snapshot();
        store.confirm();
        store.push(4, 6, 2, &[5]);
        store.snapshot();
        store.push(2, 5, 3, &[3, 4]);
        // The reduction of the second record fails: it goes, the confirmed
        // record before it and the overlap after it stay.
        store.discard();
        assert_eq!(store.len(), 2);
        assert_eq!(store.interior(1), &[3, 4]);
        // And the unconfirmed rest goes with an empty snapshot of its own.
        store.snapshot();
        store.discard();
        assert_eq!(store.len(), 1);
        assert_eq!(store.interior(0), &[1, 2]);
        // Replace record 0's path via the scratch and compact the pool.
        store.scratch.path.clear();
        store.scratch.path.extend_from_slice(&[7, 6]);
        store.replace_with_scratch_path(0, 3);
        assert_eq!(store.interior(0), &[7, 6]);
        assert_eq!(store.recs()[0].dist, 3);
        let pool_before = store.interior(0).to_vec();
        store.compact_pool();
        assert_eq!(store.interior(0), pool_before.as_slice());
    }

    #[test]
    fn vd_bound_covers_every_component() {
        // Path of 5 (vd = 5) plus an isolated edge.
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]);
        let view = DynamicGraph::new(g);
        let (mut dist, mut queue) = (Vec::new(), Vec::new());
        let (bound, scanned) = vertex_diameter_bound(&view, &mut dist, &mut queue);
        assert!(bound >= 5, "bound {bound} must dominate the true vd 5");
        assert!(scanned > 0);
    }
}
