//! Compressed sparse row (CSR) graph storage.
//!
//! The paper stores graphs in NetworKit's static structure with 32-bit vertex
//! ids; we do the same. Graphs are undirected and unweighted (Section III of
//! the paper): every undirected edge `{u, v}` is stored twice, once in each
//! adjacency list. Adjacency lists are sorted, which makes neighbourhood
//! queries cache-friendly and lets tests assert canonical form.

use crate::hint::{prefetch_read, resize_huge};
use crate::{GraphError, Result};
use std::cmp::Reverse;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Vertex identifier. 32 bits suffice for every graph in SNAP/KONECT and keep
/// the CSR (and the per-thread sampling state of KADABRA) compact.
pub type NodeId = u32;

/// A static, undirected, unweighted graph in CSR form.
///
/// Construction goes through [`GraphBuilder`] (for arbitrary edge lists) or
/// [`Graph::from_sorted_csr`] (for generators that already produce canonical
/// data). After construction the graph is immutable, which is exactly the
/// property the paper exploits to share one copy among all sampling threads
/// of a process.
///
/// Every constructed graph carries a [`GraphId`]: clones keep it, equality
/// ignores it.
#[derive(Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`'s neighbours.
    offsets: Vec<u64>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    targets: Vec<NodeId>,
    /// Which construction this graph (or the graph it was cloned from) is.
    id: GraphId,
}

/// The exact identity of a [`Graph`]: a process-unique number drawn when
/// the graph is constructed. A graph is immutable, so one id names one
/// content, and a clone, which has that content, keeps the id. Unlike an
/// address, an id is never reused after its graph is dropped; unlike a
/// content hash, two different graphs never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphId(u64);

impl GraphId {
    fn fresh() -> GraphId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        GraphId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for Graph {}

/// The offset-array half of the CSR invariants. It runs before anything
/// slices `targets` by `offsets`, [`check_row`] included.
pub(crate) fn check_offsets(
    offsets: &[u64],
    num_targets: usize,
) -> std::result::Result<(), String> {
    if offsets.is_empty() {
        return Err("offsets must have length n + 1".into());
    }
    if offsets[0] != 0 {
        return Err("offsets must start at 0".into());
    }
    if offsets[offsets.len() - 1] != num_targets as u64 {
        return Err("offsets must end at targets.len()".into());
    }
    if offsets.len() - 1 > NodeId::MAX as usize {
        return Err("too many vertices for u32 ids".into());
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offsets must be non-decreasing".into());
    }
    Ok(())
}

/// The row step of the canonical-form check, for row `v` of a graph on `n`
/// vertices: the row is strictly sorted, every target is `< n`, and none is
/// `v` itself. Returns the row's count of targets above the diagonal
/// (`t > v`), which [`check_reverse`] needs summed over all rows.
pub(crate) fn check_row(v: usize, row: &[NodeId], n: usize) -> std::result::Result<usize, String> {
    if !row.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("adjacency of vertex {v} not strictly sorted"));
    }
    // Sorted, so the last target is the largest and the diagonal is found by
    // one binary search.
    if let Some(&t) = row.last().filter(|&&t| t as usize >= n) {
        return Err(format!("target {t} of vertex {v} out of range"));
    }
    let below = row.partition_point(|&t| (t as usize) < v);
    if row.get(below).is_some_and(|&t| t as usize == v) {
        return Err(format!("self-loop at vertex {v}"));
    }
    Ok(row.len() - below)
}

/// The reverse pass of the canonical-form check, on arrays whose offsets
/// passed [`check_offsets`] and whose every row passed [`check_row`], with
/// `above` the rows' summed counts, run on one worker per target range
/// `cuts[k]..cuts[k + 1]` (`cuts` runs from 0 to n; `[0, n]` is one worker
/// on the calling thread). `cursor` is scratch of one word per row, its
/// contents ignored.
///
/// Only the arcs `v → t` with `t > v` are walked. Rows are visited in
/// ascending `v`, so in a symmetric, strictly sorted CSR the reverse of
/// `v → t` is the next unread entry of row `t`: the entries of row `t` read
/// so far are its neighbours below `v`. One cursor per row, bounded by the
/// row's end, matches each arc above the diagonal to a distinct entry below
/// it. If the arcs above the diagonal are exactly half of all arcs, that
/// injective matching is a bijection onto the arcs below, so every arc has
/// its reverse (DESIGN.md §11.7). A cursor moves only on arcs into its own
/// row, so the workers' matchings together are the one-worker matching, and
/// the error is the failing arc first in ascending `v`, then descending `t`.
fn check_reverse(
    offsets: &[u64],
    targets: &[NodeId],
    above: usize,
    cuts: &[usize],
    cursor: &mut [u64],
) -> std::result::Result<(), String> {
    if 2 * above != targets.len() {
        return Err(format!("{above} of {} arcs lie above the diagonal, not half", targets.len()));
    }
    let mut jobs = Vec::new();
    let mut rest = cursor;
    for w in cuts.windows(2) {
        let (cursor, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
        rest = tail;
        jobs.push(move || first_unmatched(offsets, targets, w[0]..w[1], cursor));
    }
    match on_workers(jobs).into_iter().flatten().min_by_key(|&(v, t)| (v, Reverse(t))) {
        Some((v, t)) => Err(format!("edge {v}->{t} has no reverse edge")),
        None => Ok(()),
    }
}

/// Arcs in flight in [`first_unmatched`]: an arc's cursor and row end are
/// prefetched when it is read, the cursor's entry halfway, and the arc is
/// matched `AHEAD` arcs after it is read, so the three random reads of a
/// match overlap those of the arcs around it.
const AHEAD: usize = 32;

/// The reverse pass for the arcs into `rows`: the first arc `v → t` with
/// `t` in `rows`, in ascending `v` and then descending `t`, that finds no
/// reverse, with `cursor` holding those rows' cursors.
fn first_unmatched(
    offsets: &[u64],
    targets: &[NodeId],
    rows: Range<usize>,
    cursor: &mut [u64],
) -> Option<(usize, NodeId)> {
    let (start, n) = (rows.start, offsets.len() - 1);
    cursor.copy_from_slice(&offsets[rows.clone()]);
    let matches = |cursor: &mut [u64], (v, t): (usize, NodeId)| {
        let next = &mut cursor[t as usize - start];
        let hit = *next < offsets[t as usize + 1] && targets[*next as usize] == v as NodeId;
        if hit {
            *next += 1;
        }
        hit
    };
    // The matches keep the walk's order, so the first failure is the
    // walk's first failure.
    let mut ring = [(0, 0); AHEAD];
    let mut read = 0;
    for v in 0..rows.end {
        // The arcs above the diagonal are the sorted row's suffix; those
        // into `rows` are a run of it, walked from its end.
        let row = &targets[offsets[v] as usize..offsets[v + 1] as usize];
        let end = if rows.end < n {
            row.partition_point(|&t| (t as usize) < rows.end)
        } else {
            row.len()
        };
        let low = start.max(v + 1);
        for &t in row[..end].iter().rev().take_while(|&&t| t as usize >= low) {
            prefetch_read(cursor, t as usize - start);
            prefetch_read(offsets, t as usize + 1);
            let arc = std::mem::replace(&mut ring[read % AHEAD], (v, t));
            if read >= AHEAD && !matches(cursor, arc) {
                return Some(arc);
            }
            if read >= AHEAD / 2 {
                let (_, t) = ring[(read + AHEAD / 2) % AHEAD];
                prefetch_read(targets, cursor[t as usize - start] as usize);
            }
            read += 1;
        }
    }
    (read.saturating_sub(AHEAD)..read).map(|k| ring[k % AHEAD]).find(|&arc| !matches(cursor, arc))
}

/// Runs each job on a scoped thread of its own, the first on the calling
/// thread, and returns their results in job order.
pub(crate) fn on_workers<T: Send>(jobs: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return Vec::new() };
    std::thread::scope(|s| {
        let spawned: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
        let mut out = vec![first()];
        out.extend(spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
        out
    })
}

impl Graph {
    /// Wraps CSR arrays, unchecked, under a fresh [`GraphId`]: every
    /// constructor ends here.
    fn from_parts(offsets: Vec<u64>, targets: Vec<NodeId>) -> Graph {
        Graph { offsets, targets, id: GraphId::fresh() }
    }

    /// This graph's exact identity (see [`GraphId`]).
    pub fn id(&self) -> GraphId {
        self.id
    }

    /// Builds a graph directly from canonical CSR arrays.
    ///
    /// Requirements (checked): `offsets` has length `n + 1`, starts at 0, is
    /// non-decreasing, ends at `targets.len()`; every target is `< n`; each
    /// adjacency list is sorted and free of duplicates and self-loops; the
    /// adjacency relation is symmetric.
    ///
    /// # Panics
    /// Panics if any invariant is violated; generators are expected to produce
    /// canonical data, so a violation is a programming error.
    pub fn from_sorted_csr(offsets: Vec<u64>, targets: Vec<NodeId>) -> Self {
        if let Err(msg) = check_offsets(&offsets, targets.len()) {
            panic!("{msg}");
        }
        let g = Graph::from_parts(offsets, targets);
        debug_assert!(g.check_canonical().is_ok(), "non-canonical CSR input");
        g
    }

    /// Builds a graph from CSR arrays that came from outside the program
    /// (a cached binary file), once their offsets passed [`check_offsets`]
    /// and every row passed [`check_row`], `above` being the rows' summed
    /// counts: runs the reverse pass over the target ranges `cuts` delimits,
    /// on `cursor`'s one word per row, and reports a failure as an error
    /// instead of a panic.
    pub(crate) fn from_row_checked_csr(
        offsets: Vec<u64>,
        targets: Vec<NodeId>,
        above: usize,
        cuts: &[usize],
        cursor: &mut [u64],
    ) -> std::result::Result<Self, String> {
        check_reverse(&offsets, &targets, above, cuts, cursor)?;
        Ok(Graph::from_parts(offsets, targets))
    }

    /// Verifies full canonical form — every target in range, no self-loop,
    /// every adjacency list strictly sorted, every arc matched by its
    /// reverse: a row step on every row (order, range, self-loops, and the
    /// row's count of targets above the diagonal), then one pass that
    /// matches each arc above the diagonal to its reverse and checks that
    /// those arcs are exactly half of all arcs (DESIGN.md §11.7).
    pub fn check_canonical(&self) -> std::result::Result<(), String> {
        let n = self.num_nodes();
        let mut above = 0;
        for v in 0..n {
            above += check_row(v, self.neighbors(v as NodeId), n)?;
        }
        check_reverse(&self.offsets, &self.targets, above, &[0, n], &mut vec![0; n])
    }

    /// The search-per-arc formulation the row step and reverse pass
    /// replaced, kept as the test oracle of [`Graph::check_canonical`] and
    /// of `io::read_binary`.
    #[cfg(test)]
    fn check_canonical_by_search(&self) -> std::result::Result<(), String> {
        let n = self.num_nodes();
        for v in 0..n {
            let adj = self.neighbors(v as NodeId);
            for (i, &t) in adj.iter().enumerate() {
                if t as usize >= n {
                    return Err(format!("target {t} of vertex {v} out of range"));
                }
                if t == v as NodeId {
                    return Err(format!("self-loop at vertex {v}"));
                }
                if i > 0 && adj[i - 1] >= t {
                    return Err(format!("adjacency of vertex {v} not strictly sorted"));
                }
                if self.neighbors(t).binary_search(&(v as NodeId)).is_err() {
                    return Err(format!("edge {v}->{t} has no reverse edge"));
                }
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each stored twice internally).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Sorted slice of `v`'s neighbours.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Iterator over all vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Bytes of heap memory held by the CSR arrays. The paper's Section I
    /// argues current compute nodes fit all interesting graphs in memory;
    /// the experiment harness reports this figure per instance.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }

    /// Raw CSR views, used by the binary IO codec.
    pub(crate) fn raw_parts(&self) -> (&[u64], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    /// Hints the CPU to pull the start of `v`'s adjacency row into cache.
    /// Used by the sampling hot path one frontier vertex ahead of the scan.
    #[inline]
    pub fn prefetch_neighbors(&self, v: NodeId) {
        let lo = self.offsets[v as usize] as usize;
        prefetch_read(&self.targets, lo);
    }

    /// Relabels vertices in descending degree order (ties broken by original
    /// id), returning the relabeled graph and the [`Permutation`] that maps
    /// between labelings.
    ///
    /// High-degree vertices are the ones a BFS touches most often; packing
    /// them into the low end of the id space concentrates the hot rows of the
    /// per-vertex state and the offset array into a few cache/TLB pages
    /// (DESIGN.md §11). Driver outputs must be mapped back with
    /// [`Permutation::unrelabel`] so callers always see original ids.
    pub fn relabel_by_degree(&self) -> (Graph, Permutation) {
        self.relabel_by_degree_in(&mut CsrArena::new())
    }

    /// Like [`Graph::relabel_by_degree`], recycling an arena's buffers for
    /// the relabeled CSR arrays.
    ///
    /// Neither step compares: the permutation is a counting sort by degree,
    /// and each row fills in ascending order because new ids are scattered
    /// in ascending order.
    pub fn relabel_by_degree_in(&self, arena: &mut CsrArena) -> (Graph, Permutation) {
        let n = self.num_nodes();
        // Highest degree first: bucket `max_deg - degree`. Ids enter their
        // bucket in ascending order, so ties keep the original id order and
        // the permutation is deterministic for any input graph.
        let max_deg = self.max_degree();
        let mut bucket_start = vec![0usize; max_deg + 2];
        for v in 0..n as NodeId {
            bucket_start[max_deg - self.degree(v) + 1] += 1;
        }
        for k in 0..=max_deg {
            bucket_start[k + 1] += bucket_start[k];
        }
        let mut to_old = vec![0 as NodeId; n];
        for v in 0..n as NodeId {
            let k = max_deg - self.degree(v);
            to_old[bucket_start[k]] = v;
            bucket_start[k] += 1;
        }
        let mut to_new = vec![0 as NodeId; n];
        for (new, &old) in to_old.iter().enumerate() {
            to_new[old as usize] = new as NodeId;
        }

        let mut offsets = arena.take_offsets(n + 1);
        for new in 0..n {
            offsets[new + 1] = offsets[new] + self.degree(to_old[new]) as u64;
        }
        let mut targets = arena.take_targets(self.targets.len());
        // Vertex `u` goes into the row of each of its neighbours, `u`
        // ascending; the rows are symmetric, so every row ends up complete
        // and sorted. offsets[w] is row w's write cursor, as in
        // `GraphBuilder::build_in`, and is repaired afterwards.
        for (u, &old) in to_old.iter().enumerate() {
            for &w in self.neighbors(old) {
                let row = to_new[w as usize] as usize;
                targets[offsets[row] as usize] = u as NodeId;
                offsets[row] += 1;
            }
        }
        for v in (1..=n).rev() {
            offsets[v] = offsets[v - 1];
        }
        if n > 0 {
            offsets[0] = 0;
        }
        let g = Graph::from_parts(offsets, targets);
        debug_assert!(g.check_canonical().is_ok());
        (g, Permutation { to_new, to_old })
    }
}

/// A bijection between *original* and *relabeled* vertex ids, produced by
/// [`Graph::relabel_by_degree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    /// `to_new[old]` = relabeled id of original vertex `old`.
    to_new: Vec<NodeId>,
    /// `to_old[new]` = original id of relabeled vertex `new`.
    to_old: Vec<NodeId>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        Permutation { to_new: ids.clone(), to_old: ids }
    }

    /// Number of vertices the permutation acts on.
    pub fn len(&self) -> usize {
        self.to_new.len()
    }

    /// True for the permutation on the empty vertex set.
    pub fn is_empty(&self) -> bool {
        self.to_new.is_empty()
    }

    /// Relabeled id of original vertex `old`.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        self.to_new[old as usize]
    }

    /// Original id of relabeled vertex `new`.
    #[inline]
    pub fn to_old(&self, new: NodeId) -> NodeId {
        self.to_old[new as usize]
    }

    /// Whether this permutation maps every vertex to itself.
    pub fn is_identity(&self) -> bool {
        self.to_new.iter().enumerate().all(|(i, &v)| i as NodeId == v)
    }

    /// Maps a per-vertex array indexed by *relabeled* ids back to *original*
    /// indexing: `result[old] = values[to_new[old]]`. This is how driver
    /// outputs (betweenness scores) computed on a relabeled graph are
    /// reported in the caller's original ids.
    pub fn unrelabel<T: Copy>(&self, values: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.unrelabel_into(values, &mut out);
        out
    }

    /// Allocation-reusing variant of [`Permutation::unrelabel`].
    pub fn unrelabel_into<T: Copy>(&self, values: &[T], out: &mut Vec<T>) {
        assert_eq!(values.len(), self.len(), "value array must cover every vertex");
        out.clear();
        out.extend(self.to_new.iter().map(|&new| values[new as usize]));
    }

    /// Inverse of [`Permutation::unrelabel`]: maps a per-vertex array indexed
    /// by *original* ids to *relabeled* indexing (`result[new] =
    /// values[to_old[new]]`), so `relabel ∘ unrelabel` is the identity.
    pub fn relabel<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "value array must cover every vertex");
        self.to_old.iter().map(|&old| values[old as usize]).collect()
    }
}

/// Recyclable CSR construction buffers.
///
/// Repeated graph builds through the same arena reuse the previous build's
/// `offsets`/`targets` capacity: at steady state, [`GraphBuilder::build_in`]
/// and [`Graph::relabel_by_degree_in`] perform **no** heap allocation for the
/// CSR arrays (the builder's caller-owned edge list is the only buffer left).
/// Hand a finished graph's storage back with [`CsrArena::recycle`].
#[derive(Default)]
pub struct CsrArena {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl CsrArena {
    /// An empty arena; its first build populates the buffers.
    pub fn new() -> Self {
        CsrArena::default()
    }

    /// Returns a graph's CSR storage to the arena for the next build.
    pub fn recycle(&mut self, g: Graph) {
        self.offsets = g.offsets;
        self.targets = g.targets;
    }

    /// Capacity currently held, in bytes (for tests and diagnostics).
    pub fn capacity_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.targets.capacity() * std::mem::size_of::<NodeId>()
    }

    /// The offset buffer as `len` zeros, advised for huge pages before the
    /// zeros are written (DESIGN.md §11.8).
    fn take_offsets(&mut self, len: usize) -> Vec<u64> {
        let mut v = std::mem::take(&mut self.offsets);
        v.clear();
        resize_huge(&mut v, len, 0);
        v
    }

    /// The target buffer as `len` zeros, advised like the offsets.
    fn take_targets(&mut self, len: usize) -> Vec<NodeId> {
        let mut v = std::mem::take(&mut self.targets);
        v.clear();
        resize_huge(&mut v, len, 0);
        v
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Accumulates an arbitrary (possibly messy) undirected edge list and
/// produces a canonical [`Graph`].
///
/// The builder tolerates duplicate edges, both orientations of the same edge,
/// and self-loops; all are normalized away, matching how the paper reads the
/// KONECT instances ("all graphs were read as undirected and unweighted").
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Creates a builder with capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(m) }
    }

    /// Number of vertices this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently dropped;
    /// duplicates are removed at build time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u as usize >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u as u64, n: self.n as u64 });
        }
        if v as usize >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v as u64, n: self.n as u64 });
        }
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
        Ok(())
    }

    /// Adds every edge from an iterator. Stops at the first invalid edge.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, it: I) -> Result<()> {
        for (u, v) in it {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Finalizes the canonical CSR graph.
    pub fn build(self) -> Graph {
        self.build_in(&mut CsrArena::new())
    }

    /// Finalizes the canonical CSR graph into `arena`-recycled buffers.
    ///
    /// The counting sort runs in place — the offset array doubles as the
    /// scatter cursor and is repaired afterwards — so with a warm arena the
    /// whole build allocates nothing beyond the edge list the builder
    /// already holds.
    pub fn build_in(mut self, arena: &mut CsrArena) -> Graph {
        if self.n > NodeId::MAX as usize {
            // `new` takes usize so this is reachable only on 64-bit hosts with
            // absurd n; keep it a panic rather than plumbing Result through
            // every generator.
            panic!("too many vertices for u32 ids: {}", self.n);
        }
        self.edges.sort_unstable();
        self.edges.dedup();

        // Counting sort into CSR; every undirected edge contributes two arcs.
        let n = self.n;
        let mut offsets = arena.take_offsets(n + 1);
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = arena.take_targets(offsets[n] as usize);
        // Scatter, using offsets[u] as row u's write cursor; each write
        // advances the cursor, so afterwards offsets[u] holds row u's end
        // (= row u+1's start).
        for &(u, v) in &self.edges {
            targets[offsets[u as usize] as usize] = v;
            offsets[u as usize] += 1;
            targets[offsets[v as usize] as usize] = u;
            offsets[v as usize] += 1;
        }
        // Repair: shift the advanced cursors one slot right so offsets[v] is
        // row v's start again (offsets[n] already holds the total).
        for v in (1..=n).rev() {
            offsets[v] = offsets[v - 1];
        }
        if n > 0 {
            offsets[0] = 0;
        }
        // Edges were processed in lexicographic order of (min, max); the
        // resulting per-vertex lists are not necessarily sorted (a vertex's
        // arcs come from both orientations), so sort each list.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            targets[lo..hi].sort_unstable();
        }
        Graph::from_parts(offsets, targets)
    }
}

/// Builds a graph from an explicit edge list over `n` vertices, normalizing
/// duplicates, orientations and self-loops. Convenience for tests and small
/// examples.
pub fn graph_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    #[expect(
        clippy::expect_used,
        reason = "documented contract of this convenience helper; panicking on bad endpoints is \
                  the advertised behavior"
    )]
    b.extend_edges(edges.iter().copied()).expect("edge endpoints must be < n");
    b.build()
}

/// The comparison-sort relabel [`Graph::relabel_by_degree_in`] replaced,
/// kept as its differential oracle.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn relabel_by_degree_in(g: &Graph, arena: &mut CsrArena) -> (Graph, Permutation) {
        let n = g.num_nodes();
        let mut to_old: Vec<NodeId> = (0..n as NodeId).collect();
        to_old.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let mut to_new = vec![0 as NodeId; n];
        for (new, &old) in to_old.iter().enumerate() {
            to_new[old as usize] = new as NodeId;
        }

        let mut offsets = arena.take_offsets(n + 1);
        for new in 0..n {
            offsets[new + 1] = offsets[new] + g.degree(to_old[new]) as u64;
        }
        let mut targets = arena.take_targets(g.targets.len());
        for new in 0..n {
            let lo = offsets[new] as usize;
            let hi = offsets[new + 1] as usize;
            let row = &mut targets[lo..hi];
            for (slot, &w) in row.iter_mut().zip(g.neighbors(to_old[new])) {
                *slot = to_new[w as usize];
            }
            row.sort_unstable();
        }
        (Graph::from_parts(offsets, targets), Permutation { to_new, to_old })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, RmatConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The relabel and [`reference::relabel_by_degree_in`] build the same
        /// graph and the same permutation: on random edge lists over a vertex
        /// range that leaves some vertices isolated, and on R-MAT graphs
        /// (skewed degrees, long runs of ties), through fresh and recycled
        /// arenas.
        #[test]
        fn relabel_matches_the_reference(
            n in 1usize..80,
            edges in proptest::collection::vec((0u32..80, 0u32..80), 0..200),
            scale in 2u32..9,
            seed in 0u64..1_000,
        ) {
            let mut arena = CsrArena::new();
            for g in [graph_on(n, edges), rmat(RmatConfig::graph500(scale, 4, seed))] {
                let (rg, perm) = g.relabel_by_degree_in(&mut arena);
                let want = reference::relabel_by_degree_in(&g, &mut CsrArena::new());
                prop_assert_eq!(&rg, &want.0);
                prop_assert_eq!(&perm, &want.1);
                prop_assert!(rg.check_canonical().is_ok());
                arena.recycle(rg);
            }
        }

        /// `io::read_binary`, the file loader at 1, 2, 3 and 5 workers and
        /// the search-per-arc check accept exactly the same arrays: random
        /// valid graphs, and the same graphs with one word of either array
        /// overwritten.
        #[test]
        fn cursor_check_agrees_with_the_search_oracle(
            n in 2usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            (array, at, word) in (0u8..3, 0usize..4096, 0u64..26),
        ) {
            let g = graph_on(n, edges);
            let (mut offsets, mut targets) = (g.offsets.clone(), g.targets.clone());
            // array 0 leaves the graph valid; 1 and 2 overwrite one word.
            match array {
                1 => offsets[at % (n + 1)] = word,
                2 if !targets.is_empty() => {
                    let at = at % targets.len();
                    targets[at] = word as NodeId;
                }
                _ => {}
            }
            let sliceable = check_offsets(&offsets, targets.len()).is_ok();
            let loaded = load(&offsets, &targets);
            if sliceable {
                let oracle = Graph::from_parts(offsets, targets).check_canonical_by_search();
                prop_assert_eq!(loaded.is_ok(), oracle.is_ok(), "{:?} vs {:?}", loaded, oracle);
            } else {
                prop_assert!(loaded.is_err(), "unsliceable offsets accepted");
            }
            if array == 0 {
                prop_assert!(loaded.is_ok(), "valid graph rejected: {:?}", loaded);
            }
        }

        /// Family A: one entry below the diagonal replaced by another value
        /// that keeps its row strictly sorted and free of self-loops. Every
        /// row step passes; when the new value is below the diagonal too the
        /// above-diagonal count still is half the arcs, and only the reverse
        /// pass's compare of the cursor's entry can see it, at every split
        /// of the reverse pass into target ranges.
        #[test]
        fn cursor_check_agrees_with_the_search_oracle_on_a_moved_lower_entry(
            n in 2usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            pick in 0usize..4096,
        ) {
            let g = graph_on(n, edges);
            let mut moves = Vec::new();
            for v in 0..n {
                let (lo, row) = (g.offsets[v] as usize, g.neighbors(v as NodeId));
                for (i, &u) in row.iter().enumerate().filter(|&(_, &u)| (u as usize) < v) {
                    let after = i.checked_sub(1).map_or(0, |j| row[j] + 1);
                    let before = row.get(i + 1).map_or(n as NodeId, |&t| t);
                    for w in (after..before).filter(|&w| w != u && w as usize != v) {
                        moves.push((lo + i, w));
                    }
                }
            }
            let mut targets = g.targets.clone();
            if let Some(&(at, w)) = moves.get(pick % moves.len().max(1)) {
                targets[at] = w;
            }
            let mutated = Graph::from_parts(g.offsets.clone(), targets);
            prop_assert!(rows_pass(&mutated));
            prop_assert!(splits_agree(&mutated));
            let loaded = load(&mutated.offsets, &mutated.targets);
            let oracle = mutated.check_canonical_by_search();
            prop_assert_eq!(loaded.is_ok(), oracle.is_ok(), "{:?} vs {:?}", loaded, oracle);
            prop_assert_eq!(loaded.is_ok(), moves.is_empty());
        }

        /// Family B: one extra entry inserted as the largest entry below the
        /// diagonal of its row. Every row step passes and every arc above
        /// the diagonal still finds its reverse; only the count of arcs
        /// above the diagonal, no longer half, can see it, at every split.
        #[test]
        fn cursor_check_agrees_with_the_search_oracle_on_an_extra_lower_entry(
            n in 2usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            pick in 0usize..4096,
        ) {
            let g = graph_on(n, edges);
            let mut inserts = Vec::new();
            for v in 0..n {
                let row = g.neighbors(v as NodeId);
                let below = row.partition_point(|&t| (t as usize) < v);
                let after = below.checked_sub(1).map_or(0, |j| row[j] + 1);
                for w in after..v as NodeId {
                    inserts.push((v, g.offsets[v] as usize + below, w));
                }
            }
            let (mut offsets, mut targets) = (g.offsets.clone(), g.targets.clone());
            if let Some(&(v, at, w)) = inserts.get(pick % inserts.len().max(1)) {
                targets.insert(at, w);
                offsets[v + 1..].iter_mut().for_each(|o| *o += 1);
            }
            let mutated = Graph::from_parts(offsets, targets);
            prop_assert!(rows_pass(&mutated));
            prop_assert!(splits_agree(&mutated));
            let loaded = load(&mutated.offsets, &mutated.targets);
            let oracle = mutated.check_canonical_by_search();
            prop_assert_eq!(loaded.is_ok(), oracle.is_ok(), "{:?} vs {:?}", loaded, oracle);
            prop_assert_eq!(loaded.is_ok(), inserts.is_empty());
        }
    }

    /// A graph on `n` vertices from edges drawn over a wider range, folded
    /// into `0..n`.
    fn graph_on(n: usize, edges: Vec<(NodeId, NodeId)>) -> Graph {
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
        graph_from_edges(n, &edges)
    }

    /// `read_binary` on the arrays as `write_binary` serializes them, valid
    /// or not, held to the file loader at 1, 2, 3 and 5 workers.
    fn load(offsets: &[u64], targets: &[NodeId]) -> crate::Result<Graph> {
        let g = Graph::from_parts(offsets.to_vec(), targets.to_vec());
        let mut buf = Vec::new();
        crate::io::write_binary(&g, &mut buf).expect("writing to memory");
        crate::io::load_at_every_width(&buf)
    }

    /// Whether the reverse pass split at every single cut and at every pair
    /// of cuts reports what it reports on one worker.
    fn splits_agree(g: &Graph) -> bool {
        let n = g.num_nodes();
        let above = (0..n).map(|v| check_row(v, g.neighbors(v as NodeId), n).unwrap_or(0)).sum();
        let check =
            |cuts: &[usize]| check_reverse(&g.offsets, &g.targets, above, cuts, &mut vec![0; n]);
        let whole = check(&[0, n]);
        (0..=n).all(|a| (a..=n).all(|b| check(&[0, a, b, n]) == whole))
    }

    /// Whether every row of `g` passes the row step.
    fn rows_pass(g: &Graph) -> bool {
        let n = g.num_nodes();
        (0..n).all(|v| check_row(v, g.neighbors(v as NodeId), n).is_ok())
    }

    /// Rows `[1, 2]`, `[]`, `[0, 1]`: every row step passes and half the
    /// arcs lie above the diagonal. Row 1 is empty, so only the bound at the
    /// end of its row keeps its cursor from matching the arc 0 → 1 to the
    /// first entry of row 2, the entry that also matches 0 → 2.
    #[test]
    fn cursor_stops_at_the_end_of_its_row() {
        let (offsets, targets) = (vec![0, 2, 2, 4], vec![1, 2, 0, 1]);
        let g = Graph::from_parts(offsets, targets);
        assert!(rows_pass(&g));
        assert!(load(&g.offsets, &g.targets).is_err());
        assert!(g.check_canonical().is_err());
        assert!(g.check_canonical_by_search().is_err());
    }

    /// Rows `[2, 3]`, `[]`, `[1]`, `[1]`: every row step passes, half the
    /// arcs lie above the diagonal, and both arcs of row 0 fail. Walking
    /// `t` downwards, one worker meets `0 → 3` first; split at row 3, the
    /// lower range meets `0 → 2` and the upper `0 → 3`, and the error must
    /// still be `0 → 3`.
    #[test]
    fn cursor_split_reports_the_first_failure_in_one_worker_order() {
        let g = Graph::from_parts(vec![0, 2, 2, 3, 4], vec![2, 3, 1, 1]);
        assert!(rows_pass(&g));
        let want = Err("edge 0->3 has no reverse edge".to_string());
        for cuts in [&[0, 4][..], &[0, 3, 4]] {
            assert_eq!(check_reverse(&g.offsets, &g.targets, 2, cuts, &mut [0; 4]), want);
        }
        assert!(splits_agree(&g));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn triangle() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.check_canonical().is_ok());
    }

    #[test]
    fn duplicates_and_self_loops_are_normalized() {
        let g = graph_from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 2), (2, 3)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 1);
        assert!(!g.has_edge(2, 2));
        assert!(g.check_canonical().is_ok());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = graph_from_edges(6, &[(3, 5), (3, 1), (3, 4), (3, 0), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(b.add_edge(0, 3), Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })));
        assert!(matches!(b.add_edge(7, 0), Err(GraphError::VertexOutOfRange { vertex: 7, n: 3 })));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_sum_is_twice_edge_count() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(sum, 2 * g.num_edges());
    }

    #[test]
    fn memory_bytes_counts_both_arrays() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.memory_bytes(), 4 * 8 + 4 * 4);
    }

    #[test]
    fn from_sorted_csr_roundtrip() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (off, tgt) = g.raw_parts();
        let g2 = Graph::from_sorted_csr(off.to_vec(), tgt.to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn from_sorted_csr_rejects_bad_offsets() {
        Graph::from_sorted_csr(vec![1, 2], vec![0, 0]);
    }

    #[test]
    fn identity_is_per_construction_and_survives_clones() {
        let edges = [(0, 1), (1, 2)];
        let (a, b) = (graph_from_edges(3, &edges), graph_from_edges(3, &edges));
        assert_eq!(a, b, "equality compares content only");
        assert_ne!(a.id(), b.id(), "two constructions are two graphs");
        assert_eq!(a.clone().id(), a.id(), "a clone is the same graph");
        let (relabeled, _) = a.relabel_by_degree();
        assert_ne!(relabeled.id(), a.id());
    }

    #[test]
    fn relabel_by_degree_orders_vertices_by_degree() {
        // Degrees: 0→1, 1→3, 2→2, 3→2 ⇒ new order 1, 2, 3, 0 (ties by id).
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        let (rg, perm) = g.relabel_by_degree();
        assert!(rg.check_canonical().is_ok());
        assert_eq!(rg.num_nodes(), g.num_nodes());
        assert_eq!(rg.num_edges(), g.num_edges());
        assert_eq!(perm.to_old(0), 1);
        assert_eq!(perm.to_old(1), 2);
        assert_eq!(perm.to_old(2), 3);
        assert_eq!(perm.to_old(3), 0);
        // Degrees are non-increasing in the new labeling.
        for v in 1..rg.num_nodes() as NodeId {
            assert!(rg.degree(v - 1) >= rg.degree(v));
        }
        // The relabeled graph is isomorphic via the permutation.
        for (u, v) in g.edges() {
            assert!(rg.has_edge(perm.to_new(u), perm.to_new(v)));
        }
    }

    #[test]
    fn permutation_roundtrips() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (1, 4)]);
        let (_, perm) = g.relabel_by_degree();
        // relabel ∘ unrelabel = id and unrelabel ∘ relabel = id.
        let vals: Vec<u32> = vec![10, 20, 30, 40, 50];
        assert_eq!(perm.relabel(&perm.unrelabel(&vals)), vals);
        assert_eq!(perm.unrelabel(&perm.relabel(&vals)), vals);
        for v in 0..5 {
            assert_eq!(perm.to_new(perm.to_old(v)), v);
            assert_eq!(perm.to_old(perm.to_new(v)), v);
        }
        assert!(Permutation::identity(5).is_identity());
    }

    #[test]
    fn arena_reuses_buffers_across_builds() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let mut arena = CsrArena::new();
        let mut b = GraphBuilder::with_capacity(4, edges.len());
        b.extend_edges(edges.iter().copied()).expect("in range");
        let g1 = b.build_in(&mut arena);
        let baseline = graph_from_edges(4, &edges);
        assert_eq!(g1, baseline);
        // Recycle and rebuild: the arena now has capacity, and the result is
        // identical.
        arena.recycle(g1);
        assert!(arena.capacity_bytes() > 0);
        let mut b = GraphBuilder::with_capacity(4, edges.len());
        b.extend_edges(edges.iter().copied()).expect("in range");
        let g2 = b.build_in(&mut arena);
        assert_eq!(g2, baseline);
    }

    #[test]
    fn arena_relabel_matches_plain_relabel() {
        let edges = [(0, 3), (3, 2), (2, 1), (1, 0), (0, 2), (4, 0)];
        let g = graph_from_edges(5, &edges);
        let (r1, p1) = g.relabel_by_degree();
        let mut arena = CsrArena::new();
        let (r2, p2) = g.relabel_by_degree_in(&mut arena);
        assert_eq!(r1, r2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn relabel_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let (rg, perm) = g.relabel_by_degree();
        assert_eq!(rg.num_nodes(), 0);
        assert!(perm.is_empty());
        assert!(perm.is_identity());
    }

    #[test]
    fn star_graph_max_degree() {
        let edges: Vec<(NodeId, NodeId)> = (1..100).map(|v| (0, v)).collect();
        let g = graph_from_edges(100, &edges);
        assert_eq!(g.max_degree(), 99);
        assert_eq!(g.degree(0), 99);
        assert_eq!(g.degree(1), 1);
    }
}
