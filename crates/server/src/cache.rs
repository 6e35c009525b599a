//! The shared estimate cache: the lock-free core of the serving layer
//! (DESIGN.md §13).
//!
//! Two structures, one writer, many readers:
//!
//! * the **frontier** — the tightest estimate published so far, stored in a
//!   two-slot seqlock. The sampler pool (the single writer; exclusivity is
//!   the tenant's engine mutex) writes the *inactive* slot and flips the
//!   active index, so readers are never blocked and never see a torn
//!   snapshot;
//! * the **ε-schedule stages** — write-once-per-generation slots, one per
//!   scheduled ε, frozen at the first publication whose achieved ε meets
//!   the stage. A frozen stage never changes again *within a generation*,
//!   which is what makes `estimate` answers bit-reproducible from
//!   `(plan, seed)` regardless of how queries and refinement interleave:
//!   the answer at a requested ε always comes from that ε's designated
//!   stage, not from the moving frontier.
//!
//! # Generations (streaming updates, DESIGN.md §14)
//!
//! A dynamic tenant's graph changes under the cache. Every answer frozen
//! before an update batch describes the *old* graph, so the batch must
//! fence them off, and it must do so without ever leaving the frontier
//! unreadable. [`EstimateCache::advance_generation`] is the one call that
//! does both: it clears every stage's readiness word, writes the new
//! generation's frame into the *inactive* frontier slot (tagged with the
//! generation it belongs to), flips `active` once, advances the generation
//! counter, and only then re-freezes the eligible stages under the new word
//! (`ready_gen = generation + 1`). A frontier reader therefore sees the old
//! generation's last publication right up to the flip and the new
//! generation's first one after it — "nothing published" exists only
//! before the very first publication. A stage read loads the readiness word
//! on both sides of the data copy and retries on mismatch, so a reader
//! racing a clear-and-refreeze either gets one generation's complete frozen
//! contents or `false` — never a blend of the pre- and post-update graphs.
//! (The generation counter is monotone, so the ABA pattern — clear,
//! refreeze, same word value — cannot occur.)
//!
//! # Coherence protocol
//!
//! Writer, per frontier publication (into the slot readers are *not*
//! directed at): store odd `seq` (Relaxed), store every data word
//! (Release), store even `seq` (Release), flip `active` (Release). Reader:
//! load `active` (Acquire), load `seq` (Acquire, retry if odd), load data
//! words (Acquire), reload `seq` (Acquire, retry on mismatch).
//!
//! Why a reader can never return a mixed snapshot: suppose a reader's data
//! load observes a value from publication *P*. That Acquire load
//! synchronizes with the writer's Release store, so *P*'s earlier odd-`seq`
//! store happens-before the reader's final `seq` load — the reader must see
//! `seq` odd or past *P*, the check fails, and it retries. If every data
//! load observed pre-*P* values, the snapshot is the consistent previous
//! one. Either way the returned snapshot is exactly one publication's
//! contents. `tests/loom.rs` model-checks this argument, including a
//! negative control with the re-check deleted.
//!
//! The read path is allocation- and lock-free — enforced structurally by
//! the `hot-loop-hygiene` lint pass, which scans the bodies of
//! [`EstimateCache::read_frontier_into`], [`EstimateCache::read_vertex`]
//! and [`EstimateCache::read_stage_into`], and empirically by the
//! counting-allocator test `tests/read_vertex_alloc.rs`.

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

/// One seqlock slot of the frontier.
struct Slot {
    /// Even = stable, odd = mid-write. Incremented twice per publication.
    seq: AtomicU64,
    /// Per-vertex path counts c̃(v), internal (relabeled) vertex order.
    counts: Box<[AtomicU64]>,
    /// Total samples τ behind `counts`.
    tau: AtomicU64,
    /// Achieved ε of this publication (`f64::to_bits`).
    eps_bits: AtomicU64,
    /// Refinement round that produced this publication.
    round: AtomicU64,
    /// Graph generation this publication describes.
    generation: AtomicU64,
}

impl Slot {
    fn new(n: usize) -> Self {
        Slot {
            seq: AtomicU64::new(0),
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            tau: AtomicU64::new(0),
            eps_bits: AtomicU64::new(0),
            round: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }
}

/// One write-once-per-generation ε-schedule stage.
struct Stage {
    /// The scheduled ε this stage freezes at (immutable).
    eps: f64,
    /// 0 while unfrozen; `g + 1` (Release, after the data words) once
    /// frozen under cache generation `g`. Cleared back to 0 only by
    /// [`EstimateCache::advance_generation`].
    ready_gen: AtomicU64,
    /// Frozen per-vertex counts.
    counts: Box<[AtomicU64]>,
    /// Frozen τ.
    tau: AtomicU64,
    /// Round at which the stage froze.
    round: AtomicU64,
}

/// Scratch for one frontier read; reusing it across queries keeps the read
/// path allocation-free.
#[derive(Debug, Clone)]
pub struct FrontierSnapshot {
    /// Per-vertex counts, internal vertex order (length n).
    pub counts: Vec<u64>,
    /// Total samples τ.
    pub tau: u64,
    /// Achieved ε of the snapshot.
    pub eps: f64,
    /// Refinement round of the snapshot.
    pub round: u64,
    /// Graph generation the snapshot describes.
    pub generation: u64,
}

impl FrontierSnapshot {
    /// An empty snapshot sized for an `n`-vertex tenant.
    pub fn new(n: usize) -> Self {
        FrontierSnapshot { counts: vec![0; n], tau: 0, eps: 1.0, round: 0, generation: 0 }
    }
}

/// Scratch for one stage read (same layout as [`FrontierSnapshot`], minus
/// the moving ε — a stage's ε is part of the schedule).
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Per-vertex counts, internal vertex order (length n).
    pub counts: Vec<u64>,
    /// Total samples τ.
    pub tau: u64,
    /// Round at which the stage froze.
    pub round: u64,
}

impl StageSnapshot {
    /// An empty snapshot sized for an `n`-vertex tenant.
    pub fn new(n: usize) -> Self {
        StageSnapshot { counts: vec![0; n], tau: 0, round: 0 }
    }
}

/// One vertex's frontier read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexRead {
    /// The vertex's path count c̃(v) (internal id).
    pub count: u64,
    /// Total samples τ.
    pub tau: u64,
    /// Achieved ε of the publication the read hit.
    pub eps: f64,
    /// Refinement round of that publication.
    pub round: u64,
    /// Graph generation that publication describes.
    pub generation: u64,
}

/// Sentinel for "no publication yet"; never stored again after the first.
const NO_ACTIVE: usize = usize::MAX;

/// The per-tenant estimate cache. See the module docs for the protocol.
pub struct EstimateCache {
    n: usize,
    slots: [Slot; 2],
    /// Index of the slot readers should use; `NO_ACTIVE` until the first
    /// publication.
    active: AtomicUsize,
    stages: Box<[Stage]>,
    /// Graph generation the cache is serving; bumped by each update batch.
    generation: AtomicU64,
    /// Total frontier publications (diagnostics).
    publishes: AtomicU64,
}

impl EstimateCache {
    /// A cache for an `n`-vertex tenant with the given ε schedule
    /// (strictly descending, all in (0, 1)).
    pub fn new(n: usize, schedule: &[f64]) -> Self {
        assert!(n > 0, "empty tenant");
        assert!(!schedule.is_empty(), "empty ε schedule");
        assert!(
            schedule.windows(2).all(|w| w[0] > w[1]),
            "ε schedule must be strictly descending: {schedule:?}"
        );
        assert!(schedule.iter().all(|&e| e > 0.0 && e < 1.0), "ε out of (0,1): {schedule:?}");
        EstimateCache {
            n,
            slots: [Slot::new(n), Slot::new(n)],
            active: AtomicUsize::new(NO_ACTIVE),
            stages: schedule
                .iter()
                .map(|&eps| Stage {
                    eps,
                    ready_gen: AtomicU64::new(0),
                    counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
                    tau: AtomicU64::new(0),
                    round: AtomicU64::new(0),
                })
                .collect(),
            generation: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        }
    }

    /// Number of vertices the cache serves.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The ε schedule.
    pub fn schedule(&self) -> Vec<f64> {
        self.stages.iter().map(|s| s.eps).collect()
    }

    /// The designated stage for a requested ε: the loosest scheduled ε that
    /// still satisfies the request. `None` if the request is tighter than
    /// the schedule floor.
    pub fn stage_for(&self, eps: f64) -> Option<usize> {
        self.stages.iter().position(|s| s.eps <= eps)
    }

    /// Whether stage `i` has frozen under the current generation.
    pub fn stage_ready(&self, i: usize) -> bool {
        self.stages[i].ready_gen.load(Ordering::Acquire) != 0
    }

    /// The graph generation the cache is serving (0 until the first
    /// [`EstimateCache::advance_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Moves the cache to the next graph generation and publishes that
    /// generation's first frame `(counts, τ, ε, round)` in the same step
    /// (single writer: callers hold the tenant's engine mutex). Order
    /// matters: stages are cleared *first*, so no old-graph stage answer is
    /// reachable once the new frame is; the frame goes into the inactive
    /// slot and one `active` flip retires the old generation's frontier, so
    /// a frontier read never finds the cache empty; the generation advances;
    /// the eligible stages re-freeze under the new word. With `None` (a
    /// membership change before anything was sampled) the frontier keeps
    /// whatever was active. Returns the new generation.
    pub fn advance_generation(&self, frame: Option<(&[u64], u64, f64, u64)>) -> u64 {
        for stage in self.stages.iter() {
            stage.ready_gen.store(0, Ordering::Release);
        }
        let generation = self.generation.load(Ordering::Acquire) + 1;
        if let Some((counts, tau, eps, round)) = frame {
            self.write_inactive_slot_and_flip(counts, tau, eps, round, generation);
        }
        self.generation.store(generation, Ordering::Release);
        if let Some((counts, tau, eps, round)) = frame {
            self.freeze_eligible_stages(counts, tau, eps, round, generation);
        }
        generation
    }

    /// The scheduled ε of stage `i`.
    pub fn stage_eps(&self, i: usize) -> f64 {
        self.stages[i].eps
    }

    /// Total frontier publications so far.
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Acquire)
    }

    /// Publishes a new frontier (single writer: callers hold the tenant's
    /// engine mutex). Also freezes every not-yet-ready stage whose
    /// scheduled ε is met by `eps`.
    pub fn publish_frontier(&self, counts: &[u64], tau: u64, eps: f64, round: u64) {
        let generation = self.generation.load(Ordering::Acquire);
        self.write_inactive_slot_and_flip(counts, tau, eps, round, generation);
        self.freeze_eligible_stages(counts, tau, eps, round, generation);
    }

    /// One seqlock publication into the slot readers are not directed at,
    /// then the `active` flip (writer only).
    fn write_inactive_slot_and_flip(
        &self,
        counts: &[u64],
        tau: u64,
        eps: f64,
        round: u64,
        generation: u64,
    ) {
        assert_eq!(counts.len(), self.n, "frontier frame length mismatch");
        let cur = self.active.load(Ordering::Acquire);
        let target = if cur == NO_ACTIVE { 0 } else { 1 - cur };
        let slot = &self.slots[target];
        // Odd seq marks the slot mid-write; sequenced before the data
        // stores, so any reader that consumes one of them must notice.
        let s = slot.seq.load(Ordering::Acquire);
        slot.seq.store(s + 1, Ordering::Release);
        for (i, &c) in counts.iter().enumerate() {
            slot.counts[i].store(c, Ordering::Release);
        }
        slot.tau.store(tau, Ordering::Release);
        slot.eps_bits.store(eps.to_bits(), Ordering::Release);
        slot.round.store(round, Ordering::Release);
        slot.generation.store(generation, Ordering::Release);
        slot.seq.store(s + 2, Ordering::Release);
        self.active.store(target, Ordering::Release);
        self.publishes.fetch_add(1, Ordering::Release);
    }

    /// Freezes every not-yet-ready stage whose scheduled ε is met by `eps`,
    /// under `generation`'s word (writer only).
    fn freeze_eligible_stages(
        &self,
        counts: &[u64],
        tau: u64,
        eps: f64,
        round: u64,
        generation: u64,
    ) {
        let gen_word = generation + 1;
        for stage in self.stages.iter() {
            if eps <= stage.eps && stage.ready_gen.load(Ordering::Acquire) == 0 {
                for (a, &c) in stage.counts.iter().zip(counts) {
                    a.store(c, Ordering::Release);
                }
                stage.tau.store(tau, Ordering::Release);
                stage.round.store(round, Ordering::Release);
                stage.ready_gen.store(gen_word, Ordering::Release);
            }
        }
    }

    /// Reads a consistent frontier snapshot into `out`. Returns `false` if
    /// nothing has been published yet. Lock- and allocation-free; `out`
    /// must be sized for this cache.
    pub fn read_frontier_into(&self, out: &mut FrontierSnapshot) -> bool {
        debug_assert_eq!(out.counts.len(), self.n);
        loop {
            let idx = self.active.load(Ordering::Acquire);
            if idx == NO_ACTIVE {
                return false;
            }
            let slot = &self.slots[idx];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                core::hint::spin_loop();
                continue;
            }
            for (o, a) in out.counts.iter_mut().zip(slot.counts.iter()) {
                *o = a.load(Ordering::Acquire);
            }
            out.tau = slot.tau.load(Ordering::Acquire);
            out.eps = f64::from_bits(slot.eps_bits.load(Ordering::Acquire));
            out.round = slot.round.load(Ordering::Acquire);
            out.generation = slot.generation.load(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return true;
            }
        }
    }

    /// Reads one vertex's frontier entry (internal id). `None` until the
    /// first publication. Lock- and allocation-free.
    pub fn read_vertex(&self, v: usize) -> Option<VertexRead> {
        debug_assert!(v < self.n);
        loop {
            let idx = self.active.load(Ordering::Acquire);
            if idx == NO_ACTIVE {
                return None;
            }
            let slot = &self.slots[idx];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                core::hint::spin_loop();
                continue;
            }
            let count = slot.counts[v].load(Ordering::Acquire);
            let tau = slot.tau.load(Ordering::Acquire);
            let eps = f64::from_bits(slot.eps_bits.load(Ordering::Acquire));
            let round = slot.round.load(Ordering::Acquire);
            let generation = slot.generation.load(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return Some(VertexRead { count, tau, eps, round, generation });
            }
        }
    }

    /// Reads frozen stage `i` into `out`. Returns `false` while the stage
    /// has not frozen (under the current generation). Lock- and
    /// allocation-free; a `true` result is bit-stable for as long as the
    /// generation holds. The readiness word is re-checked after the data
    /// copy: if an update batch cleared-and-refroze the stage mid-read, the
    /// generation words differ (the counter is monotone) and the read
    /// retries instead of returning a mixed-generation snapshot.
    pub fn read_stage_into(&self, i: usize, out: &mut StageSnapshot) -> bool {
        debug_assert_eq!(out.counts.len(), self.n);
        let stage = &self.stages[i];
        loop {
            let g1 = stage.ready_gen.load(Ordering::Acquire);
            if g1 == 0 {
                return false;
            }
            for (o, a) in out.counts.iter_mut().zip(stage.counts.iter()) {
                *o = a.load(Ordering::Acquire);
            }
            out.tau = stage.tau.load(Ordering::Acquire);
            out.round = stage.round.load(Ordering::Acquire);
            let g2 = stage.ready_gen.load(Ordering::Acquire);
            if g1 == g2 {
                return true;
            }
            core::hint::spin_loop();
        }
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;

    #[test]
    fn unpublished_cache_reads_empty() {
        let c = EstimateCache::new(3, &[0.5, 0.1]);
        let mut snap = FrontierSnapshot::new(3);
        assert!(!c.read_frontier_into(&mut snap));
        assert!(c.read_vertex(0).is_none());
        let mut st = StageSnapshot::new(3);
        assert!(!c.read_stage_into(0, &mut st));
        assert_eq!(c.publish_count(), 0);
        assert_eq!(c.num_vertices(), 3);
    }

    #[test]
    fn frontier_reads_see_the_latest_publication() {
        let c = EstimateCache::new(3, &[0.5, 0.1]);
        c.publish_frontier(&[1, 2, 3], 6, 0.4, 0);
        c.publish_frontier(&[10, 20, 30], 60, 0.2, 1);
        let mut snap = FrontierSnapshot::new(3);
        assert!(c.read_frontier_into(&mut snap));
        assert_eq!(snap.counts, vec![10, 20, 30]);
        assert_eq!(snap.tau, 60);
        assert_eq!(snap.eps, 0.2);
        assert_eq!(snap.round, 1);
        let v = c.read_vertex(2).expect("published");
        assert_eq!((v.count, v.tau, v.round), (30, 60, 1));
        assert_eq!(c.publish_count(), 2);
    }

    #[test]
    fn stages_freeze_once_and_stay_bit_stable() {
        let c = EstimateCache::new(2, &[0.5, 0.1]);
        c.publish_frontier(&[1, 1], 2, 0.3, 0); // freezes stage 0 only
        assert!(c.stage_ready(0));
        assert!(!c.stage_ready(1));
        let mut st = StageSnapshot::new(2);
        assert!(c.read_stage_into(0, &mut st));
        assert_eq!((st.counts.clone(), st.tau, st.round), (vec![1, 1], 2, 0));
        // A tighter later publication freezes stage 1 but must not move
        // stage 0.
        c.publish_frontier(&[5, 7], 12, 0.05, 3);
        assert!(c.stage_ready(1));
        assert!(c.read_stage_into(0, &mut st));
        assert_eq!((st.counts.clone(), st.tau, st.round), (vec![1, 1], 2, 0));
        assert!(c.read_stage_into(1, &mut st));
        assert_eq!((st.counts, st.tau, st.round), (vec![5, 7], 12, 3));
    }

    #[test]
    fn stage_selection_follows_the_schedule() {
        let c = EstimateCache::new(2, &[0.5, 0.25, 0.1]);
        assert_eq!(c.stage_for(0.6), Some(0));
        assert_eq!(c.stage_for(0.5), Some(0));
        assert_eq!(c.stage_for(0.3), Some(1));
        assert_eq!(c.stage_for(0.1), Some(2));
        assert_eq!(c.stage_for(0.05), None);
        assert_eq!(c.schedule(), vec![0.5, 0.25, 0.1]);
        assert_eq!(c.stage_eps(1), 0.25);
    }

    #[test]
    #[should_panic(expected = "strictly descending")]
    fn non_descending_schedule_is_rejected() {
        let _ = EstimateCache::new(2, &[0.1, 0.5]);
    }

    #[test]
    fn generation_bump_fences_all_old_graph_answers() {
        let c = EstimateCache::new(2, &[0.5, 0.1]);
        c.publish_frontier(&[3, 4], 7, 0.05, 2); // freezes both stages
        assert!(c.stage_ready(0) && c.stage_ready(1));
        assert_eq!(c.generation(), 0);

        // The generation change carries the new graph's first frame: the
        // frontier answers from it at once, the stage it meets re-freezes
        // under generation 1 with new-graph data only, and the tighter
        // stage — frozen on the old graph — is unreachable.
        assert_eq!(c.advance_generation(Some((&[30, 40], 70, 0.3, 5))), 1);
        assert_eq!(c.generation(), 1);
        let mut snap = FrontierSnapshot::new(2);
        assert!(c.read_frontier_into(&mut snap));
        assert_eq!((snap.counts.clone(), snap.tau, snap.round), (vec![30, 40], 70, 5));
        assert_eq!(snap.generation, 1);
        assert_eq!(c.read_vertex(1).map(|v| (v.count, v.generation)), Some((40, 1)));
        let mut st = StageSnapshot::new(2);
        assert!(c.stage_ready(0) && !c.stage_ready(1));
        assert!(c.read_stage_into(0, &mut st) && !c.read_stage_into(1, &mut st));
        assert_eq!((st.counts.clone(), st.tau, st.round), (vec![30, 40], 70, 5));

        // A frameless change (nothing sampled yet on the new membership)
        // still fences every stage but keeps the frontier that was active.
        assert_eq!(c.advance_generation(None), 2);
        assert!(!c.read_stage_into(0, &mut st) && !c.read_stage_into(1, &mut st));
        assert!(c.read_frontier_into(&mut snap));
        assert_eq!((snap.counts.clone(), snap.generation), (vec![30, 40], 1));
        // Later publications carry the generation they were made under.
        c.publish_frontier(&[31, 41], 72, 0.3, 6);
        assert_eq!(c.read_vertex(0).map(|v| (v.count, v.generation)), Some((31, 2)));
    }
}
