//! Shrink-and-continue recovery (DESIGN.md §10): sampling-state checkpoints
//! and the recovery protocol, run by the one round loop ([`crate::mpi`]) of
//! both MPI algorithms and the resident pools, and by the dynamic engine's
//! update.
//!
//! # The checkpoint: a ledger of globally-reduced frames
//!
//! Each rank keeps a [`SampleLedger`] — the element-wise sum of every state
//! frame it has contributed to a reduction *whose completion it observed*.
//! Because a simulated collective completes only once **all** members have
//! joined (the non-blocking-barrier property the paper relies on in Section
//! IV-C), "my reduce completed" is a global fact: either every live rank
//! confirms a round into its ledger, or none does. The ledger is therefore a
//! prefix-consistent checkpoint that costs one add per entry of the epoch's
//! sparse frame — no extra communication, no stable storage.
//!
//! # The protocol
//!
//! When a collective fails with [`CommError::RankFailed`], every survivor
//! calls [`shrink_and_rebuild`]:
//!
//! 1. [`Communicator::shrink`] builds the survivor communicator (ULFM's
//!    `MPI_Comm_shrink`);
//! 2. an all-reduce of the survivors' ledgers rebuilds the global sampling
//!    state `S := Σ ledgers` at every rank — in particular at the new rank
//!    0, which resumes the stopping-condition bookkeeping.
//!
//! If another member dies *during* recovery, the all-reduce itself fails
//! with `RankFailed` and the loop shrinks again; the protocol terminates
//! because each iteration removes at least one member.
//!
//! # Why (ε, δ) is preserved
//!
//! The rebuilt state discards two kinds of samples: the dead rank's entire
//! history, and any frame in flight (snapshotted but with an unobserved
//! reduction) at the failure point. Both are simply i.i.d. samples that are
//! *never counted* — the estimator proceeds exactly as if they had not been
//! drawn. The adaptive stopping rule re-evaluates on the rebuilt `[Σ c̃, τ]`,
//! so the guarantee "P(∀v: |c̃(v) − c(v)| ≤ ε) ≥ 1 − δ at the τ where we
//! stop" is untouched; a crash only delays the stop (smaller τ after
//! rebuild) — it never double-counts or fabricates samples. Survivors
//! re-derive the batch size `n0 = 1000/(PT)^1.33` for the shrunk world, so
//! post-recovery scheduling matches what a fresh launch at that scale would
//! do.

use crate::config::KadabraConfig;
use crate::frame::SparseFrame;
use kadabra_mpisim::{CommError, Communicator, FaultPlan};
use kadabra_telemetry::{CounterId, EventWriter, SpanId};

/// Element-wise sum of every state frame this rank has contributed to an
/// *observed-complete* reduction, kept dense: `[per-vertex counts.., τ]`,
/// the slot layout of the drivers' frames. This is the rank's recovery
/// checkpoint.
pub struct SampleLedger {
    frame: Vec<u64>,
}

impl SampleLedger {
    /// An empty ledger for an `n`-vertex graph (frame length `n + 1`).
    pub fn new(n: usize) -> Self {
        SampleLedger { frame: vec![0u64; n + 1] }
    }

    /// A ledger that keeps nothing, for a rank of a world without a fault
    /// plan: such a world neither loses nor admits a rank, so no rebuild
    /// ever reads its ledgers. Confirming into it is free, and it holds no
    /// frame.
    pub(crate) fn untracked() -> Self {
        SampleLedger { frame: Vec::new() }
    }

    /// Confirms a frame whose reduction this rank observed completing, in
    /// O(entries). Must be called exactly once per completed reduction,
    /// with the same frame that was reduced — the conservation invariant
    /// the chaos suite checks is `global state == Σ survivor ledgers`,
    /// element-wise. An untracked ledger ignores it.
    pub fn confirm(&mut self, frame: &SparseFrame) {
        if self.frame.is_empty() {
            return;
        }
        for (slot, x) in frame.entries() {
            self.frame[slot] += x;
        }
    }

    /// [`SampleLedger::confirm`] for a dense `[counts.., τ]` frame: the
    /// streaming update's transaction and a pool's ledger surgery.
    pub fn confirm_dense(&mut self, frame: &[u64]) {
        if self.frame.is_empty() {
            return;
        }
        debug_assert_eq!(frame.len(), self.frame.len());
        for (a, &x) in self.frame.iter_mut().zip(frame) {
            *a += x;
        }
    }

    /// Retracts a frame of previously confirmed mass — the inverse of
    /// [`SampleLedger::confirm`], used by the streaming-update path when a
    /// retained sample is invalidated by an edge batch and its interior
    /// counts must leave the checkpoint before the redrawn replacement is
    /// confirmed. Every element of `frame` must be ≤ the ledger's current
    /// value (a rank only ever retracts mass it confirmed itself).
    pub fn retract(&mut self, frame: &[u64]) {
        debug_assert_eq!(frame.len(), self.frame.len());
        for (a, &x) in self.frame.iter_mut().zip(frame) {
            debug_assert!(*a >= x, "retracting mass the ledger never confirmed");
            *a -= x;
        }
    }

    /// The accumulated checkpoint frame.
    pub fn frame(&self) -> &[u64] {
        &self.frame
    }

    /// Total confirmed sample count τ (the last frame slot).
    #[expect(
        clippy::unwrap_used,
        reason = "`new` guarantees a non-empty frame, and only a world without a fault plan \
                  holds untracked ledgers"
    )]
    pub fn tau(&self) -> u64 {
        *self.frame.last().unwrap()
    }

    /// Serializes the ledger as a self-describing checkpoint: magic tag,
    /// frame length, the frame words, and a closing checksum — all
    /// little-endian `u64`s, so the byte image is identical across hosts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((self.frame.len() + 3) * 8);
        out.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.frame.len() as u64).to_le_bytes());
        for &w in &self.frame {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&checksum(&self.frame).to_le_bytes());
        out
    }

    /// Restores a ledger from a [`SampleLedger::to_bytes`] image, verifying
    /// the magic tag, declared length, and checksum. A ledger restored from
    /// the last checkpoint and then refined further conserves the invariant
    /// `frame == Σ confirmed frames since new()` — the property the
    /// checkpoint round-trip proptests pin down.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        #[expect(clippy::unwrap_used, reason = "the slice is exactly 8 bytes by construction")]
        let word = |i: usize| -> Result<u64, CheckpointError> {
            let at = i * 8;
            let end = at + 8;
            if end > bytes.len() {
                return Err(CheckpointError::Truncated);
            }
            Ok(u64::from_le_bytes(bytes[at..end].try_into().unwrap()))
        };
        if word(0)? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let len = usize::try_from(word(1)?).map_err(|_| CheckpointError::Truncated)?;
        if bytes.len() != (len + 3) * 8 {
            return Err(CheckpointError::Truncated);
        }
        let mut frame = Vec::with_capacity(len);
        for i in 0..len {
            frame.push(word(2 + i)?);
        }
        if word(2 + len)? != checksum(&frame) {
            return Err(CheckpointError::Corrupt);
        }
        Ok(SampleLedger { frame })
    }
}

/// Magic tag opening a serialized [`SampleLedger`] checkpoint.
const CHECKPOINT_MAGIC: u64 = 0x4b44_4252_4c47_5231; // "KDBRLGR1"

/// Order-sensitive checksum over the frame words (a rotate-xor fold), so a
/// corrupted or reordered image is rejected rather than silently restored.
fn checksum(frame: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &w in frame {
        h = h.rotate_left(7) ^ w.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    h
}

/// Why a checkpoint image failed to restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The image is shorter than its header declares (or not word-aligned).
    Truncated,
    /// The image does not begin with the ledger checkpoint magic tag.
    BadMagic,
    /// The checksum does not match the frame words.
    Corrupt,
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint image truncated"),
            CheckpointError::BadMagic => write!(f, "not a ledger checkpoint (bad magic)"),
            CheckpointError::Corrupt => write!(f, "checkpoint checksum mismatch"),
        }
    }
}

/// One recovery: shrinks `comm` until the survivor set is stable, then
/// rebuilds the global sampling state from the survivors' ledgers. Returns
/// the survivor communicator and the rebuilt state (identical at every
/// survivor).
///
/// Records a [`SpanId::Recovery`] span and counts the excluded members into
/// [`CounterId::RanksLost`] on this rank's telemetry writer.
///
/// Errors other than `RankFailed` (timeout, poison) abort recovery — they
/// indicate an algorithm bug, not a crash fault — and `RankFailed` with this
/// rank's own identity is returned so a rank that dies mid-recovery reports
/// itself dead.
pub fn shrink_and_rebuild(
    comm: &Communicator,
    ledger: &SampleLedger,
    w: &EventWriter,
) -> Result<(Communicator, Vec<u64>), CommError> {
    let sp = w.begin(SpanId::Recovery);
    let mut prev_size = comm.size();
    let mut small = comm.shrink()?;
    loop {
        let lost = prev_size - small.size();
        if lost > 0 {
            w.count(CounterId::RanksLost, lost as u64);
        }
        match small.allreduce_sum_u64(ledger.frame()) {
            Ok(rebuilt) => {
                w.end(sp);
                return Ok((small, rebuilt));
            }
            // Another member died while recovery was in flight: shrink the
            // already-shrunk communicator again. Terminates — every
            // iteration excludes at least the newly dead member.
            Err(CommError::RankFailed { rank }) if rank != small.world_rank() => {
                prev_size = small.size();
                small = small.shrink()?;
            }
            Err(e) => {
                return Err(e);
            }
        }
    }
}

/// The replay handle of the plan `comm` runs under, for failure messages.
pub(crate) fn plan_summary(comm: &Communicator) -> String {
    comm.fault_plan().map_or_else(|| "no plan".to_owned(), FaultPlan::summary)
}

/// Sorts a communicator failure no recovery applies to: returns when it is
/// this rank's own scheduled crash (the caller leaves the run as a dead
/// rank), panics otherwise. A peer's death outside the recoverable part of
/// a round — crash schedules are constrained to the adaptive phase — a
/// timeout or a poisoned communicator is a misconfigured plan or a bug, so
/// the message carries the whole replay tuple: where, the sampling seed and
/// the plan.
pub fn own_crash_or_fatal(
    e: &CommError,
    comm: &Communicator,
    cfg: &KadabraConfig,
    phase: &str,
    round: u32,
) {
    if e.failed_rank() == Some(comm.world_rank()) {
        return;
    }
    panic!(
        "unrecoverable communicator failure during {phase}, round {round} \
         [seed {}, plan {}]: {e}",
        cfg.seed,
        plan_summary(comm)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_mpisim::Universe;
    use kadabra_telemetry::Telemetry;

    #[test]
    fn ledger_accumulates_elementwise() {
        let mut l = SampleLedger::new(3);
        l.confirm_dense(&[1, 0, 2, 1]);
        l.confirm_dense(&[0, 5, 1, 2]);
        assert_eq!(l.frame(), &[1, 5, 3, 3]);
        assert_eq!(l.tau(), 3);
    }

    #[test]
    fn sparse_confirm_adds_each_entry() {
        let mut l = SampleLedger::new(3);
        let mut f = SparseFrame::new();
        f.push(2, 4);
        f.push(0, 1);
        f.push(2, 1);
        f.push(3, 6);
        l.confirm(&f);
        l.confirm(&f);
        assert_eq!(l.frame(), &[2, 0, 10, 12]);
        let mut untracked = SampleLedger::untracked();
        untracked.confirm(&f);
        assert!(untracked.frame().is_empty());
    }

    #[test]
    fn untracked_ledger_keeps_nothing() {
        let mut l = SampleLedger::untracked();
        l.confirm_dense(&[1, 0, 2, 1]);
        assert!(l.frame().is_empty());
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let mut l = SampleLedger::new(4);
        l.confirm_dense(&[3, 1, 4, 1, 5]);
        l.confirm_dense(&[9, 2, 6, 5, 3]);
        let bytes = l.to_bytes();
        let restored = SampleLedger::from_bytes(&bytes).unwrap();
        assert_eq!(restored.frame(), l.frame());
        assert_eq!(restored.tau(), 8);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let l = SampleLedger::new(2);
        let good = l.to_bytes();
        assert!(matches!(SampleLedger::from_bytes(&good[..7]), Err(CheckpointError::Truncated)));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 1;
        assert!(matches!(SampleLedger::from_bytes(&bad_magic), Err(CheckpointError::BadMagic)));
        let mut flipped = good.clone();
        flipped[16] ^= 0x40; // first frame word
        assert!(matches!(SampleLedger::from_bytes(&flipped), Err(CheckpointError::Corrupt)));
        let mut short = good;
        short.truncate(good_len_minus_word(&l));
        assert!(matches!(SampleLedger::from_bytes(&short), Err(CheckpointError::Truncated)));
    }

    fn good_len_minus_word(l: &SampleLedger) -> usize {
        (l.frame().len() + 2) * 8
    }

    #[test]
    fn rebuild_sums_survivor_ledgers_and_counts_losses() {
        // Rank 1 of 3 dies at its first collective; survivors recover and
        // the rebuilt state is exactly the element-wise survivor-ledger sum.
        let tel = Telemetry::stats_only();
        let plan = FaultPlan::ideal(5).with_crash_at_collective(1, 0);
        let out = Universe::run_with_plan(3, plan, |comm| {
            let w = tel.writer(comm.rank() as u32, 0);
            let mut ledger = SampleLedger::new(2);
            ledger.confirm_dense(&[comm.rank() as u64 + 1, 0, 10]);
            match comm.allreduce_sum_u64(&[0, 0, 0]) {
                Err(CommError::RankFailed { rank }) if rank == comm.world_rank() => None,
                Err(CommError::RankFailed { .. }) => {
                    let (small, rebuilt) = shrink_and_rebuild(&comm, &ledger, &w).unwrap();
                    Some((small.members().to_vec(), rebuilt))
                }
                other => panic!("expected a rank failure, got {other:?}"),
            }
        });
        assert!(out[1].is_none());
        for o in [&out[0], &out[2]] {
            let (members, rebuilt) = o.as_ref().unwrap();
            assert_eq!(members, &[0, 2]);
            // Ledgers of ranks 0 and 2: [1,0,10] + [3,0,10].
            assert_eq!(rebuilt, &[4, 0, 20]);
        }
        let summary = tel.summary();
        // Both survivors observed the same single-member loss.
        assert_eq!(summary.counter(CounterId::RanksLost), 2);
    }
}
