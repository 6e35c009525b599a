//! Point-to-point messaging and gather collectives.
//!
//! The paper's algorithms use collectives exclusively, but a credible MPI
//! substrate needs the point-to-point layer too (and the experiment CLI
//! uses `gather` to collect distributed score vectors). Matching follows
//! MPI semantics: messages between a (sender, receiver, tag) triple are
//! non-overtaking (FIFO); `send` is buffered (never blocks); `recv` blocks
//! until a matching message arrives — or fails with a typed
//! [`CommError`]: `RankFailed` once the awaited source is declared dead
//! with nothing pending, `Timeout` when the deadlock budget runs out.

use crate::comm::Communicator;
use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::health::WorldHealth;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Re-check period of a blocking receive (matches the engine's wait slice):
/// each slice the receiver re-examines pending messages and the sender's
/// liveness.
const RECV_SLICE: Duration = Duration::from_millis(5);

/// One (src, dst, tag) message stream. Each posted message gets a send
/// index and a *delivery slot* (slot = index, unless a fault plan displaces
/// it by a bounded jitter); `take` always pops the pending message with the
/// smallest `(slot, index)`.
///
/// Without a plan (or with zero jitter) slots equal indices and this is
/// exactly MPI's non-overtaking FIFO. With jitter, delivery is the
/// deterministic slot-sorted permutation of whatever is pending — fully
/// reproducible whenever the receiver's `recv`s are ordered after the sends
/// (barrier, collective, or request completion in between); under a live
/// send/recv race the *set* delivered is unchanged and only the
/// plan-chosen permutation can shrink toward FIFO.
#[derive(Default)]
struct Stream {
    /// Messages posted so far (the next message's send index).
    sent: u64,
    /// (delivery slot, send index) -> payload; `take` pops the minimum.
    pending: BTreeMap<(u64, u64), Vec<u64>>,
}

/// (src, dst, tag) -> message stream.
type QueueMap = HashMap<(usize, usize, u64), Stream>;

/// Message mailbox shared by all ranks of a communicator.
pub(crate) struct Mailbox {
    queues: Mutex<QueueMap>,
    cv: Condvar,
    /// Fault plan shared with the owning engine (None = plain FIFO).
    plan: Option<Arc<FaultPlan>>,
    /// The owning communicator's plan-hash salt.
    salt: u64,
    /// Deadlock budget, already scaled by the plan's worst injected latency.
    timeout: Duration,
    /// World rank of each member (indexed by communicator rank), for
    /// dead-sender detection.
    members: Vec<usize>,
    /// Liveness registry shared with the owning engine.
    health: Arc<WorldHealth>,
}

impl Mailbox {
    pub(crate) fn new(
        plan: Option<Arc<FaultPlan>>,
        salt: u64,
        timeout: Duration,
        members: Vec<usize>,
        health: Arc<WorldHealth>,
    ) -> Arc<Self> {
        Arc::new(Mailbox {
            queues: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            plan,
            salt,
            timeout,
            members,
            health,
        })
    }

    /// The `(plan, seed)` replay pair for failure diagnostics.
    fn replay(&self) -> String {
        match &self.plan {
            Some(p) => p.summary(),
            None => "plan: none (free-running)".to_string(),
        }
    }

    fn post(&self, src: usize, dst: usize, tag: u64, payload: Vec<u64>) {
        let mut q = self.queues.lock();
        let stream = q.entry((src, dst, tag)).or_default();
        let idx = stream.sent;
        stream.sent += 1;
        let slot = match &self.plan {
            Some(p) => p.p2p_slot(self.salt, src, dst, tag, idx),
            None => idx,
        };
        stream.pending.insert((slot, idx), payload);
        self.cv.notify_all();
    }

    /// Pops the minimum pending `(slot, index)` and returns it with the
    /// payload, so the receiver's tracer can record the delivery slot.
    ///
    /// Pending messages win over a dead sender (a buffered send survives the
    /// sender's crash, as in MPI); only an *empty* stream from a dead source
    /// fails, because nothing new can ever be posted.
    fn take(&self, src: usize, dst: usize, tag: u64) -> Result<((u64, u64), Vec<u64>), CommError> {
        let mut q = self.queues.lock();
        let mut waited = Duration::ZERO;
        loop {
            if let Some(stream) = q.get_mut(&(src, dst, tag)) {
                if let Some((&key, _)) = stream.pending.iter().next() {
                    #[expect(
                        clippy::expect_used,
                        reason = "`key` was just observed present and the map is under the same \
                                  lock"
                    )]
                    let payload = stream.pending.remove(&key).expect("pending message present");
                    return Ok((key, payload));
                }
            }
            let src_world = self.members[src];
            if self.health.is_dead(src_world) {
                return Err(CommError::RankFailed { rank: src_world });
            }
            if self.cv.wait_for(&mut q, RECV_SLICE).timed_out() {
                waited += RECV_SLICE;
                if waited >= self.timeout {
                    return Err(CommError::Timeout {
                        op: format!(
                            "recv from rank {src} to rank {dst} with tag {tag}: no message \
                             after {:?}",
                            self.timeout
                        ),
                        replay: self.replay(),
                    });
                }
            }
        }
    }

    fn probe(&self, src: usize, dst: usize, tag: u64) -> bool {
        let q = self.queues.lock();
        q.get(&(src, dst, tag)).is_some_and(|stream| !stream.pending.is_empty())
    }
}

impl Communicator {
    /// Buffered send of a `u64` payload to `dst` with a message `tag`
    /// (`MPI_Send` with an eager/buffered protocol — never blocks).
    pub fn send_u64s(&self, dst: usize, tag: u64, payload: &[u64]) {
        assert!(dst < self.size(), "destination out of range");
        self.engine_add_bytes(payload.len() as u64 * 8);
        self.mailbox().post(self.rank(), dst, tag, payload.to_vec());
    }

    /// Blocking receive of a message from `src` with `tag` (`MPI_Recv`).
    pub fn recv_u64s(&self, src: usize, tag: u64) -> Result<Vec<u64>, CommError> {
        assert!(src < self.size(), "source out of range");
        let ((slot, _idx), payload) = self.mailbox().take(src, self.rank(), tag)?;
        self.trace_p2p(src, slot);
        Ok(payload)
    }

    /// Non-blocking probe: whether a message from `src` with `tag` is ready.
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        self.mailbox().probe(src, self.rank(), tag)
    }

    /// Gathers every rank's vector at `root` (`MPI_Gatherv`): the root
    /// receives all payloads ordered by rank; other ranks receive `None`.
    /// Implemented over point-to-point with a reserved tag space.
    pub fn gather_u64s(
        &self,
        root: usize,
        payload: &[u64],
    ) -> Result<Option<Vec<Vec<u64>>>, CommError> {
        assert!(root < self.size(), "root out of range");
        const GATHER_TAG: u64 = u64::MAX - 0xA1;
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    out.push(payload.to_vec());
                } else {
                    out.push(self.recv_u64s(src, GATHER_TAG)?);
                }
            }
            Ok(Some(out))
        } else {
            self.send_u64s(root, GATHER_TAG, payload);
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FaultPlan, Universe};

    #[test]
    fn send_recv_roundtrip() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_u64s(1, 7, &[1, 2, 3]);
                Vec::new()
            } else {
                comm.recv_u64s(0, 7).unwrap()
            }
        });
        assert_eq!(out[1], vec![1, 2, 3]);
    }

    #[test]
    fn messages_are_fifo_per_tag() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send_u64s(1, 1, &[i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| comm.recv_u64s(0, 1).unwrap()[0]).collect()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn tags_demultiplex() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_u64s(1, 100, &[100]);
                comm.send_u64s(1, 200, &[200]);
                (0, 0)
            } else {
                // Receive in reverse send order; tags keep them apart.
                let b = comm.recv_u64s(0, 200).unwrap()[0];
                let a = comm.recv_u64s(0, 100).unwrap()[0];
                (a, b)
            }
        });
        assert_eq!(out[1], (100, 200));
    }

    #[test]
    fn probe_reflects_availability() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_u64s(1, 5, &[42]);
                comm.barrier().unwrap();
                true
            } else {
                comm.barrier().unwrap(); // ensure the message has been posted
                let ready = comm.probe(0, 5);
                let v = comm.recv_u64s(0, 5).unwrap();
                ready && v == vec![42] && !comm.probe(0, 5)
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::run(4, |comm| {
            let mine = vec![comm.rank() as u64; comm.rank() + 1];
            comm.gather_u64s(2, &mine).unwrap()
        });
        let g = out[2].as_ref().unwrap();
        assert_eq!(g.len(), 4);
        for (rank, payload) in g.iter().enumerate() {
            assert_eq!(payload.len(), rank + 1);
            assert!(payload.iter().all(|&x| x == rank as u64));
        }
        for (rank, o) in out.iter().enumerate() {
            if rank != 2 {
                assert!(o.is_none());
            }
        }
    }

    #[test]
    fn cross_traffic_between_many_ranks() {
        let out = Universe::run(4, |comm| {
            // Everyone sends its rank to everyone else, then sums receipts.
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    comm.send_u64s(dst, 9, &[comm.rank() as u64]);
                }
            }
            let mut sum = 0;
            for src in 0..comm.size() {
                if src != comm.rank() {
                    sum += comm.recv_u64s(src, 9).unwrap()[0];
                }
            }
            sum
        });
        for (rank, &sum) in out.iter().enumerate() {
            assert_eq!(sum, 6 - rank as u64); // 0+1+2+3 minus own rank
        }
    }

    #[test]
    fn self_send_is_delivered() {
        // MPI allows a rank to message itself (buffered send never blocks,
        // so this cannot deadlock); FIFO applies to the self-stream too.
        let out = Universe::run(2, |comm| {
            comm.send_u64s(comm.rank(), 3, &[10]);
            comm.send_u64s(comm.rank(), 3, &[20]);
            let a = comm.recv_u64s(comm.rank(), 3).unwrap()[0];
            let b = comm.recv_u64s(comm.rank(), 3).unwrap()[0];
            (a, b)
        });
        assert_eq!(out, vec![(10, 20), (10, 20)]);
    }

    #[test]
    fn split_communicators_have_isolated_mailboxes() {
        // The same (src=0, dst=1, tag) triple in the parent and in a child
        // communicator must address different streams: a message posted on
        // the world mailbox is invisible to the child and vice versa.
        let out = Universe::run(4, |comm| {
            let sub = comm.split(u32::try_from(comm.rank() % 2).unwrap_or(0), 0).unwrap();
            // World traffic: 0 -> 1. Child traffic (color 0: world ranks
            // {0, 2} as sub ranks {0, 1}): sub 0 -> sub 1 with the SAME tag.
            if comm.rank() == 0 {
                comm.send_u64s(1, 7, &[111]);
                sub.send_u64s(1, 7, &[222]);
            }
            comm.barrier().unwrap();
            match comm.rank() {
                1 => comm.recv_u64s(0, 7).unwrap()[0],
                2 => sub.recv_u64s(0, 7).unwrap()[0],
                _ => 0,
            }
        });
        assert_eq!(out[1], 111, "world message must stay on the world mailbox");
        assert_eq!(out[2], 222, "child message must stay on the child mailbox");
    }

    #[test]
    fn fault_plan_reorders_p2p_deterministically() {
        let plan = FaultPlan::ideal(42).with_p2p_jitter(3);
        let run = || {
            Universe::run_with_plan(2, plan.clone(), |comm| {
                if comm.rank() == 0 {
                    for i in 0..32u64 {
                        comm.send_u64s(1, 1, &[i]);
                    }
                    comm.barrier().unwrap();
                    Vec::new()
                } else {
                    comm.barrier().unwrap(); // all messages pending before any recv
                    (0..32).map(|_| comm.recv_u64s(0, 1).unwrap()[0]).collect::<Vec<u64>>()
                }
            })
        };
        let a = run();
        // All messages delivered exactly once...
        let mut sorted = a[1].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u64>>());
        // ...in a genuinely perturbed order...
        assert_ne!(a[1], (0..32).collect::<Vec<u64>>(), "jitter produced no reorder");
        // ...with bounded displacement (a message overtakes at most
        // `jitter` logically-earlier messages)...
        for (pos, &v) in a[1].iter().enumerate() {
            assert!(
                (pos as u64).abs_diff(v) <= 3,
                "message {v} displaced to position {pos}: beyond jitter bound"
            );
        }
        // ...and the permutation replays identically from (plan, seed).
        assert_eq!(a[1], run()[1], "p2p reorder not reproducible: {}", plan.summary());
    }

    #[test]
    fn ideal_plan_keeps_p2p_fifo() {
        let out = Universe::run_with_plan(2, FaultPlan::ideal(9), |comm| {
            if comm.rank() == 0 {
                for i in 0..16u64 {
                    comm.send_u64s(1, 4, &[i]);
                }
                Vec::new()
            } else {
                (0..16).map(|_| comm.recv_u64s(0, 4).unwrap()[0]).collect()
            }
        });
        assert_eq!(out[1], (0..16).collect::<Vec<u64>>());
    }
}
