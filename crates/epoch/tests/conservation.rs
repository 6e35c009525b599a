//! Property test: **sample conservation** of the epoch framework under
//! randomly generated interleavings of the protocol's operations.
//!
//! The paper's Section IV-B relies on one invariant above all others: no
//! sample a worker records is ever lost or double-counted, regardless of how
//! recording, epoch transitions, and aggregation interleave. The loom tests
//! (`tests/loom.rs`) prove this exhaustively for tiny schedules with real
//! concurrency; this test complements them with *large random schedules* —
//! hundreds of operations, up to four threads, many epochs — executed as a
//! deterministic single-threaded simulation where the generated script *is*
//! the interleaving. Every script must satisfy:
//!
//! ```text
//! Σ aggregated counts == per-vertex samples produced
//! Σ aggregated τ      == total samples recorded
//! ```
//!
//! after a final flush that drains all in-flight epochs.

use kadabra_epoch::{EpochFramework, SamplerHandle};
use proptest::prelude::*;

/// One step of a generated schedule, decoded from `(op, arg)` pairs.
///
/// * `op % 8 ∈ {0..=4}` — record a sample (two interior vertices from `arg`)
///   on the thread `arg >> 12` selects.
/// * `op % 8 ∈ {5, 6}` — thread 0 control step: start a transition if none
///   is pending, otherwise aggregate once every thread has joined.
/// * `op % 8 = 7` — a non-zero thread polls `check_transition`.
struct Sim<'a> {
    fw: &'a EpochFramework,
    handles: Vec<SamplerHandle<'a>>,
    /// Next epoch to aggregate.
    epoch: u32,
    /// A `force_transition(epoch)` has been issued but not yet aggregated.
    pending: bool,
    /// Ground truth: per-vertex increments issued via `record_sample`.
    produced: Vec<u64>,
    /// Ground truth: total samples recorded.
    recorded: u64,
    /// Aggregated counts (accumulated across epochs).
    acc: Vec<u64>,
    /// Aggregated τ (accumulated across epochs).
    tau: u64,
}

impl<'a> Sim<'a> {
    fn new(fw: &'a EpochFramework, threads: usize, n: usize) -> Self {
        Sim {
            fw,
            handles: (0..threads).map(|t| fw.handle(t)).collect(),
            epoch: 0,
            pending: false,
            produced: vec![0u64; n],
            recorded: 0,
            acc: vec![0u64; n],
            tau: 0,
        }
    }

    fn step(&mut self, op: u8, arg: u16) {
        let threads = self.handles.len();
        let n = self.produced.len();
        match op % 8 {
            0..=4 => {
                let t = (arg >> 12) as usize % threads;
                let v1 = (arg as usize) % n;
                let v2 = (arg as usize >> 6) % n;
                self.handles[t].record_sample(&[v1 as u32, v2 as u32]);
                self.produced[v1] += 1;
                self.produced[v2] += 1;
                self.recorded += 1;
            }
            5 | 6 => {
                if !self.pending {
                    self.fw.force_transition(&mut self.handles[0], self.epoch);
                    self.pending = true;
                } else if self.fw.transition_done(self.epoch) {
                    self.tau += self.fw.aggregate_epoch(self.epoch, &mut self.acc);
                    self.epoch += 1;
                    self.pending = false;
                }
            }
            _ => {
                if threads > 1 {
                    let t = 1 + (arg as usize % (threads - 1));
                    self.fw.check_transition(&mut self.handles[t]);
                }
            }
        }
    }

    /// Drains every in-flight epoch. Two forced rounds suffice: at flush
    /// time no thread is past `epoch + 1`, so aggregating `epoch` and
    /// `epoch + 1` empties both frame parities.
    fn flush(&mut self) {
        for _ in 0..2 {
            if !self.pending {
                self.fw.force_transition(&mut self.handles[0], self.epoch);
            }
            for h in self.handles.iter_mut().skip(1) {
                while h.epoch() <= self.epoch {
                    assert!(self.fw.check_transition(h), "commanded epoch must be ahead");
                }
            }
            assert!(self.fw.transition_done(self.epoch));
            self.tau += self.fw.aggregate_epoch(self.epoch, &mut self.acc);
            self.epoch += 1;
            self.pending = false;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every generated interleaving, the sum of aggregated per-vertex
    /// counts equals the counts produced, and the aggregated τ equals the
    /// number of samples recorded — nothing lost, nothing double-counted.
    #[test]
    fn conservation_under_random_interleavings(
        threads in 1usize..=4,
        n in 1usize..=16,
        script in collection::vec((0u8..=255, 0u16..=u16::MAX), 1..400),
    ) {
        let fw = EpochFramework::new(n, threads);
        let mut sim = Sim::new(&fw, threads, n);
        for &(op, arg) in &script {
            sim.step(op, arg);
        }
        sim.flush();
        prop_assert_eq!(sim.tau, sim.recorded, "τ must equal samples recorded");
        prop_assert_eq!(&sim.acc, &sim.produced, "per-vertex counts must be conserved");
    }

    /// Degenerate schedules — no transitions at all, or transitions with no
    /// samples — conserve trivially (the flush drains everything).
    #[test]
    fn conservation_of_pure_recording(
        threads in 1usize..=4,
        n in 1usize..=8,
        samples in collection::vec((0u8..=4, 0u16..=u16::MAX), 0..64),
    ) {
        let fw = EpochFramework::new(n, threads);
        let mut sim = Sim::new(&fw, threads, n);
        for &(op, arg) in &samples {
            sim.step(op, arg); // op ∈ 0..=4: records only
        }
        sim.flush();
        prop_assert_eq!(sim.tau, sim.recorded);
        prop_assert_eq!(&sim.acc, &sim.produced);
    }
}
