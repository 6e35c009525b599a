//! The machine-speed reference the solve times are scaled by.
//!
//! This VM is a few cores of a shared host, and its memory system is shared
//! with the host's other tenants. For minutes at a time everything that
//! misses the private L2 — the sampling kernel on every input here — runs 1.3
//! to 2 times slower, while register arithmetic and L2-resident loops keep
//! their speed (README.md, "Noise", has the records). A wall time taken here
//! therefore says as much about the neighbours as about the program, and no
//! bound the contract allows holds it.
//!
//! So the harness takes a *reading* before the first and after every measured
//! call: a fixed amount of work of its own, on as many threads as the call
//! keeps busy — a register loop, and dependent random loads over an 8 MiB and
//! a 24 MiB ring (beyond L2, where the kernel's per-vertex state and the CSR
//! live). A reading is how much slower than nominal that work ran, the two
//! parts mixed in the share of its time the workload spends on such loads
//! (`Workload::memory_share`, fitted once on recorded disturbances). A call's
//! time *at the nominal speed* is its wall time divided by the mean of the
//! readings around it. The reference is this file's code and memory only: a
//! change to the program cannot move it.

use crate::stats::{median, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

/// Sizes of the two rings, in MiB.
const RING_MIB: [usize; 2] = [8, 24];
/// What the harness's own buffers add to the process's resident set, per
/// thread of the reference; `peak_rss_mib` leaves it out.
pub const BUFFER_MIB: usize = RING_MIB[0] + RING_MIB[1];
/// A reading times each of its three parts in this many equal pieces and keeps
/// the median piece: the guest's own scheduler now and then takes a core away
/// for ten milliseconds, which is nothing to a solve and a fifth of a part.
const PIECES: usize = 5;
/// Loads per piece on each ring (about 10 ms and 16 ms at the nominal speed).
const LOADS: [u64; 2] = [200_000, 160_000];
/// Iterations of the register loop per piece (about 11 ms).
const SPINS: u64 = 8_000_000;
/// Nominal speeds, nanoseconds per iteration and per load: the lower quartile
/// of 320 readings taken on this VM over 90 minutes (`reference` prints them).
const NOMINAL_SPIN_NS: f64 = 1.35;
const NOMINAL_LOAD_NS: [f64; 2] = [47.5, 104.0];

/// A random single cycle over `len` slots (Sattolo's algorithm), so that a
/// chase visits every slot before it repeats.
fn cycle(len: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    next
}

/// One thread's rings and where each chase stands.
struct Lane {
    rings: [Vec<u32>; 2],
    at: [u32; 2],
}

impl Lane {
    fn new(seed: u64) -> Lane {
        let mut rng = SplitMix64::new(seed);
        Lane { rings: RING_MIB.map(|mib| cycle((mib << 20) / 4, &mut rng)), at: [0; 2] }
    }

    /// How much slower than nominal this thread ran: `(arithmetic, loads)`.
    fn read(&mut self) -> (f64, f64) {
        let spin = median_piece(|| {
            let mut x = 1u64;
            for i in 0..SPINS {
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            black_box(x);
        }) * 1e9
            / SPINS as f64
            / NOMINAL_SPIN_NS;
        let mut loads = 0.0;
        for k in 0..2 {
            let (ring, at) = (&self.rings[k], &mut self.at[k]);
            let piece = median_piece(|| {
                let mut p = *at;
                for _ in 0..LOADS[k] {
                    p = ring[p as usize];
                }
                *at = black_box(p);
            });
            loads += piece * 1e9 / LOADS[k] as f64 / NOMINAL_LOAD_NS[k] / 2.0;
        }
        (spin, loads)
    }
}

/// Runs `piece` [`PIECES`] times and returns the median of their seconds.
fn median_piece(mut piece: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PIECES)
        .map(|_| {
            let t = Instant::now();
            piece();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The reference of one workload.
pub struct Reference {
    lanes: Vec<Lane>,
    memory_share: f64,
}

impl Reference {
    /// A reference on `threads` threads for a workload that spends
    /// `memory_share` of its time on loads that miss L2.
    pub fn new(threads: usize, memory_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&memory_share), "a share of time");
        Reference {
            lanes: (0..threads as u64).map(|t| Lane::new(0x5EED ^ t)).collect(),
            memory_share,
        }
    }

    /// One reading, on every thread at once: how much slower than nominal the
    /// machine runs this workload's kind of work right now (1 at the nominal
    /// speed, 2 when everything takes twice as long). Also returns its parts,
    /// `(arithmetic, loads)`, for the record.
    pub fn slowdown(&mut self) -> (f64, (f64, f64)) {
        let parts: Vec<(f64, f64)> = std::thread::scope(|s| {
            let running: Vec<_> =
                self.lanes.iter_mut().map(|lane| s.spawn(move || lane.read())).collect();
            running.into_iter().map(|h| h.join().expect("reference thread")).collect()
        });
        // The less disturbed thread speaks for the machine: a third runnable
        // thread in the guest takes one core at a time, the host's neighbours
        // slow both.
        let least =
            |part: fn(&(f64, f64)) -> f64| parts.iter().map(part).fold(f64::INFINITY, f64::min);
        let (spin, loads) = (least(|p| p.0), least(|p| p.1));
        (mix(self.memory_share, spin, loads), (spin, loads))
    }
}

/// The slowdown of work that spends `memory_share` of its time on loads.
fn mix(memory_share: f64, spin: f64, loads: f64) -> f64 {
    (1.0 - memory_share) * spin + memory_share * loads
}

/// `wall` seconds measured between two readings, as seconds at the nominal
/// machine speed.
pub fn at_nominal(wall: f64, before: f64, after: f64) -> f64 {
    wall / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chase_visits_every_slot_before_it_repeats() {
        let ring = cycle(1000, &mut SplitMix64::new(3));
        let (mut p, mut seen) = (0usize, vec![false; 1000]);
        for _ in 0..1000 {
            assert!(!std::mem::replace(&mut seen[p], true));
            p = ring[p] as usize;
        }
        assert_eq!(p, 0);
    }

    #[test]
    fn a_reading_mixes_its_parts_in_the_workloads_share() {
        assert_eq!(mix(0.0, 1.5, 3.0), 1.5);
        assert_eq!(mix(1.0, 1.5, 3.0), 3.0);
        assert_eq!(mix(0.5, 1.0, 2.0), 1.5);
        let (slow, (spin, loads)) = Reference::new(2, 0.5).slowdown();
        assert!(spin > 0.0 && loads > 0.0 && (slow - mix(0.5, spin, loads)).abs() < 1e-12);
    }

    #[test]
    fn a_machine_at_half_speed_halves_the_time() {
        assert_eq!(at_nominal(10.0, 2.0, 2.0), 5.0);
        assert_eq!(at_nominal(10.0, 1.0, 1.0), 10.0);
        // A speed that changed during the call counts at the mean of the readings.
        assert_eq!(at_nominal(10.0, 1.0, 3.0), 5.0);
    }
}
