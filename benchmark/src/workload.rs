//! The workloads, their sizes, and the record one run of a workload leaves.

use crate::inputs::Family;
use crate::names::{Metric, Source, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::speed::{Reference, BUFFER_MIB};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A driver of the solve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `kadabra_sequential`.
    Sequential,
    /// `kadabra_epoch_mpi` at 2 ranks × 1 thread (P·T = the box's 2 cores).
    EpochMpi,
}

/// What the measured section of a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One driver call per repetition: graph in memory → scores.
    Solve(Driver),
    /// A `Server` with three dynamic tenants: refines, update batches and
    /// socket reads side by side.
    Serve,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `/BENCHMARK.json`.
    pub name: &'static str,
    /// What runs.
    pub kind: Kind,
    /// Target ε of the measured call.
    pub eps: f64,
    /// The input family at the given sizes.
    pub family: fn(&Sizes) -> Family,
    /// Share of its time the measured call spends on loads that miss L2, as
    /// the machine-speed reference mixes its parts (`speed.rs`): fitted on the
    /// recorded disturbances so that the scaled times of a disturbed and a
    /// quiet run of this workload agree best (README.md, "Noise").
    pub memory_share: f64,
}

fn rmat(sizes: &Sizes) -> Family {
    Family::Rmat { scale: sizes.rmat_scale }
}

/// The four workloads. README.md has the reason for each.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rmat-seq",
        kind: Kind::Solve(Driver::Sequential),
        eps: 0.01,
        family: rmat,
        memory_share: 0.5,
    },
    Workload {
        name: "road-seq",
        kind: Kind::Solve(Driver::Sequential),
        eps: 0.02,
        family: |s| Family::Grid { side: s.grid_side },
        memory_share: 0.8,
    },
    Workload {
        name: "rmat-epoch",
        kind: Kind::Solve(Driver::EpochMpi),
        eps: 0.01,
        family: rmat,
        memory_share: 0.5,
    },
    Workload {
        name: "serve-mixed",
        kind: Kind::Serve,
        eps: 0.005,
        family: |s| Family::Rmat { scale: s.serve_scale },
        memory_share: 0.2,
    },
];

/// Failure probability δ of every solve (the paper's).
pub const DELTA: f64 = 0.1;

/// Instance sizes: the measured ones, or the seconds-long ones `cargo test`
/// wires all four workloads through. Quick numbers are never recorded.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// R-MAT scale of `rmat-seq` and `rmat-epoch` (they share the file).
    pub rmat_scale: u32,
    /// Grid side of `road-seq`.
    pub grid_side: usize,
    /// R-MAT scale of `serve-mixed`.
    pub serve_scale: u32,
    /// R-MAT scale of the instance the drivers are checked on against Brandes.
    pub oracle_scale: u32,
    /// Grid side of the same for `road-seq`.
    pub oracle_grid: usize,
    /// Edge deletions, and as many insertions, per update batch.
    pub batch_edges: usize,
}

impl Sizes {
    /// The sizes every recorded number comes from.
    pub const FULL: Sizes = Sizes {
        rmat_scale: 19,
        grid_side: 256,
        serve_scale: 16,
        oracle_scale: 10,
        oracle_grid: 24,
        batch_edges: 50,
    };
    /// `--quick`.
    pub const QUICK: Sizes = Sizes {
        rmat_scale: 12,
        grid_side: 48,
        serve_scale: 11,
        oracle_scale: 8,
        oracle_grid: 12,
        batch_edges: 10,
    };
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The small instance of the same family the drivers are checked on.
    pub fn oracle_family(&self, sizes: &Sizes) -> Family {
        match (self.family)(sizes) {
            Family::Rmat { .. } => Family::Rmat { scale: sizes.oracle_scale },
            Family::Grid { .. } => Family::Grid { side: sizes.oracle_grid },
        }
    }

    /// Sampling threads the measured call keeps busy.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Solve(Driver::EpochMpi) => 2,
            _ => 1,
        }
    }
}

/// Everything one invocation needs to know.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// The benchmark seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Record spans and run the layer probes.
    pub trace: bool,
    /// Instance sizes.
    pub sizes: Sizes,
    /// Directory of cached inputs.
    pub inputs_dir: PathBuf,
    /// Directory trace files go to.
    pub traces_dir: PathBuf,
    /// This executable, for generating inputs in a child process; `None`
    /// generates in-process.
    pub exe: Option<PathBuf>,
}

/// A named value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The reported value (a median unless the metric is a count or ratio).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Value {
    /// A single observation.
    pub fn one(value: f64) -> Value {
        Value { value, n: 1, min: value, max: value }
    }

    /// The median of `samples`.
    pub fn median_of(samples: &[f64]) -> Value {
        Value {
            value: median(samples),
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Record {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Operations attempted: each solve, refine, update and read is one.
    pub ops: u64,
    /// Operations that returned an error, missed their deadline or gave a
    /// wrong answer, each named with its `(workload, seed, rep)`.
    pub failed: Vec<String>,
    /// Set when an *output* was wrong (as opposed to late or refused).
    pub incorrect: bool,
    /// Readings of the machine-speed reference (`speed.rs`): one before the
    /// first measured call and one after each, as slowdowns against nominal.
    pub slowdowns: Vec<f64>,
}

impl Record {
    /// Stores a value.
    pub fn set(&mut self, name: &'static str, v: Value) {
        self.values.insert(name, v);
    }

    /// Stores a single observation.
    pub fn set_one(&mut self, name: &'static str, value: f64) {
        self.set(name, Value::one(value));
    }

    /// Stores the median of `samples`; nothing if there are none (a phase
    /// too short to produce one, at test sizes).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.set(name, Value::median_of(samples));
        }
    }

    /// Value of a metric measured earlier in this run.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).unwrap_or_else(|| panic!("{name} was not measured")).value
    }

    /// What the harness's own spans cost: the median traced repetition over
    /// the median untraced one of the same traced run (nothing in a plain run).
    pub fn set_trace_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        if !traced.is_empty() && !untraced.is_empty() {
            self.set_one("harness.trace_overhead_ratio", median(traced) / median(untraced));
        }
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, what: String) {
        eprintln!("FAILED {what}");
        self.failed.push(what);
    }

    /// Counts a failed operation whose output was wrong.
    pub fn wrong(&mut self, what: String) {
        self.incorrect = true;
        self.fail(what);
    }

    /// Takes a reading of the machine-speed reference and keeps it.
    pub fn read_speed(&mut self, reference: &mut Reference, tracer: &mut Tracer) -> f64 {
        let ((slowdown, (arithmetic, loads)), _) =
            tracer.timed("harness:reference", || reference.slowdown());
        eprintln!(
            "# reading: arithmetic {arithmetic:.3}, loads {loads:.3} times nominal; slowdown {slowdown:.3}"
        );
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// How fast the machine ran this workload's kind of work during the run,
    /// against nominal: one over the median reading (1 if none was taken).
    pub fn machine_speed(&self) -> Value {
        if self.slowdowns.is_empty() {
            return Value::one(1.0);
        }
        let speeds: Vec<f64> = self.slowdowns.iter().map(|s| 1.0 / s).collect();
        Value::median_of(&speeds)
    }

    /// The metrics this mode reports, in table order. An observed per-layer
    /// metric nobody set is zero (the measured section never entered that
    /// layer); anything else unset is a bug in the harness.
    pub fn reported(&self, trace: bool) -> Vec<(&'static Metric, Value)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|m| {
                if m.name == "harness.machine_speed" {
                    return (m, self.machine_speed());
                }
                let v = self.values.get(m.name).copied().unwrap_or_else(|| {
                    assert!(trace && m.source == Source::Observed, "{} was not measured", m.name);
                    Value::one(0.0)
                });
                (m, v)
            })
            .collect()
    }
}

/// Prints the size of the loaded input.
pub fn describe(w: &Workload, g: &kadabra_graph::Graph) {
    let mib = g.memory_bytes() as f64 / (1 << 20) as f64;
    println!("# {}: n = {}, m = {}, CSR = {mib:.1} MiB", w.name, g.num_nodes(), g.num_edges());
}

/// Repeats a set-up sequence: at least three times, then until a second has
/// gone into it or it ran 100 times — a 3 ms load gets a median of 100, a 1.4 s
/// load or a 2 s server start a median of 3 (more would take the run's time
/// from the measured section). Returns the last product and every duration.
pub fn repeat_setup<T>(mut once: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let made = once();
        times.push(t.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if times.len() >= 100 || (times.len() >= 3 && spent >= 1.0) {
            return (made, times);
        }
    }
}

/// Decides whether another repetition still belongs to a measured section of
/// `budget`: always one; a second unless the first alone used the budget up
/// (on a disturbed machine `road-seq` takes 22 s for one — two would break the
/// time the whole benchmark is given, and the agreement check between
/// repetitions then has nothing to compare); then only while at least half
/// of a typical one fits.
pub fn another_rep(done: &[f64], started: Instant, budget: Duration) -> bool {
    match done.len() {
        0 => true,
        1 => started.elapsed() < budget,
        _ => started.elapsed().as_secs_f64() + 0.5 * median(done) < budget.as_secs_f64(),
    }
}

/// `VmHWM` of this process in MiB, less the machine-speed reference's own
/// buffers on `threads` threads (a constant the program has no part in).
pub fn peak_rss_mib(threads: usize) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kib: f64 =
        line.split_whitespace().nth(1).and_then(|x| x.parse().ok()).expect("VmHWM in kB");
    kib / 1024.0 - (threads * BUFFER_MIB) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_workloads_share_one_input_and_road_has_its_own() {
        let s = Sizes::FULL;
        let family = |n| (Workload::named(n).expect("known").family)(&s);
        assert_eq!(family("rmat-seq"), family("rmat-epoch"));
        assert_ne!(family("rmat-seq"), family("serve-mixed"));
        assert_eq!(family("road-seq"), Family::Grid { side: 256 });
        assert_eq!(
            Workload::named("road-seq").expect("known").oracle_family(&s),
            Family::Grid { side: 24 }
        );
        assert!(Workload::named("rmat-par").is_none());
    }

    #[test]
    fn repetitions_stop_when_half_of_one_no_longer_fits() {
        let now = Instant::now();
        assert!(another_rep(&[], now, Duration::ZERO));
        assert!(!another_rep(&[9.0], now, Duration::ZERO));
        assert!(another_rep(&[9.0], now, Duration::from_secs(10)));
        assert!(another_rep(&[1.0, 1.0], now, Duration::from_secs(10)));
        assert!(!another_rep(&[30.0, 30.0], now, Duration::from_secs(10)));
    }

    #[test]
    fn setup_repeats_at_least_three_and_at_most_a_hundred_times() {
        let (_, fast) = repeat_setup(|| ());
        assert_eq!(fast.len(), 100);
        let (_, slow) = repeat_setup(|| std::thread::sleep(Duration::from_millis(400)));
        assert_eq!(slow.len(), 3);
    }

    #[test]
    fn peak_rss_is_a_positive_number_of_mebibytes() {
        assert!(peak_rss_mib(0) > 1.0);
        assert_eq!(peak_rss_mib(0) - peak_rss_mib(1), BUFFER_MIB as f64);
    }

    #[test]
    fn an_unset_observed_layer_metric_reads_zero() {
        let mut r = Record::default();
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Probe) {
            r.set_one(m.name, 1.0);
        }
        let out = r.reported(true);
        assert_eq!(out.len(), PER_LAYER.len());
        // The machine's speed is 1 until a reading says otherwise.
        let one = |m: &Metric| m.source == Source::Probe || m.name == "harness.machine_speed";
        assert!(out.iter().all(|(m, v)| v.value == f64::from(u8::from(one(m)))));
    }
}
