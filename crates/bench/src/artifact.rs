//! `BENCH_<name>.json` emission shared by the experiment binaries.
//!
//! Every `exp_*` binary prints its human-readable tables to stdout (captured
//! into `results/*.txt` by `results/run_all.sh`) **and** writes a
//! machine-readable artifact next to them with the same numbers, in the
//! `kadabra-bench/v1` schema ([`kadabra_telemetry::bench`]). Plotting
//! scripts consume the JSON; the text stays the artifact of record for
//! eyeballing.

use kadabra_cluster::{ReduceStrategy, SimConfig, SimReport};
use kadabra_core::BetweennessResult;
pub use kadabra_telemetry::{BenchArtifact, BenchRun};
use kadabra_telemetry::{CounterId, SpanId, Summary};
use std::path::PathBuf;

/// Where artifacts land: `KADABRA_RESULTS_DIR`, default `results/` (created
/// if missing) — the same directory `run_all.sh` redirects the text into.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("KADABRA_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    PathBuf::from(dir)
}

/// One BENCH row from a DES report. The report's phase columns are projected
/// through a telemetry [`Summary`] so throughput and overlap come from the
/// exact same formulas as live traced runs (the one-schema rule; the DES
/// trace-conformance test in `kadabra-cluster` pins the column equality).
pub fn des_run(instance: &str, sim: &SimConfig, r: &SimReport) -> BenchRun {
    let mode = match sim.strategy {
        ReduceStrategy::IbarrierThenBlockingReduce => "des",
        ReduceStrategy::Ireduce => "des-ireduce",
        ReduceStrategy::FullyBlocking => "des-blocking",
    };
    des_run_labelled(instance, mode, sim.shape.ranks, sim.shape.threads_per_rank, r)
}

/// [`des_run`] with an explicit mode label and shape — for reports that have
/// no [`SimConfig`], like the naive fork-join simulator's.
pub fn des_run_labelled(instance: &str, mode: &str, p: usize, t: usize, r: &SimReport) -> BenchRun {
    let mut s = Summary::default();
    s.span_ns[SpanId::IbarrierWait.index()] = r.barrier_wait_ns;
    s.span_ns[SpanId::TransitionWait.index()] = r.transition_ns;
    s.span_ns[SpanId::Reduce.index()] = r.reduce_ns;
    s.span_ns[SpanId::Check.index()] = r.check_ns;
    s.span_ns[SpanId::Rebalance.index()] = r.rebalance_ns;
    s.counters[CounterId::Samples.index()] = r.samples;
    s.counters[CounterId::Epochs.index()] = r.epochs;
    s.counters[CounterId::BytesReduced.index()] = r.comm_bytes;
    s.counters[CounterId::RanksJoined.index()] = r.ranks_joined;
    s.counters[CounterId::SamplesStolen.index()] = r.samples_stolen;
    BenchRun::from_summary(instance, mode, p, t, r.total_ns(), &s)
}

/// One BENCH row from a live run's [`BetweennessResult`]. The Table-II stats
/// (which the drivers themselves derive from telemetry spans) map back onto
/// the matching [`Summary`] spans, so throughput and overlap again come from
/// the shared formulas.
pub fn live_run(instance: &str, mode: &str, p: usize, t: usize, r: &BetweennessResult) -> BenchRun {
    let mut s = Summary::default();
    s.span_ns[SpanId::IbarrierWait.index()] = r.stats.barrier_wait.as_nanos() as u64;
    s.span_ns[SpanId::TransitionWait.index()] = r.stats.transition_wait.as_nanos() as u64;
    s.span_ns[SpanId::Reduce.index()] = r.stats.reduce_time.as_nanos() as u64;
    s.span_ns[SpanId::Check.index()] = r.stats.check_time.as_nanos() as u64;
    s.counters[CounterId::Samples.index()] = r.samples;
    s.counters[CounterId::Epochs.index()] = r.stats.epochs;
    s.counters[CounterId::BytesReduced.index()] = r.stats.comm_bytes;
    BenchRun::from_summary(instance, mode, p, t, r.timings.total().as_nanos() as u64, &s)
}

/// Writes `BENCH_<name>.json` under [`results_dir`] and logs the path to
/// stderr. Emission failures are warnings, not aborts: the text tables on
/// stdout are already complete, and a read-only results directory should
/// not kill a finished multi-minute experiment.
pub fn emit(artifact: &BenchArtifact) {
    if artifact.runs.is_empty() {
        eprintln!("warning: BENCH_{}: no runs recorded; skipping artifact", artifact.name);
        return;
    }
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    match artifact.write_bench_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_{}: write failed: {e}", artifact.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_core::ClusterShape;
    use kadabra_telemetry::validate_json;

    fn report() -> SimReport {
        SimReport {
            scores: vec![0.0; 4],
            samples: 9000,
            omega: 20_000,
            epochs: 4,
            ads_ns: 3_000_000,
            calibration_ns: 400_000,
            diameter_ns: 100_000,
            barrier_wait_ns: 50_000,
            reduce_ns: 10_000,
            transition_ns: 70_000,
            check_ns: 4_000,
            comm_bytes: 8192,
            total_threads: 8,
            ranks_lost: 0,
            recovery_ns: 0,
            ranks_joined: 0,
            samples_stolen: 0,
            rebalance_ns: 0,
        }
    }

    #[test]
    fn des_run_validates_and_reflects_the_report() {
        let sim = SimConfig {
            shape: ClusterShape { ranks: 4, ranks_per_node: 2, threads_per_rank: 2 },
            strategy: ReduceStrategy::IbarrierThenBlockingReduce,
            numa_penalty: false,
            steal: false,
        };
        let r = report();
        let run = des_run("proxy-orkut", &sim, &r);
        assert_eq!(run.mode, "des");
        assert_eq!(run.wall_ns, r.total_ns());
        assert_eq!(run.samples, 9000);
        assert_eq!(run.comm_bytes, 8192);
        // overlapped = barrier + transition, blocking = reduce.
        let expect = 120_000.0 / 130_000.0;
        assert!((run.reduction_overlap - expect).abs() < 1e-12);
        let mut a = BenchArtifact::new("unit", 1.0, 0.03, 42);
        a.push(run);
        validate_json(&a.to_json()).expect("artifact must validate");
    }

    #[test]
    fn live_rows_of_every_driver_kind_validate() {
        use kadabra_core::{
            kadabra_epoch_mpi, kadabra_mpi_flat, kadabra_sequential, KadabraConfig,
        };
        use kadabra_graph::components::largest_component;
        use kadabra_graph::generators::{gnm, GnmConfig};

        let (g, _) = largest_component(&gnm(GnmConfig { n: 80, m: 220, seed: 42 }));
        let cfg = KadabraConfig { epsilon: 0.08, delta: 0.1, seed: 42, ..Default::default() };
        let shape = ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 };
        let mut a = BenchArtifact::new("unit", 1.0, cfg.epsilon, cfg.seed);
        a.push(live_run("gnm-80", "seq", 1, 1, &kadabra_sequential(&g, &cfg)));
        a.push(live_run("gnm-80", "mpi", 2, 1, &kadabra_mpi_flat(&g, &cfg, 2)));
        a.push(live_run("gnm-80", "epoch-mpi", 2, 2, &kadabra_epoch_mpi(&g, &cfg, shape)));
        assert!(a.runs.iter().all(|r| r.samples > 0));
        validate_json(&a.to_json()).expect("live rows must validate");
    }

    #[test]
    fn ireduce_mode_is_labelled_and_fully_overlapped() {
        let sim = SimConfig {
            shape: ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 2 },
            strategy: ReduceStrategy::Ireduce,
            numa_penalty: false,
            steal: false,
        };
        let mut r = report();
        r.reduce_ns = 0; // the DES books no blocking reduce time for Ireduce
        let run = des_run("proxy-orkut", &sim, &r);
        assert_eq!(run.mode, "des-ireduce");
        assert!((run.reduction_overlap - 1.0).abs() < 1e-12);
    }
}
