//! Machine-readable benchmark artifacts: `BENCH_<name>.json`.
//!
//! One stable schema (`kadabra-bench/v1`) shared by every `exp_*` binary of
//! `kadabra-bench`; [`validate_json`] checks an artifact against it, and the
//! unit tests below hold the writer to the validator.

use crate::json::{escape, num, Json};
use crate::summary::Summary;
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier written into every artifact.
pub const BENCH_SCHEMA: &str = "kadabra-bench/v1";

/// One benchmarked configuration (one row of a paper table).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Instance name (graph or generator spec).
    pub instance: String,
    /// Execution mode (`seq`, `shared`, `mpi`, `epoch-mpi`, `des`, ...).
    pub mode: String,
    /// Ranks (processes).
    pub p: usize,
    /// Threads per rank.
    pub t: usize,
    /// End-to-end wall time in nanoseconds (virtual nanoseconds for DES
    /// rows — same field, per the one-schema rule).
    pub wall_ns: u64,
    /// Total samples taken across all ranks and threads.
    pub samples: u64,
    /// Epochs / stopping-condition rounds.
    pub epochs: u64,
    /// Sampling throughput over the whole run.
    pub samples_per_sec: f64,
    /// Fraction of reduction/synchronization time overlapped with sampling,
    /// in `[0, 1]`.
    pub reduction_overlap: f64,
    /// Payload bytes moved through reductions.
    pub comm_bytes: u64,
    /// Extra numeric columns specific to one benchmark family, serialized
    /// as additional JSON keys on the run object. [`validate_json`] ignores
    /// unknown keys, so consumers of the core schema are unaffected; the
    /// kernel microbenchmark uses this for `ns_per_sample` and
    /// `allocs_per_sample`.
    pub extras: Vec<(String, f64)>,
}

impl BenchRun {
    /// Builds a row from a phase [`Summary`] plus run labels. `wall_ns` is
    /// passed by the caller (end-to-end time is the driver's to measure;
    /// the summary only knows per-phase totals).
    pub fn from_summary(
        instance: &str,
        mode: &str,
        p: usize,
        t: usize,
        wall_ns: u64,
        summary: &Summary,
    ) -> Self {
        use crate::event::CounterId;
        let samples = summary.counter(CounterId::Samples);
        let samples_per_sec =
            if wall_ns > 0 { samples as f64 / (wall_ns as f64 / 1e9) } else { 0.0 };
        BenchRun {
            instance: instance.to_string(),
            mode: mode.to_string(),
            p,
            t,
            wall_ns,
            samples,
            epochs: summary.counter(CounterId::Epochs),
            samples_per_sec,
            reduction_overlap: summary.reduction_overlap(),
            comm_bytes: summary.counter(CounterId::BytesReduced),
            extras: Vec::new(),
        }
    }

    /// Adds an extra numeric column (serialized as one more JSON key).
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"instance\":\"{}\",\"mode\":\"{}\",\"p\":{},\"t\":{},\"wall_ns\":{},\
             \"samples\":{},\"epochs\":{},\"samples_per_sec\":{},\
             \"reduction_overlap\":{},\"comm_bytes\":{}",
            escape(&self.instance),
            escape(&self.mode),
            self.p,
            self.t,
            self.wall_ns,
            self.samples,
            self.epochs,
            num(self.samples_per_sec),
            num(self.reduction_overlap),
            self.comm_bytes,
        );
        for (key, value) in &self.extras {
            out.push_str(&format!(",\"{}\":{}", escape(key), num(*value)));
        }
        out.push('}');
        out
    }
}

/// A complete `BENCH_<name>.json` artifact: labels plus a list of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Artifact name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// Problem-scale knob the runs used (`KADABRA_SCALE`).
    pub scale: f64,
    /// Accuracy target ε.
    pub eps: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Benchmarked configurations.
    pub runs: Vec<BenchRun>,
}

impl BenchArtifact {
    /// An empty artifact with the given labels.
    pub fn new(name: &str, scale: f64, eps: f64, seed: u64) -> Self {
        BenchArtifact { name: name.to_string(), scale, eps, seed, runs: Vec::new() }
    }

    /// Appends one run.
    pub fn push(&mut self, run: BenchRun) {
        self.runs.push(run);
    }

    /// Serializes the artifact (pretty enough to diff, stable member order).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"{}\",\n  \"name\": \"{}\",\n  \"scale\": {},\n  \
             \"eps\": {},\n  \"seed\": {},\n  \"runs\": [\n",
            BENCH_SCHEMA,
            escape(&self.name),
            num(self.scale),
            num(self.eps),
            self.seed,
        );
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&run.to_json());
            out.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` under `dir`, returning the path.
    pub fn write_bench_json(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn require_num(run: &Json, key: &str, i: usize) -> Result<f64, String> {
    run.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("runs[{i}].{key}: missing or not a number"))
}

/// Validates a serialized artifact against the `kadabra-bench/v1` schema,
/// including value-range checks (`reduction_overlap` ∈ [0, 1], nonzero
/// throughput). Returns the artifact name on success.
pub fn validate_json(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_SCHEMA) => {}
        other => return Err(format!("schema: expected {BENCH_SCHEMA:?}, got {other:?}")),
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .filter(|n| !n.is_empty())
        .ok_or("name: missing or empty")?
        .to_string();
    for key in ["scale", "eps", "seed"] {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{key}: missing or not a number"))?;
    }
    let runs = doc.get("runs").and_then(Json::as_array).ok_or("runs: missing or not an array")?;
    if runs.is_empty() {
        return Err("runs: must be non-empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        for key in ["instance", "mode"] {
            run.get(key)
                .and_then(Json::as_str)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("runs[{i}].{key}: missing or empty"))?;
        }
        if require_num(run, "p", i)? < 1.0 || require_num(run, "t", i)? < 1.0 {
            return Err(format!("runs[{i}]: p and t must be >= 1"));
        }
        if require_num(run, "wall_ns", i)? <= 0.0 {
            return Err(format!("runs[{i}].wall_ns: must be positive"));
        }
        if require_num(run, "samples", i)? <= 0.0 {
            return Err(format!("runs[{i}].samples: must be positive"));
        }
        if require_num(run, "epochs", i)? < 1.0 {
            return Err(format!("runs[{i}].epochs: must be >= 1"));
        }
        if require_num(run, "samples_per_sec", i)? <= 0.0 {
            return Err(format!("runs[{i}].samples_per_sec: must be positive"));
        }
        let overlap = require_num(run, "reduction_overlap", i)?;
        if !(0.0..=1.0).contains(&overlap) {
            return Err(format!("runs[{i}].reduction_overlap: {overlap} outside [0, 1]"));
        }
        require_num(run, "comm_bytes", i)?;
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> BenchRun {
        BenchRun {
            instance: "gen:grid:32,32".into(),
            mode: "epoch-mpi".into(),
            p: 4,
            t: 2,
            wall_ns: 2_000_000_000,
            samples: 100_000,
            epochs: 7,
            samples_per_sec: 50_000.0,
            reduction_overlap: 0.83,
            comm_bytes: 1 << 20,
            extras: Vec::new(),
        }
    }

    #[test]
    fn artifact_roundtrips_through_validator() {
        let mut a = BenchArtifact::new("smoke", 1.0, 0.05, 42);
        a.push(run());
        let name = validate_json(&a.to_json()).expect("artifact must validate");
        assert_eq!(name, "smoke");
    }

    #[test]
    fn validator_rejects_schema_and_range_violations() {
        let mut a = BenchArtifact::new("smoke", 1.0, 0.05, 42);
        a.push(run());
        let good = a.to_json();
        assert!(validate_json(&good.replace("kadabra-bench/v1", "v0")).is_err());
        assert!(validate_json(
            &good.replace("\"reduction_overlap\":0.83", "\"reduction_overlap\":1.5")
        )
        .is_err());
        assert!(validate_json(&good.replace("\"samples\":100000", "\"samples\":0")).is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json").is_err());
        let empty = BenchArtifact::new("e", 1.0, 0.1, 1);
        assert!(validate_json(&empty.to_json()).is_err());
    }

    #[test]
    fn extras_serialize_as_keys_and_keep_the_artifact_valid() {
        let mut a = BenchArtifact::new("kernel", 1.0, 0.05, 42);
        a.push(run().with_extra("ns_per_sample", 7452.5).with_extra("allocs_per_sample", 0.0));
        let text = a.to_json();
        assert!(text.contains("\"ns_per_sample\":7452.5"), "{text}");
        assert!(text.contains("\"allocs_per_sample\":0"), "{text}");
        let doc = Json::parse(&text).expect("valid JSON");
        let runs = doc.get("runs").and_then(Json::as_array).expect("runs array");
        assert_eq!(runs[0].get("ns_per_sample").and_then(Json::as_f64), Some(7452.5));
        validate_json(&text).expect("extras must not break the v1 schema");
    }

    #[test]
    fn from_summary_derives_throughput() {
        use crate::event::{CounterId, SpanId};
        let mut s = Summary::default();
        s.counters[CounterId::Samples.index()] = 1000;
        s.counters[CounterId::Epochs.index()] = 3;
        s.counters[CounterId::BytesReduced.index()] = 4096;
        s.span_ns[SpanId::IreduceWait.index()] = 300;
        s.span_ns[SpanId::Reduce.index()] = 100;
        s.span_count[SpanId::Reduce.index()] = 1;
        let r = BenchRun::from_summary("k", "mpi", 2, 4, 1_000_000_000, &s);
        assert!((r.samples_per_sec - 1000.0).abs() < 1e-9);
        assert!((r.reduction_overlap - 0.75).abs() < 1e-12);
        assert_eq!(r.comm_bytes, 4096);
    }
}
