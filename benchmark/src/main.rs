//! The repo's one benchmark: four workloads driven through the public API of
//! the unmodified workspace crates. See README.md and `/BENCHMARK.json`.
//!
//! ```text
//! kadabra-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! kadabra-benchmark noise [--workload W]
//! ```
//!
//! The first form is what `/BENCHMARK.json`'s `command` runs: one workload in
//! one process (so `peak_rss_mib` is that workload's), every metric printed
//! by name with its unit, the result as one JSON object on the last line,
//! exit code 1 if an output was wrong. `--trace 1` records spans, runs the
//! layer probes and reports the per-layer metrics instead.

mod inputs;
mod names;
mod noise;
mod probes;
mod serve;
mod solve;
mod spans;
mod speed;
mod stats;
mod workload;

use kadabra_alloctrack::CountingAlloc;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Options, Record, Sizes, Workload, WORKLOADS};

/// Counts heap operations for `graph.kernel_allocs_per_sample`; two relaxed
/// increments per allocation, in every mode alike.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str =
    "usage: kadabra-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       kadabra-benchmark noise [--workload <name>]
       kadabra-benchmark reference --workload <name>";

/// Runs one workload and returns what it measured.
fn run_workload(opts: &Options) -> std::io::Result<Record> {
    let w = opts.workload;
    let mut rec = Record::default();
    let input = inputs::ensure(&opts.inputs_dir, (w.family)(&opts.sizes), opts.exe.as_deref())?;
    rec.set_one("harness.generate_s", input.generate_s);

    let mut tracer = Tracer::new(opts.trace, Instant::now(), 0);
    let g = match w.kind {
        Kind::Solve(driver) => solve::measure(opts, driver, &input, &mut tracer, &mut rec),
        Kind::Serve => serve::measure(opts, &input, &mut tracer, &mut rec),
    };
    if opts.trace {
        probes::run(opts, &input, &g, &ALLOC, &mut tracer, &mut rec);
        std::fs::create_dir_all(&opts.traces_dir)?;
        let path = opts.traces_dir.join(format!("{}-{}.json", w.name, opts.seed));
        tracer.write_chrome(&path)?;
        println!("# trace: {}", path.display());
    }
    Ok(rec)
}

/// Every metric by name with its unit, then the result object as the last
/// line.
fn render(opts: &Options, rec: &Record) -> String {
    use std::fmt::Write as _;
    let w = opts.workload.name;
    let speed = rec.machine_speed();
    let mut out = format!(
        "# {w}: machine speed {:.4} of nominal (median of {} readings, {:.4} to {:.4}); solve_s and samples_per_s are at the nominal speed, every other time is wall clock\n# workload metric value unit n min max\n",
        speed.value, speed.n, speed.min, speed.max
    );
    let reported = rec.reported(opts.trace);
    for (m, v) in &reported {
        let _ = writeln!(out, "{w} {} {} {} {} {} {}", m.name, v.value, m.unit, v.n, v.min, v.max);
    }
    let _ = writeln!(out, "{w} ops {} count", rec.ops);
    let _ = writeln!(out, "{w} failed_ops {} count", rec.failed.len());
    let metrics: Vec<String> = reported
        .iter()
        .map(|(m, v)| {
            let value = kadabra_telemetry::json::num(v.value);
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !rec.incorrect,
        rec.ops.max(1),
        rec.failed.len(),
        metrics.join(", ")
    );
    out
}

/// Value of `--flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::named(workload).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; one of {}", known.join(", "))
    })?;
    let seed =
        flag(args, "--seed").unwrap_or("1").parse().map_err(|_| "--seed takes a whole number")?;
    let seconds: f64 =
        flag(args, "--seconds").unwrap_or("20").parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let quick = args.iter().any(|a| a == "--quick");
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: if quick { Sizes::QUICK } else { Sizes::FULL },
        inputs_dir: PathBuf::from("target/benchmark-inputs"),
        traces_dir: PathBuf::from("target/benchmark-traces"),
        exe: Some(std::env::current_exe().map_err(|e| e.to_string())?),
    })
}

/// Child-process entry: `generate <family label> <path>`.
fn generate(args: &[String]) -> Result<(), String> {
    let [label, path] = args else { return Err(USAGE.into()) };
    let family = inputs::Family::parse(label).ok_or("unknown input family")?;
    inputs::write_dataset(family, Path::new(path)).map_err(|e| e.to_string())
}

/// `reference --workload W`: twenty readings of the machine-speed reference
/// as that workload takes them — what `speed.rs`'s nominal constants were set
/// from (so that the lower quartile of both parts reads 1).
fn reference(opts: &Options) -> Result<bool, String> {
    let w = opts.workload;
    let mut reference = speed::Reference::new(w.threads(), w.memory_share);
    println!("# workload arithmetic loads slowdown (times nominal)");
    for _ in 0..20 {
        let (slowdown, (arithmetic, loads)) = reference.slowdown();
        println!("{} {arithmetic:.4} {loads:.4} {slowdown:.4}", w.name);
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]).map(|()| true),
        Some("noise") => noise::run(&args[1..]),
        Some("reference") => parse_options(&args[1..]).and_then(|o| reference(&o)),
        _ => parse_options(&args).and_then(|opts| {
            let rec = run_workload(&opts).map_err(|e| e.to_string())?;
            print!("{}", render(&opts, &rec));
            Ok(!rec.incorrect)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("kadabra-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kadabra_telemetry::json::Json;
    use names::{Source, END_TO_END, PER_LAYER};

    /// Options of a seconds-long run at the quick sizes, with its own
    /// directories so that parallel tests share no file.
    fn quick(workload: &str, trace: bool, dir: &str) -> Options {
        let dir = PathBuf::from("target/test-scratch").join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        Options {
            workload: Workload::named(workload).expect("known workload"),
            seed: 1,
            seconds: 1.0,
            trace,
            sizes: Sizes::QUICK,
            inputs_dir: dir.join("inputs"),
            traces_dir: dir.join("traces"),
            exe: None,
        }
    }

    #[test]
    fn every_workload_runs_checks_and_reports_every_end_to_end_metric() {
        for w in WORKLOADS {
            let opts = quick(w.name, false, "run");
            let rec = run_workload(&opts).expect("run");
            assert!(!rec.incorrect && rec.failed.is_empty(), "{}: {:?}", w.name, rec.failed);
            assert!(rec.ops >= 3, "{}: the oracle solve and two repetitions at least", w.name);
            // A plain run measures nothing it does not report.
            assert!(END_TO_END.iter().all(|m| rec.values.contains_key(m.name)));
            assert!(!rec.values.contains_key("update_p50_ms"), "{}", w.name);
            assert!(!rec.values.contains_key("sync_reads_per_s"), "{}", w.name);

            let text = render(&opts, &rec);
            let doc = Json::parse(text.lines().last().expect("result line")).expect("result json");
            let Json::Object(members) = &doc else { panic!("result is an object") };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Object(metrics)) = doc.get("metrics") else { panic!("metrics object") };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            for (m, (_, entry)) in END_TO_END.iter().zip(metrics) {
                let value = entry.get("value").and_then(Json::as_f64).expect("value");
                assert!(value > 0.0, "{} {} must never be 0", w.name, m.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            }
        }
    }

    #[test]
    fn the_traced_run_reports_every_layer_metric_and_writes_a_loadable_trace() {
        // Layer metrics that may truthfully read zero even as a probe.
        let may_be_zero = ["graph.kernel_allocs_per_sample", "dynamic.compactions"];
        for w in WORKLOADS {
            let opts = quick(w.name, true, "trace");
            let rec = run_workload(&opts).expect("traced run");
            assert!(!rec.incorrect && rec.failed.is_empty(), "{}: {:?}", w.name, rec.failed);
            let reported = rec.reported(true);
            assert_eq!(reported.len(), PER_LAYER.len());
            for (m, v) in &reported {
                assert!(v.value.is_finite() && v.value >= 0.0, "{} {}", w.name, m.name);
                if m.source == Source::Probe && !may_be_zero.contains(&m.name) {
                    assert!(v.value > 0.0, "{}: probe {} measured nothing", w.name, m.name);
                }
            }
            // Layers a workload bypasses read zero; the ones it enters do not.
            let entered = |name: &str| rec.values.get(name).is_some_and(|v| v.value > 0.0);
            let epoch = w.kind == Kind::Solve(workload::Driver::EpochMpi);
            assert_eq!(entered("mpisim.bytes_per_epoch"), epoch, "{}", w.name);
            assert_eq!(entered("update_p50_ms"), w.kind == Kind::Serve, "{}", w.name);
            assert_eq!(entered("core.adaptive_sampling_s"), w.kind != Kind::Serve, "{}", w.name);

            let path = opts.traces_dir.join(format!("{}-1.json", w.name));
            let doc =
                Json::parse(&std::fs::read_to_string(path).expect("trace file")).expect("json");
            let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
            let named = |n: &str| {
                events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some(n)).count()
            };
            assert!(named("probes") == 1 && named("probe:graph.kernel") == 1);
            let measured = if w.kind == Kind::Serve { "refine" } else { "solve" };
            assert!(named(measured) >= 1, "{}: no {measured} span", w.name);
            for e in events {
                let args = e.get("args").expect("args");
                assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
                let own = args.get("self_us").and_then(Json::as_f64).expect("self_us");
                assert!(
                    own >= 0.0 && own <= e.get("dur").and_then(Json::as_f64).expect("dur") + 1e-3
                );
            }
        }
    }

    #[test]
    fn the_same_seed_reproduces_the_exact_counts_of_a_sequential_solve() {
        let count = |dir: &str| {
            let rec = run_workload(&quick("rmat-seq", true, dir)).expect("traced run");
            (rec.get("core.samples"), rec.get("graph.kernel_edges_per_sample"))
        };
        assert_eq!(count("repeat-a"), count("repeat-b"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |line: &str| line.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_options(&args("--workload rmat-seq --seed 3 --seconds 5 --trace 1")).is_ok());
        for bad in [
            "--seed 1",
            "--workload rmat-par",
            "--workload rmat-seq --trace 2",
            "--workload rmat-seq --seconds 0",
            "--workload rmat-seq --seed x",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
