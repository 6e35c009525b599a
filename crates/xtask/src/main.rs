//! Workspace automation, invoked as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! # `cargo xtask lint`
//!
//! Workspace static analysis over `crates/` and the root `src/`, `tests/`,
//! `examples/` trees, enforcing rules that clippy cannot express. The
//! engine is the `kadabra-lint` AST framework (DESIGN.md §12): a
//! hand-rolled lexer and item-level parser drive a registry of passes, each
//! reporting precise `(line, col)` spans. `--json PATH` writes the
//! machine-readable `kadabra-lint/v2` report (schema-validated before the
//! command exits, and written even when findings fail the run so CI can
//! upload it as an artifact).
//!
//! The token-level rules:
//!
//! * **seqcst** — `Ordering::SeqCst` is banned everywhere. Every atomic in
//!   this workspace has an explicit pairing argument (Release publish /
//!   Acquire consume, or Relaxed where a lock or collective provides the
//!   ordering); `SeqCst` would paper over a missing argument rather than
//!   supply one, and the loom scenarios in `crates/epoch/tests/loom.rs`
//!   verify the weaker orderings are actually sufficient.
//! * **direct-atomics** — atomic types must be imported from a crate's
//!   `sync.rs` indirection module (which swaps in the loom model checker
//!   under `--features loom`), never from `std::sync::atomic` directly.
//!   Files named `sync.rs` and test code are exempt.
//!
//! Clippy has no lint for either: it cannot name one enum variant, and its
//! `disallowed-types` would flag every use of a `sync.rs` re-export too.
//! The token rules clippy does express are clippy's (DESIGN.md §12.4):
//! `unwrap_used`/`expect_used` in every library crate, `panic` in
//! `kadabra-mpisim`, and `disallowed-methods` on `Instant::now`/
//! `SystemTime::now` in `core`, `graph`, `mpisim` and `cluster`, each
//! denied at the crate root and configured in `crates/clippy.toml`.
//!
//! Five semantic passes sit on top (see `crates/lint/src/passes/` for the
//! full rationale of each):
//!
//! * **comm-error-flow** — call sites of the communicator API (harvested
//!   from `pub fn … -> Result<_, CommError>` signatures in
//!   `crates/mpisim/src`) must not swallow the error: `.ok()`,
//!   `.unwrap_or*(…)`, `let _ =`, and bare-statement drops are flagged;
//!   `?`, `match`, and named bindings pass.
//! * **atomic-protocol** — a workspace-wide inventory of atomic operations
//!   per `(crate, field)`: Release stores with no Acquire consumer,
//!   Acquire loads with no Release publisher, and Relaxed operations on
//!   fields that participate in a Release/Acquire protocol are flagged.
//! * **determinism** — name-based taint from hash-ordered containers
//!   (`HashMap`/`HashSet`, through type aliases and struct fields) to
//!   order-sensitive sinks: `for … in`, iteration adaptors, and float
//!   accumulation over hash order; plus `len() as u32`-style truncating
//!   casts in the reproducible crates.
//! * **hot-loop-hygiene** — no allocation, locking, cloning, formatting,
//!   or collectives inside per-sample code: `sample_batch` consume
//!   closures and the named hot functions of `crates/core`/`crates/graph`.
//! * **delta-confinement** — tenant graphs mutate only through the
//!   `DeltaLog` API: no direct overlay mutator calls outside
//!   `crates/dynamic`.
//!
//! Any rule can be waived for one line with a trailing or preceding comment
//! `// xtask: allow(<rule>) — <why this occurrence is sound>`. Waivers are
//! part of the diff and hence of code review.
//!
//! The engine lexes rather than greps: comments, string literals, and
//! `#[cfg(test)]` modules are stripped or marked before matching, so prose
//! *about* `SeqCst` never trips a rule. `shims/` is deliberately out of
//! scope — those crates reproduce third-party APIs (including their
//! `SeqCst` surface) and are not governed by this workspace's concurrency
//! discipline; `fixtures` directories are skipped too, since they exist to
//! violate the rules on purpose.
//!
//! # `cargo xtask deny`
//!
//! Supply-chain gate: runs `cargo deny check` against the root `deny.toml`
//! (RustSec advisories, license allow-list, duplicate major versions,
//! source pinning). The cargo-deny binary is not vendored; where it is
//! missing the command prints the install line and exits 2, and CI runs it
//! as an advisory job.
//!
//! # `cargo xtask loom` / `tsan` / `miri`
//!
//! Drivers for the three verification backends. `loom` runs on stable;
//! `tsan` and `miri` need nightly components that may be absent in an
//! offline container, in which case they print exactly what is missing and
//! exit with code 2 (CI marks those jobs allowed-to-fail). `tsan` runs the
//! `kadabra-epoch` and `kadabra-mpisim` tests, then the `kadabra-graph`
//! library tests filtered to the binary loader's (`io::`, `cursor`).
//!
//! # `cargo xtask bench --smoke`
//!
//! Runs the `bench_smoke` binary (a tiny instance through the sequential,
//! flat-MPI and epoch-MPI drivers), the `bench_server` binary (the
//! resident service's query path, which self-gates ≥ 1k queries/s and an
//! allocation-free cache read path), and the `bench_dynamic` binary (the
//! streaming-update path, which self-gates update-and-reconverge work
//! under 25% of a from-scratch run and ε-accuracy against the Brandes
//! oracle), and the `bench_elastic` binary (the elastic scale-out path,
//! which self-gates a ≥ 1.2× mid-run-grow speedup over the static
//! continuation, the cluster DES's steal model decoupling round latency
//! from the straggler factor, and a live grow within ε), writing `BENCH_smoke.json`, `BENCH_server.json`,
//! `BENCH_dynamic.json`, and `BENCH_elastic.json` to the repo root, then
//! validates the artifacts
//! against the `kadabra-bench/v1` schema — including the value-range
//! checks (nonzero samples/sec, reduction-overlap fraction in [0, 1]). A
//! required CI job, so schema drift fails the PR that causes it, not a
//! plotting script later.
//!
//! # `cargo xtask bench --kernel [--check]`
//!
//! The sampling-kernel perf-regression gate (DESIGN.md §11). Without
//! `--check`, runs the `bench_kernel` binary and records `BENCH_kernel.json`
//! at the repo root — the committed baseline. With `--check`, measures into
//! `target/bench-kernel/` instead and fails when the fresh `kernel` row
//! (relabeled production layout) falls more than 15% below the committed
//! baseline's `samples_per_sec` (`KADABRA_KERNEL_TOLERANCE` overrides the
//! fraction) or reports a nonzero `allocs_per_sample`.
//!
//! # `cargo xtask chaos`
//!
//! Runs the chaos conformance suite (DESIGN.md §8) in release mode: the
//! fault-injection unit tests of `kadabra-mpisim` and `kadabra-epoch`, the
//! fault-plan corpus sweeps of `tests/chaos.rs`, and the seed-matrix
//! determinism regression of `tests/determinism_matrix.rs`. `--plans N` (or
//! `KADABRA_CHAOS_PLANS`) sizes the straggler corpus, `--crashes N` (or
//! `KADABRA_CHAOS_CRASHES`) the rank-crash corpus, and `--grows N` (or
//! `KADABRA_CHAOS_GROWS`) the elastic-join corpus; the defaults of 4 keep
//! the required CI job around two minutes, the nightly advisory job raises
//! them.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("deny") => cmd_deny(),
        Some("loom") => cmd_loom(),
        Some("tsan") => cmd_tsan(),
        Some("miri") => cmd_miri(),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <command>\n\n\
                 commands:\n  \
                 lint   AST-based semantic lint passes (stable)\n         \
                 [--json PATH] write + validate the kadabra-lint/v2 report\n  \
                 deny   supply-chain gate via cargo-deny, config in deny.toml (skips if absent)\n  \
                 loom   model-check the epoch protocol + telemetry recorder + server cache (stable)\n  \
                 tsan   run concurrency tests under ThreadSanitizer (nightly + rust-src)\n  \
                 miri   run epoch tests under Miri (nightly + miri component)\n  \
                 chaos  run the chaos conformance suite [--plans N] [--crashes N] [--grows N] (stable)\n  \
                 bench  --smoke: emit and schema-validate BENCH_smoke.json + BENCH_server.json (stable)\n         \
                 --kernel [--check]: sampling-kernel perf baseline / regression gate"
            );
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask lint: --json needs a path argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    cmd_lint_ast(json_path)
}

/// The AST lint engine (`kadabra-lint`): parses the workspace, runs every
/// registered pass, applies inline waivers, and fails on any active
/// finding. `--json PATH` also writes (and schema-validates) the
/// `kadabra-lint/v2` report for CI to upload.
fn cmd_lint_ast(json_path: Option<PathBuf>) -> ExitCode {
    let root = workspace_root();
    let ws = match kadabra_lint::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask lint: failed to read the workspace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let passes = kadabra_lint::passes::all();
    let pass_refs: Vec<&dyn kadabra_lint::Pass> = passes.iter().map(AsRef::as_ref).collect();
    let report = ws.run(&pass_refs);

    for f in report.active() {
        println!(
            "{}:{}:{}: [{}] {}\n    `{}`\n    hint: {}",
            f.file, f.line, f.col, f.pass, f.message, f.excerpt, f.hint
        );
    }

    if let Some(path) = &json_path {
        let json = report.to_json();
        if let Err(e) = kadabra_lint::report::validate_report(&json) {
            eprintln!("xtask lint: generated report failed schema validation: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("xtask lint: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "xtask lint: wrote {} (schema {})",
            path.display(),
            kadabra_lint::report::LINT_SCHEMA
        );
    }

    let (total, active, waived) = report.counts();
    if active == 0 {
        println!(
            "xtask lint: {} files clean across {} passes ({} waived)",
            report.files_scanned,
            report.passes.len(),
            waived
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "\nxtask lint: {active} active finding(s) ({total} total, {waived} waived) in {} \
         file(s); waive a line with `// xtask: allow(<pass>) — <reason>` if \
         the occurrence is deliberate",
        report.files_scanned
    );
    ExitCode::FAILURE
}

fn workspace_root() -> PathBuf {
    // Under `cargo run -p xtask` the manifest dir is crates/xtask; the
    // workspace root is two levels up. Fall back to CWD for direct
    // invocation of the built binary.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => {
            let p = PathBuf::from(dir);
            match p.parent().and_then(Path::parent) {
                Some(root) => root.to_path_buf(),
                None => p,
            }
        }
        Err(_) => PathBuf::from("."),
    }
}

// ---------------------------------------------------------------------------
// supply-chain gate
// ---------------------------------------------------------------------------

/// `cargo xtask deny`: the supply-chain gate. Runs `cargo deny check`
/// against the committed `deny.toml` (advisories, license allow-list,
/// duplicate-major bans, registry sources). The cargo-deny binary is not
/// baked into the offline container, so — like `tsan`/`miri` — the command
/// reports exactly what is missing and exits 2 when it cannot run; CI runs
/// it as an advisory job.
fn cmd_deny() -> ExitCode {
    let root = workspace_root();
    if !root.join("deny.toml").exists() {
        eprintln!("xtask deny: deny.toml not found at the workspace root");
        return ExitCode::FAILURE;
    }
    let available = Command::new("cargo")
        .args(["deny", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !available {
        return missing_toolchain(
            "deny",
            "the cargo-deny binary",
            "cargo install cargo-deny --locked && cargo xtask deny",
        );
    }
    println!("xtask deny: cargo deny check (advisories, licenses, bans, sources)");
    run_stream(Command::new("cargo").args(["deny", "check"]).current_dir(root))
}

// ---------------------------------------------------------------------------
// verification-backend drivers
// ---------------------------------------------------------------------------

/// Runs the chaos conformance suite in release mode: the fault-plan corpus
/// sweeps (`tests/chaos.rs`), the seed-matrix determinism regression
/// (`tests/determinism_matrix.rs`) and the in-crate fault/chaos unit tests.
///
/// `--plans N` (or the `KADABRA_CHAOS_PLANS` environment variable) sets the
/// straggler-corpus size per sweep, `--crashes N` (or
/// `KADABRA_CHAOS_CRASHES`) the rank-crash corpus size, and `--grows N` (or
/// `KADABRA_CHAOS_GROWS`) the elastic-join corpus size; CI uses small
/// bounded corpora on every push and larger ones nightly.
fn cmd_chaos(args: &[String]) -> ExitCode {
    let mut plans: Option<String> = std::env::var("KADABRA_CHAOS_PLANS").ok();
    let mut crashes: Option<String> = std::env::var("KADABRA_CHAOS_CRASHES").ok();
    let mut grows: Option<String> = std::env::var("KADABRA_CHAOS_GROWS").ok();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plans" => match it.next() {
                Some(n) if n.parse::<u64>().is_ok() => plans = Some(n.clone()),
                _ => {
                    eprintln!("xtask chaos: --plans needs an integer argument");
                    return ExitCode::from(2);
                }
            },
            "--crashes" => match it.next() {
                Some(n) if n.parse::<u64>().is_ok() => crashes = Some(n.clone()),
                _ => {
                    eprintln!("xtask chaos: --crashes needs an integer argument");
                    return ExitCode::from(2);
                }
            },
            "--grows" => match it.next() {
                Some(n) if n.parse::<u64>().is_ok() => grows = Some(n.clone()),
                _ => {
                    eprintln!("xtask chaos: --grows needs an integer argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask chaos: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let plans = plans.unwrap_or_else(|| "4".to_string());
    let crashes = crashes.unwrap_or_else(|| "4".to_string());
    let grows = grows.unwrap_or_else(|| "4".to_string());
    println!(
        "xtask chaos: corpus of {plans} fault plans / {crashes} crash plans / {grows} grow \
         plans per sweep (release mode)"
    );
    let root = workspace_root();
    // Fault-layer unit tests first (fast, precise diagnostics), then the
    // cross-crate conformance sweeps.
    if !run_ok(
        Command::new("cargo")
            .args(["test", "--release", "-p", "kadabra-mpisim", "-p", "kadabra-epoch", "--lib"])
            .env("KADABRA_CHAOS_PLANS", &plans)
            .env("KADABRA_CHAOS_CRASHES", &crashes)
            .env("KADABRA_CHAOS_GROWS", &grows)
            .current_dir(&root),
    ) {
        return ExitCode::FAILURE;
    }
    run_stream(
        Command::new("cargo")
            .args(["test", "--release", "--test", "chaos", "--test", "determinism_matrix"])
            .env("KADABRA_CHAOS_PLANS", &plans)
            .env("KADABRA_CHAOS_CRASHES", &crashes)
            .env("KADABRA_CHAOS_GROWS", &grows)
            .current_dir(&root),
    )
}

fn cmd_loom() -> ExitCode {
    println!(
        "xtask loom: model-checking the epoch protocol, the telemetry recorder, and the \
         server's estimate-cache seqlock (stable toolchain)"
    );
    let root = workspace_root();
    if !run_ok(
        Command::new("cargo")
            .args(["test", "-p", "kadabra-epoch", "--features", "loom", "--test", "loom"])
            .current_dir(&root),
    ) {
        return ExitCode::FAILURE;
    }
    if !run_ok(
        Command::new("cargo")
            .args(["test", "-p", "kadabra-telemetry", "--features", "loom", "--test", "loom"])
            .current_dir(&root),
    ) {
        return ExitCode::FAILURE;
    }
    run_stream(
        Command::new("cargo")
            .args(["test", "-p", "kadabra-server", "--features", "loom", "--test", "loom"])
            .current_dir(root),
    )
}

/// `cargo xtask bench --smoke`: emits and schema-validates `BENCH_smoke.json`
/// in the repo root. The run itself lives in the `bench_smoke` binary of
/// `kadabra-bench`; this wrapper owns the pass/fail decision.
fn cmd_bench(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("--smoke") if args.len() == 1 => cmd_bench_smoke(),
        Some("--kernel") => {
            let check = match &args[1..] {
                [] => false,
                [flag] if flag == "--check" => true,
                _ => {
                    eprintln!("xtask bench: usage: cargo xtask bench --kernel [--check]");
                    return ExitCode::from(2);
                }
            };
            cmd_bench_kernel(check)
        }
        _ => {
            eprintln!(
                "xtask bench: supported modes:\n  \
                 cargo xtask bench --smoke             emit and validate BENCH_smoke.json\n  \
                 cargo xtask bench --kernel            re-record the BENCH_kernel.json baseline\n  \
                 cargo xtask bench --kernel --check    gate against the committed baseline"
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_bench_smoke() -> ExitCode {
    let root = workspace_root();
    // `bench_server` additionally self-gates its acceptance numbers (≥ 1k
    // queries/s, zero cache-read allocations), `bench_dynamic` gates the
    // incremental-update path (update-and-reconverge under 25% of a
    // from-scratch run, within ε of the oracle), and `bench_elastic` gates
    // the elastic scale-out path (mid-run grow ≥ 1.2× over the static
    // continuation, the DES's steal model decoupling round latency from the
    // straggler factor, a live grow within ε), so a degraded build fails the run before validation starts.
    for bin in ["bench_smoke", "bench_server", "bench_dynamic", "bench_elastic"] {
        println!("xtask bench: running the {bin} benchmark (release mode)");
        if !run_ok(
            Command::new("cargo")
                .args(["run", "--release", "-p", "kadabra-bench", "--bin", bin])
                .env("KADABRA_RESULTS_DIR", &root)
                .current_dir(&root),
        ) {
            return ExitCode::FAILURE;
        }
    }
    for artifact in
        ["BENCH_smoke.json", "BENCH_server.json", "BENCH_dynamic.json", "BENCH_elastic.json"]
    {
        let path = root.join(artifact);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask bench: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match kadabra_telemetry::validate_json(&text) {
            Ok(name) => {
                println!(
                    "xtask bench: {} is schema-valid ({}, artifact `{name}`)",
                    path.display(),
                    kadabra_telemetry::BENCH_SCHEMA
                );
            }
            Err(e) => {
                eprintln!("xtask bench: {} violates the schema: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Throughput the `--check` gate tolerates losing relative to the committed
/// baseline before failing, as a fraction. `KADABRA_KERNEL_TOLERANCE`
/// overrides it (e.g. `0.30` on a noisy shared runner).
const KERNEL_TOLERANCE_DEFAULT: f64 = 0.15;

/// One parsed row of a `BENCH_kernel.json` artifact.
struct KernelRow {
    samples_per_sec: f64,
    allocs_per_sample: f64,
}

/// Extracts the gated `kernel` row (the relabeled production layout) from a
/// serialized artifact.
fn kernel_row(text: &str, what: &str) -> Result<KernelRow, String> {
    kadabra_telemetry::validate_json(text).map_err(|e| format!("{what}: schema violation: {e}"))?;
    let doc = kadabra_telemetry::json::Json::parse(text)
        .map_err(|e| format!("{what}: invalid JSON: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(kadabra_telemetry::json::Json::as_array)
        .ok_or_else(|| format!("{what}: no runs array"))?;
    for run in runs {
        if run.get("mode").and_then(kadabra_telemetry::json::Json::as_str) == Some("kernel") {
            let field = |key: &str| {
                run.get(key)
                    .and_then(kadabra_telemetry::json::Json::as_f64)
                    .ok_or_else(|| format!("{what}: kernel row lacks numeric `{key}`"))
            };
            return Ok(KernelRow {
                samples_per_sec: field("samples_per_sec")?,
                allocs_per_sample: field("allocs_per_sample")?,
            });
        }
    }
    Err(format!("{what}: no run with mode \"kernel\""))
}

/// `cargo xtask bench --kernel [--check]`.
///
/// Record mode runs the `bench_kernel` binary with the repo root as results
/// directory, refreshing the committed `BENCH_kernel.json` baseline. Check
/// mode leaves the committed baseline untouched: it runs a fresh measurement
/// into `target/bench-kernel/` and fails if the fresh `kernel` row's
/// throughput drops more than the tolerance below the baseline, or if the
/// hot path allocated.
fn cmd_bench_kernel(check: bool) -> ExitCode {
    let root = workspace_root();
    let baseline_path = root.join("BENCH_kernel.json");
    let results_dir = if check { root.join("target").join("bench-kernel") } else { root.clone() };

    println!(
        "xtask bench: running the sampling-kernel benchmark (release mode, {})",
        if check { "check against committed baseline" } else { "recording baseline" }
    );
    if !run_ok(
        Command::new("cargo")
            .args(["run", "--release", "-p", "kadabra-bench", "--bin", "bench_kernel"])
            .env("KADABRA_RESULTS_DIR", &results_dir)
            .current_dir(&root),
    ) {
        return ExitCode::FAILURE;
    }

    let fresh_path = results_dir.join("BENCH_kernel.json");
    let fresh = match std::fs::read_to_string(&fresh_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bench: cannot read {}: {e}", fresh_path.display());
            return ExitCode::FAILURE;
        }
    };
    let fresh_row = match kernel_row(&fresh, "fresh artifact") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !check {
        println!(
            "xtask bench: recorded {} ({:.0} samples/s, {} allocs/sample)",
            baseline_path.display(),
            fresh_row.samples_per_sec,
            fresh_row.allocs_per_sample
        );
        return ExitCode::SUCCESS;
    }

    if fresh_row.allocs_per_sample > 0.0 {
        eprintln!(
            "xtask bench: FAIL: sampling hot path allocated ({} allocs/sample); \
             sample_batch must be allocation-free after warm-up (DESIGN.md §11)",
            fresh_row.allocs_per_sample
        );
        return ExitCode::FAILURE;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "xtask bench: cannot read committed baseline {}: {e}\n  \
                 record one with `cargo xtask bench --kernel` and commit it",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline_row = match kernel_row(&baseline, "committed baseline") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let tolerance = match std::env::var("KADABRA_KERNEL_TOLERANCE") {
        Ok(s) => match s.parse::<f64>() {
            Ok(v) if (0.0..1.0).contains(&v) => v,
            _ => {
                eprintln!(
                    "xtask bench: ignoring invalid KADABRA_KERNEL_TOLERANCE={s:?}; \
                     using {KERNEL_TOLERANCE_DEFAULT}"
                );
                KERNEL_TOLERANCE_DEFAULT
            }
        },
        Err(_) => KERNEL_TOLERANCE_DEFAULT,
    };
    let floor = baseline_row.samples_per_sec * (1.0 - tolerance);
    let ratio = fresh_row.samples_per_sec / baseline_row.samples_per_sec;
    if fresh_row.samples_per_sec < floor {
        eprintln!(
            "xtask bench: FAIL: kernel throughput regressed: {:.0} samples/s vs baseline \
             {:.0} ({:.1}% of baseline; floor is {:.1}% => {:.0} samples/s)\n  \
             if the slowdown is intended, re-record with `cargo xtask bench --kernel` \
             and commit BENCH_kernel.json with a justification",
            fresh_row.samples_per_sec,
            baseline_row.samples_per_sec,
            ratio * 100.0,
            (1.0 - tolerance) * 100.0,
            floor
        );
        return ExitCode::FAILURE;
    }
    println!(
        "xtask bench: kernel OK: {:.0} samples/s ({:.1}% of baseline {:.0}), 0 allocs/sample",
        fresh_row.samples_per_sec,
        ratio * 100.0,
        baseline_row.samples_per_sec
    );
    ExitCode::SUCCESS
}

fn cmd_tsan() -> ExitCode {
    let root = workspace_root();
    // ThreadSanitizer needs -Zsanitizer=thread (nightly) and an
    // instrumented std (-Zbuild-std, which needs the rust-src component).
    if !nightly_available() {
        return missing_toolchain(
            "tsan",
            "a nightly toolchain",
            "rustup toolchain install nightly",
        );
    }
    if !nightly_component_installed("rust-src") {
        return missing_toolchain(
            "tsan",
            "the nightly rust-src component (for -Zbuild-std)",
            "rustup component add rust-src --toolchain nightly",
        );
    }
    let Some(triple) = host_triple() else {
        eprintln!("xtask tsan: could not determine the host target triple from `rustc -vV`");
        return ExitCode::from(2);
    };
    println!("xtask tsan: running concurrency tests under ThreadSanitizer ({triple})");
    let supp = root.join("ci/tsan-suppressions.txt");
    let tsan = |args: &[&str]| {
        run_stream(
            Command::new("cargo")
                .args(["+nightly", "test", "-Zbuild-std", "--target", &triple])
                .args(args)
                .env("RUSTFLAGS", "-Zsanitizer=thread")
                .env("TSAN_OPTIONS", format!("suppressions={}", supp.display()))
                .current_dir(&root),
        )
    };
    // The graph crate's threads are the binary loader's row-range decode and
    // target-range reverse pass; its tests are filtered to the loader's.
    let runs = [
        tsan(&["-p", "kadabra-epoch", "-p", "kadabra-mpisim"]),
        tsan(&["-p", "kadabra-graph", "--lib", "--", "io::", "cursor"]),
    ];
    if runs.iter().all(|&code| code == ExitCode::SUCCESS) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_miri() -> ExitCode {
    let root = workspace_root();
    if !nightly_available() {
        return missing_toolchain(
            "miri",
            "a nightly toolchain",
            "rustup toolchain install nightly",
        );
    }
    if !nightly_component_installed("miri") {
        return missing_toolchain(
            "miri",
            "the nightly miri component",
            "rustup component add miri --toolchain nightly",
        );
    }
    println!("xtask miri: running epoch tests under Miri");
    // Leak checking is off: the test harness keeps thread-locals alive past
    // the interpreted program's exit, which Miri reports as leaks.
    run_stream(
        Command::new("cargo")
            .args(["+nightly", "miri", "test", "-p", "kadabra-epoch"])
            .env("MIRIFLAGS", "-Zmiri-ignore-leaks")
            .current_dir(root),
    )
}

fn missing_toolchain(cmd: &str, what: &str, fix: &str) -> ExitCode {
    eprintln!(
        "xtask {cmd}: skipped — this environment lacks {what}.\n\
         To run it locally:  {fix}\n\
         (CI runs this job as allowed-to-fail on nightly; the stable gates are \
         `cargo xtask lint` and `cargo xtask loom`.)"
    );
    ExitCode::from(2)
}

fn nightly_available() -> bool {
    Command::new("cargo")
        .args(["+nightly", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn nightly_component_installed(component: &str) -> bool {
    let Ok(out) =
        Command::new("rustup").args(["component", "list", "--toolchain", "nightly"]).output()
    else {
        return false;
    };
    if !out.status.success() {
        return false;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .any(|l| l.starts_with(component) && l.contains("(installed)"))
}

fn host_triple() -> Option<String> {
    let out = Command::new("rustc").arg("-vV").output().ok()?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
}

/// Runs a command with inherited stdio, mapping its exit status to ours.
/// Like [`run_stream`] but reports success as a `bool`, for commands that
/// chain several subprocesses.
fn run_ok(cmd: &mut Command) -> bool {
    match cmd.status() {
        Ok(s) => s.success(),
        Err(e) => {
            eprintln!("xtask: failed to spawn {cmd:?}: {e}");
            false
        }
    }
}

fn run_stream(cmd: &mut Command) -> ExitCode {
    match cmd.status() {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: failed to spawn {cmd:?}: {e}");
            ExitCode::FAILURE
        }
    }
}
