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
//! * **direct-atomics** — in the crates that model-check their atomics
//!   (those whose manifest depends on `loom`: `epoch`, `telemetry` and
//!   `server`), atomic types must be imported from the crate's `sync.rs`
//!   indirection module (which swaps in the loom model checker under
//!   `--features loom`), never from `std::sync::atomic` directly. Files
//!   named `sync.rs` and test code are exempt.
//!
//! Clippy has no lint for either: it cannot name one enum variant, and its
//! `disallowed-types` would flag every use of a `sync.rs` re-export too.
//! The rules clippy does express are clippy's (DESIGN.md §12.4):
//! `unwrap_used`/`expect_used` in every library crate, `panic` in
//! `kadabra-mpisim`, `disallowed-methods` on `Instant::now`/
//! `SystemTime::now` in `core`, `graph`, `mpisim` and `cluster`, and
//! `disallowed-types` on `HashMap`/`HashSet` in `core`, `epoch`, `mpisim`,
//! `graph` and `dynamic`, each denied at the crate root and configured in
//! `crates/clippy.toml`.
//!
//! Three semantic passes sit on top (see `crates/lint/src/passes/` for the
//! full rationale of each):
//!
//! * **atomic-protocol** — a workspace-wide inventory of atomic operations
//!   per `(crate, field)`: Release stores with no Acquire consumer,
//!   Acquire loads with no Release publisher, and Relaxed operations on
//!   fields that participate in a Release/Acquire protocol are flagged.
//! * **determinism** — no `len() as u32`-style truncating casts in the
//!   reproducible crates.
//! * **hot-loop-hygiene** — no allocation, locking, cloning, formatting,
//!   or collectives (harvested from the `pub fn … -> Result<_, CommError>`
//!   signatures in `crates/mpisim/src`) inside per-sample code:
//!   `sample_batch` consume closures and the named hot functions of
//!   `crates/core`/`crates/graph`.
//!
//! DESIGN.md §12.7 records, for each pass, the mutant planted in the real
//! tree and which other check, if any, rejected it: a pass stays only while
//! its mutant gets past the compiler, clippy, tier-1 and loom.
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
                 chaos  run the chaos conformance suite [--plans N] [--crashes N] [--grows N] (stable)"
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
