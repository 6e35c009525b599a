//! Workspace automation, invoked as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! The workspace's source rules are not a subcommand: clippy enforces what
//! it can express (DESIGN.md §12.4), and this crate's tier-1 test
//! `tests/source_rules.rs` holds every library root to its clippy rules and
//! scans the sources for the three it cannot (no `SeqCst`, atomics through
//! `sync.rs` in the loom-modelled crates, no `.len() as u32` casts).
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
        Some("deny") => cmd_deny(),
        Some("loom") => cmd_loom(),
        Some("tsan") => cmd_tsan(),
        Some("miri") => cmd_miri(),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <command>\n\n\
                 commands:\n  \
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
         (CI runs this job as allowed-to-fail on nightly; the stable gate is \
         `cargo xtask loom`.)"
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
