//! The library-hygiene clippy rules (no unwrap/expect, no panics in
//! `mpisim`, no wall-clock reads in `core`, `graph`, `mpisim` and
//! `cluster`) are scoped by `#![deny(...)]` at each library root
//! (DESIGN.md §12.4): the `clippy.toml` files only configure them. A
//! library crate whose root forgets the attribute would go unlinted without
//! any check failing, so this test reads every root and holds it to exactly
//! its rules.

use std::fs;
use std::path::{Path, PathBuf};

/// Denied at every library root: no unwrap/expect outside test code.
const EVERYWHERE: &[&str] = &["clippy::unwrap_used", "clippy::expect_used"];

/// Crates whose roots also deny `clippy::disallowed_methods` (the wall-clock
/// reads `crates/clippy.toml` names): the drivers and kernel time through
/// telemetry, and the simulators run on logical time.
const NO_WALL_CLOCK: &[&str] = &["core", "graph", "mpisim", "cluster"];

/// Crates whose roots also deny `clippy::panic`: communicator paths return
/// typed `CommError`s.
const NO_PANIC: &[&str] = &["mpisim"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every library root of the workspace, as `(crate directory name, path)`;
/// the root package is named `kadabra-mpi`.
fn library_roots() -> Vec<(String, PathBuf)> {
    let root = workspace_root();
    let mut roots = vec![("kadabra-mpi".to_string(), root.join("src/lib.rs"))];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let lib = dir.join("src/lib.rs");
        if lib.is_file() {
            let name = dir.file_name().expect("crate dir name").to_string_lossy().into_owned();
            roots.push((name, lib));
        }
    }
    roots.sort();
    roots
}

/// The lints named in the crate-level `#![deny(...)]` attributes of `src`.
fn denied(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("#![deny(") {
        let body = &rest[at + "#![deny(".len()..];
        let end = body.find(")]").expect("unterminated #![deny(");
        out.extend(
            body[..end].split(',').map(str::trim).filter(|l| !l.is_empty()).map(String::from),
        );
        rest = &body[end..];
    }
    out.sort();
    out
}

/// The lints the root of `krate` must deny.
fn expected(krate: &str) -> Vec<String> {
    let mut lints: Vec<String> = EVERYWHERE.iter().map(ToString::to_string).collect();
    if NO_PANIC.contains(&krate) {
        lints.push("clippy::panic".to_string());
    }
    if NO_WALL_CLOCK.contains(&krate) {
        lints.push("clippy::disallowed_methods".to_string());
    }
    lints.sort();
    lints
}

fn mismatches(roots: &[(String, String)]) -> Vec<String> {
    roots
        .iter()
        .filter_map(|(krate, src)| {
            let (got, want) = (denied(src), expected(krate));
            (got != want).then(|| format!("{krate}: denies {got:?}, must deny {want:?}"))
        })
        .collect()
}

#[test]
fn every_library_root_denies_exactly_its_clippy_rules() {
    let roots: Vec<(String, String)> = library_roots()
        .into_iter()
        .map(|(krate, path)| {
            let src = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (krate, src)
        })
        .collect();
    for scoped in NO_WALL_CLOCK.iter().chain(NO_PANIC) {
        assert!(
            roots.iter().any(|(krate, _)| krate == scoped),
            "crate `{scoped}` is named in a scope but has no library root"
        );
    }
    let bad = mismatches(&roots);
    assert!(bad.is_empty(), "library roots out of scope:\n{}", bad.join("\n"));
}

#[test]
fn a_root_missing_one_rule_is_reported() {
    let full = "//! Docs.\n\n#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                clippy::disallowed_methods)]\n";
    let roots = |src: &str| vec![("mpisim".to_string(), src.to_string())];
    assert!(mismatches(&roots(full)).is_empty());
    let without_panic = full.replace(" clippy::panic,", "");
    assert_eq!(mismatches(&roots(&without_panic)).len(), 1);
    // A rule denied outside its scope is a mismatch too.
    let telemetry = vec![("telemetry".to_string(), full.to_string())];
    assert_eq!(mismatches(&telemetry).len(), 1);
}
