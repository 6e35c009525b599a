//! The library-hygiene clippy rules (no unwrap/expect, no panics in
//! `mpisim`, no wall-clock reads in `core`, `graph`, `mpisim` and
//! `cluster`, no hash tables in `core`, `epoch`, `mpisim`, `graph` and
//! `dynamic`) are scoped by `#![deny(...)]` at each library root
//! (DESIGN.md §12.4): the `clippy.toml` files only configure them. A
//! library crate whose root forgets the attribute would go unlinted without
//! any check failing, so this test reads every root and holds it to exactly
//! its rules.
//!
//! The three source rules clippy cannot express are line scans of every
//! library source file further down (DESIGN.md §12.4): no `SeqCst`, atomics
//! through `sync.rs` in the loom-modelled crates, and no `.len() as u32`
//! casts in the crates that replay bit for bit.

use std::fs;
use std::path::{Path, PathBuf};

/// Denied at every library root: no unwrap/expect outside test code.
const EVERYWHERE: &[&str] = &["clippy::unwrap_used", "clippy::expect_used"];

/// Crates whose roots also deny `clippy::disallowed_methods` (the wall-clock
/// reads `crates/clippy.toml` names): the drivers and kernel time through
/// telemetry, and the simulators run on logical time.
const NO_WALL_CLOCK: &[&str] = &["core", "graph", "mpisim", "cluster"];

/// Crates whose roots also deny `clippy::disallowed_types` (the hash tables
/// `crates/clippy.toml` names): their output must replay bit for bit from
/// `(plan, seed)`, and a hash table iterates in a per-process order.
const NO_HASH_TABLES: &[&str] = &["core", "epoch", "mpisim", "graph", "dynamic"];

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
    if NO_HASH_TABLES.contains(&krate) {
        lints.push("clippy::disallowed_types".to_string());
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
    for scoped in NO_WALL_CLOCK.iter().chain(NO_HASH_TABLES).chain(NO_PANIC) {
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
                clippy::disallowed_methods, clippy::disallowed_types)]\n";
    let roots = |src: &str| vec![("mpisim".to_string(), src.to_string())];
    assert!(mismatches(&roots(full)).is_empty());
    let without_panic = full.replace(" clippy::panic,", "");
    assert_eq!(mismatches(&roots(&without_panic)).len(), 1);
    let without_hash_ban = full.replace(", clippy::disallowed_types", "");
    assert_eq!(mismatches(&roots(&without_hash_ban)).len(), 1);
    // A rule denied outside its scope is a mismatch too.
    let telemetry = vec![("telemetry".to_string(), full.to_string())];
    assert_eq!(mismatches(&telemetry).len(), 1);
}

// ---------------------------------------------------------------------------
// Source rules clippy cannot express
// ---------------------------------------------------------------------------
//
// Clippy has no lint for one enum variant (`SeqCst`); its `disallowed-types`
// would flag every use of a crate's own `sync.rs` re-exports; and its
// `cast_possible_truncation` fires on every narrowing cast, not on lengths
// alone. So these three are plain line scans. A line is read up to its `//`,
// so prose never trips a rule, and a file is read up to its test module (a
// top-level `#[cfg(test)]` opening a `mod`), which clippy's
// `items_after_test_module`, denied under `-D warnings`, keeps last.

/// The lines of `src` the source rules read, numbered from 1: every line
/// before the test module, cut at its `//`.
fn code_lines(src: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = src.lines().collect();
    let opens_test_module = |at: usize| {
        lines[at] == "#[cfg(test)]"
            && lines[at + 1..]
                .iter()
                .find(|l| !l.starts_with("#["))
                .is_some_and(|l| l.split_whitespace().any(|word| word == "mod"))
    };
    let end = (0..lines.len()).find(|&at| opens_test_module(at)).unwrap_or(lines.len());
    lines[..end]
        .iter()
        .enumerate()
        .map(|(i, line)| (i + 1, line.split("//").next().unwrap_or(line)))
        .collect()
}

/// A vertex-indexed length narrowed with `as`: it truncates silently past
/// the index width instead of failing.
fn narrowing_len_cast(line: &str) -> bool {
    line.match_indices(".len() as ").any(|(at, cast)| {
        let ty = &line[at + cast.len()..];
        ["u32", "u16", "NodeId"].iter().any(|narrow| {
            ty.strip_prefix(narrow)
                .is_some_and(|rest| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
        })
    })
}

/// The source rules one file of `krate` breaks, one line each. `loom` says
/// whether the crate's manifest depends on `loom`.
fn broken_rules(krate: &str, loom: bool, path: &Path, src: &str) -> Vec<String> {
    let atomics_ruled = loom && path.file_name().is_none_or(|name| name != "sync.rs");
    let casts_ruled = NO_HASH_TABLES.contains(&krate);
    let mut out = Vec::new();
    for (number, line) in code_lines(src) {
        let mut broken = |rule: &str| {
            out.push(format!("{}:{number}: {rule}: {}", path.display(), line.trim()));
        };
        // Every atomic states its pairing (Release/Acquire, or Relaxed under
        // a lock or collective), and loom proves the weaker orderings enough.
        if line.contains("SeqCst") {
            broken("SeqCst");
        }
        // Atomics from std bypass the `sync.rs` that swaps in loom's model.
        if atomics_ruled
            && (line.contains("std::sync::atomic") || line.contains("core::sync::atomic"))
        {
            broken("atomic not from sync.rs");
        }
        // Take lengths to `u32` through `kadabra_graph::to_u32`, which checks.
        if casts_ruled && narrowing_len_cast(line) {
            broken("narrowing .len() cast");
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn library_sources_keep_the_rules_clippy_cannot_express() {
    let root = workspace_root();
    let mut packages = vec![("kadabra-mpi".to_string(), root.clone())];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("src").is_dir() {
            let name = dir.file_name().expect("crate dir name").to_string_lossy().into_owned();
            packages.push((name, dir));
        }
    }
    let (mut files, mut bad) = (0, Vec::new());
    for (krate, dir) in packages {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("read a manifest");
        let loom = manifest.lines().any(|l| l.trim_start().starts_with("loom ="));
        let mut paths = Vec::new();
        rust_files(&dir.join("src"), &mut paths);
        for path in paths {
            let src = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let rel = path.strip_prefix(&root).unwrap_or(&path);
            bad.extend(broken_rules(&krate, loom, rel, &src));
            files += 1;
        }
    }
    assert!(files > 100, "only {files} library sources found");
    assert!(bad.is_empty(), "source rules broken:\n{}", bad.join("\n"));
}

#[test]
fn each_source_rule_fires_on_code_but_not_on_prose_or_test_modules() {
    let file = "use crate::sync::{AtomicU32, Ordering};\n\
                // SeqCst, std::sync::atomic and v.len() as u32 in prose are fine.\n\
                fn f(v: &[u32], a: &AtomicU32) -> u32 {\n\
                \x20   a.store(1, Ordering::SeqCst);\n\
                \x20   let _ = std::sync::atomic::AtomicU64::new(0);\n\
                \x20   let _ = v.len() as u32_wide + v.len() as u64;\n\
                \x20   v.len() as u32 // the third rule\n\
                }\n\
                #[cfg(test)]\n\
                fn helper() {}\n\
                #[cfg(test)]\n\
                #[cfg(not(feature = \"loom\"))]\n\
                mod tests {\n\
                \x20   fn t(v: &[u8]) -> u32 { v.len() as u32 }\n\
                }\n";
    let lines = |krate: &str, loom: bool, name: &str| -> Vec<usize> {
        broken_rules(krate, loom, Path::new(name), file)
            .iter()
            .map(|f| f.split(':').nth(1).and_then(|n| n.parse().ok()).expect("line number"))
            .collect()
    };
    assert_eq!(lines("epoch", true, "lib.rs"), [4, 5, 7]);
    // `sync.rs` is where a loom-modelled crate takes its atomics from.
    assert_eq!(lines("epoch", true, "sync.rs"), [4, 7]);
    // The atomics rule applies to loom-modelled crates, the cast rule to
    // the crates that replay bit for bit; `SeqCst` is banned everywhere.
    assert_eq!(lines("telemetry", true, "lib.rs"), [4, 5]);
    assert_eq!(lines("cluster", false, "lib.rs"), [4]);
}
