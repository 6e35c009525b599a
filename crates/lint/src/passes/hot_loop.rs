//! **hot-loop-hygiene**: the sampling hot path must stay allocation-,
//! lock-, and collective-free.
//!
//! PR 5 made `sample_batch` allocation-free and gated it with a perf
//! regression test; this pass keeps it that way structurally instead of
//! statistically. Two scopes are scanned:
//!
//! 1. every closure passed to a `.sample_batch(…)` or
//!    `.sample_batch_records(…)` call (the per-sample consume callback runs
//!    once per drawn pair — an allocation there multiplies by the sample
//!    count; the second is the one Algorithm 1's rank body passes, whose
//!    sink may retain every record);
//! 2. the bodies of the hot-path functions themselves — `sample_batch`,
//!    `sample_batch_records` (which holds the per-pair loop), `sample`,
//!    `sample_path_into` (the sample-source hook: every impl body is what
//!    the per-pair loop calls), `sample_shortest_path_into` (the kernel
//!    behind the blanket impl) and `sample_along` (its body, which the
//!    digraph hook runs too), its level expansion `expand`, the end of a
//!    meeting level, `finish_meeting_level`, its meet test
//!    `meet_from_far` and its walk-back, `select_and_backtrack` and
//!    `backtrack`, and the diameter phase's `bfs_into` (every BFS of a
//!    `diameter()` call reuses one scratch), in `crates/core/src` /
//!    `crates/graph/src`. Sorting the walk's predecessor scratch in place
//!    stays legal.
//!    The scan is of the named body, not of what it calls: the
//!    `WeightedGraph` hook forwards to a Dijkstra that allocates its
//!    distance and σ arrays per call, outside the scanned range — known,
//!    and a kernel change rather than a waiver;
//! 3. the estimate-cache read path in `crates/server/src` —
//!    `read_frontier_into`, `read_vertex`, and `read_stage_into` run on
//!    every query against the resident service, concurrently with the
//!    publishing writer; a lock or allocation there turns the wait-free
//!    seqlock read into a serialization point (DESIGN.md §13);
//! 4. the streaming-update apply/invalidate kernels in
//!    `crates/dynamic/src` — `apply_edits` runs per touched overlay row,
//!    `bfs_distances_into` per swept edge, and `classify_samples` per
//!    retained sample, so an allocation in any of them multiplies by the
//!    batch, sweep, or sample population (DESIGN.md §14).
//!
//! Banned inside those ranges: constructor allocations (`Vec::new`,
//! `vec![…]`, `Box::new`, `String::from`, `format!`, `with_capacity`, …),
//! allocating adaptors (`.collect()`, `.to_vec()`, `.to_owned()`,
//! `.to_string()`, `.clone()`), lock acquisition (`.lock()`, `.read()`,
//! `.write()`), and any call into the harvested comm API (a collective
//! inside the per-sample loop serializes the whole cluster). Reusing
//! pre-sized buffers is the sanctioned idiom, so `.push(…)`, `.reserve(…)`,
//! and `std::mem::take` stay legal.

use super::{
    is_comm_path, is_core_library_path, is_dynamic_path, is_server_path, method_call,
    range_has_ident,
};
use crate::lex::TokKind;
use crate::{Pass, Sink, SourceFile, Workspace};

/// See module docs.
pub struct HotLoopHygiene;

/// Harvests the names of public mpisim functions returning
/// `Result<_, CommError>`: the collectives banned inside the sampling loop,
/// taken from the AST so the list tracks the real API.
fn harvest_comm_api(ws: &Workspace) -> Vec<String> {
    let mut names = Vec::new();
    for file in &ws.files {
        if !is_comm_path(&file.rel) {
            continue;
        }
        for f in &file.ast.fns {
            if !f.is_pub || f.is_test || f.name.is_empty() {
                continue;
            }
            let Some((lo, hi)) = f.ret else { continue };
            if range_has_ident(file, lo, hi, "CommError") && !names.contains(&f.name) {
                names.push(f.name.clone());
            }
        }
    }
    names.sort();
    names
}

/// Method names whose closure argument is a per-sample consume callback.
const BATCH_CALLS: [&str; 2] = ["sample_batch", "sample_batch_records"];

/// Function names whose bodies are hot-path scope in core/graph.
const HOT_FNS: [&str; 12] = [
    "sample_batch",
    "sample_batch_records",
    "sample",
    "sample_path_into",
    "sample_shortest_path_into",
    "sample_along",
    "expand",
    "finish_meeting_level",
    "meet_from_far",
    "select_and_backtrack",
    "backtrack",
    "bfs_into",
];

/// Function names whose bodies are the service's cache read path.
const SERVER_READ_FNS: [&str; 3] = ["read_frontier_into", "read_vertex", "read_stage_into"];

/// Function names whose bodies are the streaming-update apply/invalidate
/// kernels in the dynamic crate.
const DYNAMIC_FNS: [&str; 3] = ["apply_edits", "bfs_distances_into", "classify_samples"];

/// Allocating constructors reached through `Type::method(…)` paths.
const ALLOC_TYPES: [&str; 6] = ["Vec", "VecDeque", "Box", "String", "HashMap", "HashSet"];
const ALLOC_CTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

/// Allocating / blocking method calls.
const BANNED_METHODS: [(&str, &str); 8] = [
    ("collect", "allocates a fresh collection"),
    ("to_vec", "allocates a copy"),
    ("to_owned", "allocates a copy"),
    ("to_string", "allocates a String"),
    ("clone", "deep-copies per sample"),
    ("lock", "blocks on a mutex"),
    ("read", "blocks on a rwlock"),
    ("write", "blocks on a rwlock"),
];

/// If token `i` begins a banned operation, returns `(anchor, message)`.
fn banned_op(file: &SourceFile, i: usize, comm_api: &[String]) -> Option<(usize, String)> {
    let t = file.toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    // `vec![…]` / `format!(…)`.
    if (t.text == "vec" || t.text == "format")
        && file.is_punct(i + 1, "!")
        && file.toks.get(i + 2).is_some_and(|n| matches!(n.kind, TokKind::Open(_)))
    {
        return Some((i, format!("`{}!` allocates in the hot loop", t.text)));
    }
    // `Vec::new(…)`-style constructors.
    if ALLOC_TYPES.contains(&t.text.as_str())
        && file.is_punct(i + 1, "::")
        && file.toks.get(i + 2).is_some_and(|c| ALLOC_CTORS.iter().any(|n| c.is_ident(n)))
    {
        return Some((
            i,
            format!("`{}::{}` allocates in the hot loop", t.text, file.toks[i + 2].text),
        ));
    }
    // Banned method calls (must actually be `.name(…)`).
    if let Some((_, _)) = method_call(file, i) {
        for (name, why) in BANNED_METHODS {
            if t.text == name {
                return Some((i, format!("`.{name}()` {why}")));
            }
        }
        if comm_api.contains(&t.text) {
            return Some((
                i,
                format!("comm collective `.{}()` inside the sampling hot loop", t.text),
            ));
        }
    }
    None
}

/// Scans `[lo, hi)` of `file` and emits every banned op.
fn scan_range(
    file: &SourceFile,
    lo: usize,
    hi: usize,
    ctx: &str,
    comm_api: &[String],
    sink: &mut Sink<'_>,
) {
    let mut i = lo;
    while i < hi.min(file.toks.len()) {
        if let Some((anchor, msg)) = banned_op(file, i, comm_api) {
            sink.emit(file, anchor, format!("{msg} ({ctx})"));
        }
        i += 1;
    }
}

impl Pass for HotLoopHygiene {
    fn name(&self) -> &'static str {
        "hot-loop-hygiene"
    }
    fn hint(&self) -> &'static str {
        "the per-sample path must not allocate, lock, or run collectives (DESIGN.md §11): reuse \
         pre-sized scratch buffers (push/reserve are fine) and keep communication at batch \
         boundaries"
    }
    fn run(&self, ws: &Workspace, sink: &mut Sink<'_>) {
        let comm_api = harvest_comm_api(ws);
        for file in &ws.files {
            if file.is_test_path() {
                continue;
            }
            // Scope 1: closures handed to `.sample_batch[_records](…)`
            // anywhere.
            for i in 0..file.toks.len() {
                let Some(call) = BATCH_CALLS.iter().find(|c| file.is_ident(i, c)) else { continue };
                if file.in_test(i) {
                    continue;
                }
                let Some((open, close)) = method_call(file, i) else { continue };
                // Find the closure inside the argument list and scan its body.
                let mut j = open + 1;
                while j < close {
                    if file.is_punct(j, "|") {
                        let mut k = j + 1;
                        while k < close && !file.is_punct(k, "|") {
                            k += 1;
                        }
                        scan_range(
                            file,
                            k + 1,
                            close,
                            &format!("{call} consume closure"),
                            &comm_api,
                            sink,
                        );
                        break;
                    }
                    if let TokKind::Open(_) = file.toks[j].kind {
                        if file.pair[j] != usize::MAX {
                            j = file.pair[j];
                        }
                    }
                    j += 1;
                }
            }
            // Scope 2: the hot-path function bodies in core/graph.
            // Scope 3: the cache read-path bodies in the server crate.
            // Scope 4: the apply/invalidate kernels in the dynamic crate.
            let scoped_fns: &[&str] = if is_core_library_path(&file.rel) {
                &HOT_FNS
            } else if is_server_path(&file.rel) {
                &SERVER_READ_FNS
            } else if is_dynamic_path(&file.rel) {
                &DYNAMIC_FNS
            } else {
                continue;
            };
            for f in &file.ast.fns {
                if f.is_test || !scoped_fns.contains(&f.name.as_str()) {
                    continue;
                }
                let Some((lo, hi)) = f.body else { continue };
                scan_range(file, lo + 1, hi, &format!("body of `{}`", f.name), &comm_api, sink);
            }
        }
    }
}
