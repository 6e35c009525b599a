//! The two token-level rules that clippy cannot express, over AST spans.
//!
//! Clippy has no lint for one enum variant (`SeqCst`), and its
//! `disallowed-types` flags every use of a crate's own `sync.rs` re-exports,
//! so both rules stay token matches here. Matches are over real tokens with
//! `(line, col)` spans, test code is recognized semantically (`#[test]`
//! functions and `#[cfg(test)]` items of any shape), and string/comment
//! content can never produce a false match because it is never tokenized
//! as code. The token rules clippy does express (no unwrap in library code,
//! no wall-clock reads, no panics in `mpisim`) are configured at the crate
//! roots and in `clippy.toml` (DESIGN.md §12.4).

use crate::{Pass, Sink, Workspace};

/// `Ordering::SeqCst` is banned everywhere: every atomic in this workspace
/// states its actual pairing (Release/Acquire, or Relaxed plus an external
/// happens-before), and the loom suites prove the weaker orderings
/// sufficient.
pub struct SeqcstBan;

impl Pass for SeqcstBan {
    fn name(&self) -> &'static str {
        "seqcst"
    }
    fn hint(&self) -> &'static str {
        "SeqCst is banned: state the actual pairing with Release/Acquire (or Relaxed + a lock), \
         and let the loom tests prove it sufficient"
    }
    fn run(&self, ws: &Workspace, sink: &mut Sink<'_>) {
        for file in &ws.files {
            for (i, t) in file.toks.iter().enumerate() {
                if t.is_ident("SeqCst") {
                    sink.emit(file, i, "use of Ordering::SeqCst".to_string());
                }
            }
        }
    }
}

/// Atomic types must come from a crate's `sync.rs` indirection module so the
/// loom feature can swap in the model checker.
pub struct DirectAtomics;

impl Pass for DirectAtomics {
    fn name(&self) -> &'static str {
        "direct-atomics"
    }
    fn hint(&self) -> &'static str {
        "import atomics from the crate's sync.rs indirection module so the loom feature can \
         model-check them"
    }
    fn run(&self, ws: &Workspace, sink: &mut Sink<'_>) {
        for file in &ws.files {
            if file.is_test_path() || file.rel.ends_with("sync.rs") {
                continue;
            }
            for i in 0..file.toks.len() {
                let root = file.is_ident(i, "std") || file.is_ident(i, "core");
                if root
                    && file.is_punct(i + 1, "::")
                    && file.is_ident(i + 2, "sync")
                    && file.is_punct(i + 3, "::")
                    && file.is_ident(i + 4, "atomic")
                    && !file.in_test(i)
                {
                    sink.emit(file, i, "direct use of std/core::sync::atomic".to_string());
                }
            }
        }
    }
}
