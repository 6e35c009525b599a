//! **determinism**: no truncating length casts in the reproducible crates.
//!
//! DESIGN.md §8: every run must be reproducible from the plan and the seed.
//! Vertex counts flow into `NodeId` arithmetic, so a `.len() as u32` /
//! `as NodeId` cast in `core`, `epoch`, `mpisim`, `graph` or `dynamic`
//! truncates silently at 2^32 and corrupts sampling rather than erroring.
//! Clippy's `cast_possible_truncation` is the nearest lint, but it fires on
//! every narrowing cast, not on the lengths alone.
//!
//! The rule's other half, no hash-ordered containers in those crates, is
//! clippy's `disallowed_types`, denied at their roots (DESIGN.md §12.4).

use super::{is_reproducible_crate, method_call};
use crate::{Pass, Sink, Workspace};

/// See module docs.
pub struct Determinism;

impl Pass for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }
    fn hint(&self) -> &'static str {
        "runs must be bit-reproducible from (plan, seed) (DESIGN.md §8): keep vertex counts in \
         u64 until a checked NodeId conversion"
    }
    fn run(&self, ws: &Workspace, sink: &mut Sink<'_>) {
        for file in &ws.files {
            if !is_reproducible_crate(&file.rel) || file.is_test_path() {
                continue;
            }
            for i in 0..file.toks.len() {
                if !file.is_ident(i, "len") || file.in_test(i) {
                    continue;
                }
                let Some((_, close)) = method_call(file, i) else { continue };
                let target = close + 2;
                let narrow = ["u32", "u16", "NodeId"].iter().any(|t| file.is_ident(target, t));
                if file.is_ident(close + 1, "as") && narrow {
                    sink.emit(
                        file,
                        target,
                        format!(
                            "truncating `.len() as {}` — use a checked conversion so graphs \
                             past the index width fail loudly",
                            file.toks[target].text
                        ),
                    );
                }
            }
        }
    }
}
