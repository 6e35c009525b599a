//! The pass registry and shared token-matching utilities.
//!
//! Each pass implements [`crate::Pass`] over the parsed workspace. The
//! registry ([`all`]) is what `cargo xtask lint` runs; the fixture corpus
//! under `tests/fixtures/` exercises every pass in both firing and
//! suppressed configurations.

mod atomics;
mod comm_flow;
mod delta;
mod determinism;
mod hot_loop;
mod legacy;

pub use atomics::AtomicProtocol;
pub use comm_flow::CommErrorFlow;
pub use delta::DeltaConfinement;
pub use determinism::Determinism;
pub use hot_loop::HotLoopHygiene;
pub use legacy::{DirectAtomics, SeqcstBan};

use crate::lex::{Delim, TokKind};
use crate::{Pass, SourceFile};

/// Every pass, in reporting order: the two token-level rules first, then
/// the semantic passes.
#[must_use]
pub fn all() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(SeqcstBan),
        Box::new(DirectAtomics),
        Box::new(CommErrorFlow),
        Box::new(AtomicProtocol),
        Box::new(Determinism),
        Box::new(HotLoopHygiene),
        Box::new(DeltaConfinement),
    ]
}

/// True for files under `crates/core/src` and `crates/graph/src`, whose
/// named hot functions are hot-loop scope (DESIGN.md §11).
#[must_use]
pub fn is_core_library_path(rel: &str) -> bool {
    rel.starts_with("crates/core/src") || rel.starts_with("crates/graph/src")
}

/// True for files under `crates/mpisim/src`, whose `pub fn … -> Result<_,
/// CommError>` signatures are the communicator API (DESIGN.md §10).
#[must_use]
pub fn is_comm_path(rel: &str) -> bool {
    rel.starts_with("crates/mpisim/src")
}

/// True for files under `crates/server/src`, whose estimate-cache read path
/// must stay allocation- and lock-free (DESIGN.md §13).
#[must_use]
pub fn is_server_path(rel: &str) -> bool {
    rel.starts_with("crates/server/src")
}

/// True for files under `crates/dynamic/src`, where the streaming-update
/// apply/invalidate kernels live (DESIGN.md §14) — hot-loop scope, and the
/// only subtree allowed to call the overlay's mutators.
#[must_use]
pub fn is_dynamic_path(rel: &str) -> bool {
    rel.starts_with("crates/dynamic/src")
}

/// True for the crates whose algorithms must be bit-reproducible from
/// `(plan, seed)` — the determinism pass scope.
#[must_use]
pub fn is_reproducible_crate(rel: &str) -> bool {
    [
        "crates/core/src",
        "crates/epoch/src",
        "crates/mpisim/src",
        "crates/graph/src",
        "crates/dynamic/src",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

/// If token `i` is the name of a method call (`recv . name ( … )`), returns
/// the indices of the opening and closing parens.
#[must_use]
pub fn method_call(file: &SourceFile, i: usize) -> Option<(usize, usize)> {
    if file.toks.get(i)?.kind != TokKind::Ident {
        return None;
    }
    if !file.is_punct(i.checked_sub(1)?, ".") {
        return None;
    }
    call_parens(file, i)
}

/// If token `i` is a called identifier (`name ( … )`), returns the paren
/// pair of the argument list.
#[must_use]
pub fn call_parens(file: &SourceFile, i: usize) -> Option<(usize, usize)> {
    let open = i + 1;
    if file.toks.get(open)?.kind != TokKind::Open(Delim::Paren) {
        return None;
    }
    let close = *file.pair.get(open)?;
    if close == usize::MAX {
        return None;
    }
    Some((open, close))
}

/// The receiver field of a method call whose name is at `i`: the last path
/// segment of the expression before the dot, looking through one index
/// operation (`self.buf[k].store(…)` → `buf`).
#[must_use]
pub fn receiver_field(file: &SourceFile, i: usize) -> Option<String> {
    let mut j = i.checked_sub(2)?; // skip the `.`
                                   // Look through `[index]`.
    if let TokKind::Close(Delim::Bracket) = file.toks.get(j)?.kind {
        j = file.pair.get(j).copied()?.checked_sub(1)?;
        if file.pair[j + 1] == usize::MAX {
            return None;
        }
    }
    // Look through a call `()` (e.g. `guard().field` never happens for
    // atomics; a call result has no stable field name).
    match file.toks.get(j)?.kind {
        TokKind::Ident => Some(file.toks[j].text.clone()),
        _ => None,
    }
}

/// Walks backwards from a method-call name at `i` to the first token of its
/// receiver chain (`self.comm.barrier` → index of `self`).
#[must_use]
pub fn chain_start(file: &SourceFile, i: usize) -> usize {
    let mut j = i;
    loop {
        let Some(prev) = j.checked_sub(1) else { return j };
        let t = &file.toks[prev];
        let extend = match t.kind {
            TokKind::Ident => true,
            TokKind::Punct => t.text == "." || t.text == "::" || t.text == "?",
            TokKind::Close(Delim::Paren | Delim::Bracket) => true,
            _ => false,
        };
        if !extend {
            return j;
        }
        j = match t.kind {
            TokKind::Close(_) if file.pair[prev] != usize::MAX => file.pair[prev],
            _ => prev,
        };
    }
}

/// Memory-ordering identifiers found in `[lo, hi)`.
#[must_use]
pub fn orderings_in(file: &SourceFile, lo: usize, hi: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for (k, t) in file.toks.iter().enumerate().take(hi.min(file.toks.len())).skip(lo) {
        if t.kind != TokKind::Ident {
            continue;
        }
        for name in ["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"] {
            if t.text == name {
                out.push((k, name));
            }
        }
    }
    out
}

/// True when `[lo, hi)` contains the identifier `name`.
#[must_use]
pub fn range_has_ident(file: &SourceFile, lo: usize, hi: usize, name: &str) -> bool {
    (lo..hi.min(file.toks.len())).any(|k| file.is_ident(k, name))
}
