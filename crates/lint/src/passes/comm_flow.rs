//! **comm-error-flow**: every `Result<_, CommError>` must reach the
//! recovery path.
//!
//! The fault-tolerance layer (DESIGN.md §10) only works if rank-failure
//! signals propagate: a swallowed `CommError` turns a recoverable crash
//! into a silent wrong answer or a deadlock. `unused_must_use` already
//! rejects a bare `comm.barrier();` — but `let _ = …`, `.ok()`, and
//! `.unwrap_or*(…)` all defeat `must_use` while still discarding the error.
//! This pass closes that hole semantically:
//!
//! 1. It harvests the comm API from the AST itself — every `pub fn` in
//!    `crates/mpisim/src` whose return type mentions `CommError` (so the
//!    inventory tracks the real API, with no hardcoded method list).
//! 2. At every call site of a harvested method (`.name(…)` or
//!    `::name(…)`), it checks how the `Result` flows: `?`-propagation,
//!    `match`/`if let`, binding to a named variable, argument position, and
//!    tail-expression returns are all fine; `let _ = …;`, a statement-level
//!    drop, `.ok()`, and `.unwrap_or{,_else,_default}(…)` are flagged with
//!    the span of the call.
//!
//! The inventory is a list of method names, so a call site is matched by
//! name alone. Only crates whose manifest depends on `kadabra-mpisim` (and
//! mpisim itself) are checked: no other crate can reach the API, and there
//! a `join` or `wait` is `std`'s (a thread handle's `join().unwrap_or_else(…)`
//! is not a swallowed rank failure).

use super::{call_parens, chain_start, is_comm_path, range_has_ident};
use crate::lex::TokKind;
use crate::{Pass, Sink, SourceFile, Workspace};

/// See module docs.
pub struct CommErrorFlow;

/// Harvests the names of public mpisim functions returning
/// `Result<_, CommError>`. Shared with the hot-loop pass, which treats
/// these as collectives banned inside the sampling loop.
pub(super) fn harvest_comm_api(ws: &Workspace) -> Vec<String> {
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

/// How the `Result` of a comm call at `[open, close]` is consumed.
enum Flow {
    Ok,
    SwallowedOk,
    SwallowedUnwrapOr(String),
    LetUnderscore,
    DroppedStatement,
}

fn classify(file: &SourceFile, name_idx: usize, close: usize) -> Flow {
    let after = close + 1;
    // `.ok()` / `.unwrap_or*(…)` directly on the Result.
    if file.is_punct(after, ".") {
        if file.is_ident(after + 1, "ok") && call_parens(file, after + 1).is_some() {
            return Flow::SwallowedOk;
        }
        for m in ["unwrap_or", "unwrap_or_else", "unwrap_or_default"] {
            if file.is_ident(after + 1, m) && call_parens(file, after + 1).is_some() {
                return Flow::SwallowedUnwrapOr((*m).to_string());
            }
        }
        return Flow::Ok; // some other adaptor continues the chain
    }
    if !file.is_punct(after, ";") {
        // `?`, `,`, `)`, `}` (tail return), `{` (match/if-let scrutinee),
        // `else`, operators… — the value flows onward.
        return Flow::Ok;
    }
    // Statement ends right after the call: find what the statement binds.
    let start = chain_start(file, name_idx);
    let Some(prev) = start.checked_sub(1) else {
        return Flow::DroppedStatement;
    };
    let t = &file.toks[prev];
    if t.is_punct("=") {
        // `let _ = chain;` vs `let x = chain;` / `x = chain;`
        if prev >= 2 && file.is_ident(prev - 1, "_") && file.is_ident(prev - 2, "let") {
            return Flow::LetUnderscore;
        }
        return Flow::Ok;
    }
    if t.is_punct(";") || matches!(t.kind, TokKind::Open(_) | TokKind::Close(_)) {
        // The chain is the entire statement and its Result is dropped.
        return Flow::DroppedStatement;
    }
    // `return chain;`, `break chain;`, `=> chain;` …
    Flow::Ok
}

impl Pass for CommErrorFlow {
    fn name(&self) -> &'static str {
        "comm-error-flow"
    }
    fn hint(&self) -> &'static str {
        "a Result<_, CommError> carries a rank-failure signal; propagate it with `?`, match it, \
         or hand it to the recovery loop (DESIGN.md §10) — never `let _ =`, `.ok()` or \
         `.unwrap_or*` it away"
    }
    fn run(&self, ws: &Workspace, sink: &mut Sink<'_>) {
        let api = harvest_comm_api(ws);
        if api.is_empty() {
            return;
        }
        for file in &ws.files {
            if file.is_test_path()
                || !(is_comm_path(&file.rel) || ws.depends_on(file, "kadabra-mpisim"))
            {
                continue;
            }
            for i in 0..file.toks.len() {
                let t = &file.toks[i];
                if t.kind != TokKind::Ident || !api.contains(&t.text) {
                    continue;
                }
                // Method or path call only: `.name(` / `::name(`.
                let dotted = i > 0 && (file.is_punct(i - 1, ".") || file.is_punct(i - 1, "::"));
                let Some((_, close)) = call_parens(file, i) else { continue };
                if !dotted || file.in_test(i) {
                    continue;
                }
                let verdict = classify(file, i, close);
                let msg = match verdict {
                    Flow::Ok => continue,
                    Flow::SwallowedOk => format!(
                        "`.ok()` discards the CommError of `{}` — the rank-failure signal \
                         never reaches recovery",
                        t.text
                    ),
                    Flow::SwallowedUnwrapOr(m) => {
                        format!("`.{m}(…)` substitutes a default for the CommError of `{}`", t.text)
                    }
                    Flow::LetUnderscore => {
                        format!("`let _ =` swallows the Result<_, CommError> of `{}`", t.text)
                    }
                    Flow::DroppedStatement => format!(
                        "the Result<_, CommError> of `{}` is dropped by this statement",
                        t.text
                    ),
                };
                sink.emit(file, i, msg);
            }
        }
    }
}
