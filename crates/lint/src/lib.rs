//! `kadabra-lint`: AST-based semantic lint framework.
//!
//! The workspace carries load-bearing invariants the compiler cannot see:
//! the epoch protocol's `Release` stores must pair with `Acquire` loads
//! (DESIGN.md §7), vertex counts must not be truncated on their way to a
//! `NodeId` (§8), and `sample_batch` must stay allocation- and
//! collective-free (§11). This
//! crate parses the whole workspace into token streams + item ASTs
//! ([`lex`], [`ast`]) and runs structured passes ([`passes`]) over them,
//! with span-accurate diagnostics, inline waivers, and a machine-readable
//! `kadabra-lint/v2` JSON report ([`report`]). The rules stock clippy
//! expresses (no unwrap in library code, no wall-clock reads in `core`,
//! `graph`, `mpisim` and `cluster`, no panics in `mpisim`, no hash tables
//! in the reproducible crates) are clippy's, configured at the crate roots
//! and in `clippy.toml`.
//!
//! Entry points: [`Workspace::load`] (scan a checkout), or
//! [`Workspace::from_sources`] (virtual files, used by the fixture corpus),
//! then [`Workspace::run`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod ast;
pub mod lex;
pub mod passes;
pub mod report;

use std::path::Path;

use lex::{Comment, Token};
use report::{Finding, Report};

/// A parsed source file: tokens, delimiter table, item AST, comments, and
/// per-line metadata for waiver lookup and excerpts.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw source lines (for excerpts).
    pub lines: Vec<String>,
    /// Token stream.
    pub toks: Vec<Token>,
    /// Matching-delimiter table (see [`lex::match_delims`]).
    pub pair: Vec<usize>,
    /// Comments (for the waiver index).
    pub comments: Vec<Comment>,
    /// Item-level AST.
    pub ast: ast::Ast,
    /// For each 1-based line: true when a code token starts on it.
    line_has_code: Vec<bool>,
    /// For each 1-based line: concatenated comment text on that line.
    line_comment: Vec<String>,
}

impl SourceFile {
    /// Parses `text` under the virtual workspace-relative path `rel`.
    #[must_use]
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let lexed = lex::lex(text);
        let pair = lex::match_delims(&lexed.tokens);
        let ast = ast::parse(&lexed.tokens, &pair);
        let lines: Vec<String> = text.split('\n').map(str::to_string).collect();
        let n = lines.len() + 2;
        let mut line_has_code = vec![false; n];
        for t in &lexed.tokens {
            if let Some(slot) = line_has_code.get_mut(t.line as usize) {
                *slot = true;
            }
        }
        let mut line_comment = vec![String::new(); n];
        for c in &lexed.comments {
            if let Some(slot) = line_comment.get_mut(c.line as usize) {
                slot.push_str(&c.text);
            }
        }
        SourceFile {
            rel: rel.to_string(),
            lines,
            toks: lexed.tokens,
            pair,
            comments: lexed.comments,
            ast,
            line_has_code,
            line_comment,
        }
    }

    /// The (trimmed) source text of 1-based line `line`.
    #[must_use]
    pub fn excerpt(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map_or_else(String::new, |l| l.trim().to_string())
    }

    /// True when `rule` is waived on 1-based `line`: the line itself carries
    /// an `xtask: allow(<rule>)` comment, or the contiguous block of
    /// comment-only lines directly above it does.
    #[must_use]
    pub fn waived(&self, line: u32, rule: &str) -> bool {
        let tag = format!("xtask: allow({rule})");
        let at = |l: u32| self.line_comment.get(l as usize).is_some_and(|c| c.contains(&tag));
        if at(line) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let has_code = self.line_has_code.get(l as usize).copied().unwrap_or(false);
            let has_comment = self.line_comment.get(l as usize).is_some_and(|c| !c.is_empty());
            let comment_only = !has_code && has_comment;
            if !comment_only {
                return false;
            }
            if at(l) {
                return true;
            }
        }
        false
    }

    /// True if token `i` is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_ident(s))
    }

    /// True if token `i` is the punctuation `s`.
    #[must_use]
    pub fn is_punct(&self, i: usize, s: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(s))
    }

    /// True if token `i` lies in test-only code (by AST) or the whole file
    /// is a test/bin path.
    #[must_use]
    pub fn in_test(&self, i: usize) -> bool {
        self.is_test_path() || self.ast.in_test(i)
    }

    /// True for paths whose code is test-/binary-only and therefore exempt
    /// from library-hygiene rules.
    #[must_use]
    pub fn is_test_path(&self) -> bool {
        let parts: Vec<&str> = self.rel.split('/').collect();
        parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples" | "bin"))
            || self.rel.ends_with("main.rs")
            || self.rel.ends_with("tests.rs")
            || self.rel.ends_with("build.rs")
    }

    /// The crate this file belongs to: `crates/<name>/…` or the root
    /// package name.
    #[must_use]
    pub fn crate_name(&self) -> &str {
        let mut parts = self.rel.split('/');
        if parts.next() == Some("crates") {
            if let Some(name) = parts.next() {
                return name;
            }
        }
        "kadabra-mpi"
    }

    /// The workspace-relative path of the manifest of this file's crate.
    #[must_use]
    pub fn manifest(&self) -> String {
        match self.crate_name() {
            "kadabra-mpi" => "Cargo.toml".to_string(),
            name => format!("crates/{name}/Cargo.toml"),
        }
    }
}

/// The parsed workspace: every `.rs` file in lint scope, and what each
/// crate's manifest says it depends on.
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Each manifest's path with the package names its dependency tables
    /// list (`[dependencies]`, `[dev-dependencies]`, target-specific ones).
    pub manifests: Vec<(String, Vec<String>)>,
}

impl Workspace {
    /// Loads and parses the workspace rooted at `root`. Scans `crates/`,
    /// `src/`, `tests/` and `examples/`, and reads the manifest of each
    /// crate a scanned file is in; `shims/` reproduce third-party APIs and
    /// stay out of scope, and `fixtures/` directories hold
    /// deliberately-violating lint corpora exercised by their own tests.
    ///
    /// # Errors
    /// Returns the first I/O error encountered while reading a source file.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            collect_rs_files(&root.join(dir), &mut paths);
        }
        paths.sort();
        let mut files = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(&p)?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::parse(&rel, &text));
        }
        let mut manifests: Vec<(String, Vec<String>)> = Vec::new();
        for rel in files.iter().map(SourceFile::manifest) {
            if !manifests.iter().any(|(seen, _)| *seen == rel) {
                let text = std::fs::read_to_string(root.join(&rel)).unwrap_or_default();
                manifests.push((rel, dependency_names(&text)));
            }
        }
        Ok(Workspace { files, manifests })
    }

    /// Builds a workspace from in-memory `(relative_path, source)` pairs —
    /// the fixture-corpus entry point. A path ending in `Cargo.toml` is a
    /// manifest rather than a source file.
    #[must_use]
    pub fn from_sources(srcs: &[(&str, &str)]) -> Workspace {
        let (manifests, sources): (Vec<_>, Vec<_>) =
            srcs.iter().partition(|(rel, _)| rel.ends_with("Cargo.toml"));
        Workspace {
            files: sources.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect(),
            manifests: manifests
                .iter()
                .map(|(rel, text)| ((*rel).to_string(), dependency_names(text)))
                .collect(),
        }
    }

    /// True when `file`'s crate lists `package` among its dependencies. A
    /// crate without a manifest in the workspace depends on nothing.
    #[must_use]
    pub fn depends_on(&self, file: &SourceFile, package: &str) -> bool {
        let manifest = file.manifest();
        self.manifests
            .iter()
            .any(|(rel, deps)| *rel == manifest && deps.iter().any(|d| d == package))
    }

    /// Runs `passes` over every file and returns the report, with inline
    /// waivers applied.
    #[must_use]
    pub fn run(&self, passes: &[&dyn Pass]) -> Report {
        let mut findings = Vec::new();
        for pass in passes {
            let mut sink = Sink { pass_name: pass.name(), hint: pass.hint(), out: &mut findings };
            pass.run(self, &mut sink);
        }
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.pass).cmp(&(&b.file, b.line, b.col, b.pass))
        });
        Report::new(self.files.len(), passes.iter().map(|p| p.name()).collect(), findings)
    }
}

/// One semantic lint pass.
pub trait Pass {
    /// Stable pass slug, used in waivers (`xtask: allow(<name>)`) and the
    /// JSON report.
    fn name(&self) -> &'static str;
    /// One-sentence rationale shown with every diagnostic.
    fn hint(&self) -> &'static str;
    /// Emits findings for the whole workspace through `sink`.
    fn run(&self, ws: &Workspace, sink: &mut Sink<'_>);
}

/// Finding collector handed to passes; applies the waiver index at emit
/// time so passes stay oblivious to suppression.
pub struct Sink<'a> {
    pass_name: &'static str,
    hint: &'static str,
    out: &'a mut Vec<Finding>,
}

impl Sink<'_> {
    /// Emits a finding anchored at token `tok` of `file`.
    pub fn emit(&mut self, file: &SourceFile, tok: usize, message: String) {
        let (line, col) = file.toks.get(tok).map_or((1, 1), |t| (t.line, t.col));
        self.emit_at(file, line, col, message);
    }

    /// Emits a finding at an explicit position.
    pub fn emit_at(&mut self, file: &SourceFile, line: u32, col: u32, message: String) {
        let waived = file.waived(line, self.pass_name);
        self.out.push(Finding {
            pass: self.pass_name,
            hint: self.hint,
            file: file.rel.clone(),
            line,
            col,
            excerpt: file.excerpt(line),
            message,
            waived,
        });
    }
}

/// The package names a manifest's dependency tables list: keys of
/// `[dependencies]`-like tables (not `[workspace.dependencies]`, which
/// declares versions without depending) and `[dependencies.<name>]` headers.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            let is_deps = |h: &str| h.ends_with("dependencies") && !h.starts_with("workspace.");
            in_table = is_deps(header);
            if let Some((table, name)) = header.rsplit_once('.') {
                if is_deps(table) {
                    names.push(name.trim_matches('"').to_string());
                }
            }
            continue;
        }
        if in_table && !line.starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                let name = key.split('.').next().unwrap_or(key);
                names.push(name.trim().trim_matches('"').to_string());
            }
        }
    }
    names
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_same_line_and_block_above() {
        let sf = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "// xtask: allow(determinism) — invariant: one entry per vertex\n\
             v.iter().sum();\n\
             w.iter().sum(); // xtask: allow(determinism) — ditto\n\
             z.iter().sum();\n",
        );
        assert!(sf.waived(2, "determinism"));
        assert!(sf.waived(3, "determinism"));
        assert!(!sf.waived(4, "determinism"));
        assert!(!sf.waived(2, "seqcst"), "waivers are per-rule");
    }

    #[test]
    fn waiver_multi_line_comment_block() {
        let sf = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "// A longer justification that spans\n\
             // two lines. xtask: allow(determinism) — reason\n\
             // and a trailing remark.\n\
             v.iter().sum();\n",
        );
        assert!(sf.waived(4, "determinism"));
    }

    #[test]
    fn manifests_name_what_a_crate_depends_on() {
        let ws = Workspace::from_sources(&[
            (
                "Cargo.toml",
                "[workspace.dependencies]\nkadabra-mpisim = { path = \"crates/mpisim\" }\n\
                 [dependencies]\nkadabra-core = { workspace = true }\n",
            ),
            (
                "crates/core/Cargo.toml",
                "[dependencies]\n# a comment = no dependency\nkadabra-mpisim.workspace = true\n",
            ),
            ("crates/cluster/Cargo.toml", "[dev-dependencies.kadabra-mpisim]\npath = \"x\"\n"),
            ("crates/core/src/lib.rs", ""),
            ("crates/cluster/src/lib.rs", ""),
            ("crates/graph/src/lib.rs", ""),
            ("src/lib.rs", ""),
        ]);
        let deps = |i: usize| ws.depends_on(&ws.files[i], "kadabra-mpisim");
        assert_eq!(ws.files.len(), 4, "manifests are not source files");
        assert_eq!((deps(0), deps(1), deps(2), deps(3)), (true, true, false, false));
        assert!(ws.depends_on(&ws.files[3], "kadabra-core"));
    }

    #[test]
    fn crate_name_resolution() {
        assert_eq!(SourceFile::parse("crates/epoch/src/lib.rs", "").crate_name(), "epoch");
        assert_eq!(SourceFile::parse("src/lib.rs", "").crate_name(), "kadabra-mpi");
    }

    #[test]
    fn test_path_detection_matches_legacy() {
        for p in [
            "crates/demo/tests/it.rs",
            "tests/chaos.rs",
            "crates/x/src/bin/tool.rs",
            "crates/x/src/main.rs",
            "crates/mpisim/src/tests.rs",
        ] {
            assert!(SourceFile::parse(p, "").is_test_path(), "{p}");
        }
        assert!(!SourceFile::parse("crates/x/src/lib.rs", "").is_test_path());
    }
}
