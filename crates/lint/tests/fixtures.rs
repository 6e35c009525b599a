//! Fixture-corpus conformance suite.
//!
//! Every pass ships three fixtures under `tests/fixtures/<pass>/`:
//!
//! - `bad.rs` — must trip the pass, on exactly the lines carrying a
//!   `//~ <pass>` marker (checked with precise line numbers, so span
//!   regressions fail here, not in production sweeps);
//! - `good.rs` — the sanctioned idiom for the same operation; must produce
//!   zero findings of the pass;
//! - `waived.rs` — the violation plus an inline `xtask: allow(...)` waiver;
//!   findings must still be *recorded* but marked waived (never active).
//!
//! Fixtures are plain source text fed through [`Workspace::from_sources`]
//! under pass-appropriate virtual paths (scoped passes only fire inside
//! certain crates); they are never compiled, and the real workspace scan
//! skips `fixtures` directories.

use std::fs;
use std::path::PathBuf;

use kadabra_lint::report::{validate_report, Report};
use kadabra_lint::{passes, Pass, SourceFile, Workspace};

/// What a fixture workspace holds beside the fixture itself.
#[derive(Clone, Copy)]
enum Deps {
    /// Nothing: the fixture's crate has no manifest.
    None,
    /// The shared communicator-API file, whose `pub fn … -> Result<_,
    /// CommError>` signatures feed the hot-loop pass's collective harvest.
    Mpisim,
    /// A manifest making the fixture's crate depend on `loom`.
    Loom,
}

/// Pass slug → virtual workspace path for its fixtures, and what the
/// fixture workspace needs beside them.
const CASES: &[(&str, &str, Deps)] = &[
    ("seqcst", "crates/demo/src/lib.rs", Deps::None),
    ("direct-atomics", "crates/demo/src/lib.rs", Deps::Loom),
    ("atomic-protocol", "crates/demo/src/lib.rs", Deps::None),
    ("determinism", "crates/core/src/fixture.rs", Deps::None),
    ("hot-loop-hygiene", "crates/core/src/fixture.rs", Deps::Mpisim),
];

/// A manifest whose crate routes its atomics through the model checker.
const LOOM_DEPENDENT: &str = "[dependencies]\nloom = { workspace = true, optional = true }\n";

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// Runs the full registry over one fixture and returns the report plus the
/// fixture's source text (for marker extraction).
fn run_case(pass: &str, rel: &str, deps: Deps, which: &str) -> (Report, String) {
    let path = fixtures_root().join(pass).join(format!("{which}.rs"));
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let api_text;
    let manifest = SourceFile::parse(rel, "").manifest();
    let mut sources: Vec<(&str, &str)> = vec![(rel, text.as_str())];
    match deps {
        Deps::None => {}
        Deps::Mpisim => {
            api_text = fs::read_to_string(fixtures_root().join("comm_api.rs")).unwrap();
            sources.push(("crates/mpisim/src/comm.rs", api_text.as_str()));
        }
        Deps::Loom => sources.push((manifest.as_str(), LOOM_DEPENDENT)),
    }
    let ws = Workspace::from_sources(&sources);
    let all = passes::all();
    let refs: Vec<&dyn Pass> = all.iter().map(AsRef::as_ref).collect();
    (ws.run(&refs), text)
}

/// 1-based line numbers carrying a `//~ <pass>` expectation marker.
fn marker_lines(src: &str, pass: &str) -> Vec<u32> {
    let tag = format!("//~ {pass}");
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(tag.as_str()))
        .map(|(i, _)| u32::try_from(i).unwrap() + 1)
        .collect()
}

#[test]
fn bad_fixtures_fire_on_exactly_the_marked_lines() {
    for &(pass, rel, deps) in CASES {
        let (report, src) = run_case(pass, rel, deps, "bad");
        let expected = marker_lines(&src, pass);
        assert!(!expected.is_empty(), "{pass}: bad.rs carries no //~ markers");
        let mut got: Vec<u32> =
            report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, expected, "{pass}: bad.rs findings landed on the wrong lines");
    }
}

#[test]
fn bad_fixture_excerpts_match_the_flagged_source_line() {
    for &(pass, rel, deps) in CASES {
        let (report, src) = run_case(pass, rel, deps, "bad");
        for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
            let line = src
                .lines()
                .nth(usize::try_from(f.line).unwrap() - 1)
                .unwrap_or_else(|| panic!("{pass}: finding line {} out of range", f.line));
            assert_eq!(f.excerpt, line.trim(), "{pass}: excerpt drifted from source");
            assert!(f.col >= 1, "{pass}: columns are 1-based");
            assert!(
                usize::try_from(f.col).unwrap() <= line.chars().count(),
                "{pass}: column {} past end of line {}",
                f.col,
                f.line
            );
        }
    }
}

#[test]
fn server_read_path_fixtures_fire_on_exactly_the_marked_lines() {
    // The hot-loop-hygiene pass's third scope: cache read-path bodies under
    // `crates/server/src`. `server_bad.rs` must trip line-exactly; the
    // sanctioned `server_good.rs` (pre-sized reader-owned snapshots) must
    // stay clean.
    let pass = "hot-loop-hygiene";
    let rel = "crates/server/src/cache.rs";
    let (report, src) = run_case(pass, rel, Deps::Mpisim, "server_bad");
    let expected = marker_lines(&src, pass);
    assert!(!expected.is_empty(), "server_bad.rs carries no //~ markers");
    let mut got: Vec<u32> =
        report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "server read-path findings landed on the wrong lines");
    for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
        assert!(
            f.message.contains("body of `read_"),
            "finding must name the read-path body it fired in: {}",
            f.message
        );
    }

    let (clean, _) = run_case(pass, rel, Deps::Mpisim, "server_good");
    let hits: Vec<_> = clean.findings.iter().filter(|f| f.pass == pass).collect();
    assert!(
        hits.is_empty(),
        "server_good.rs produced findings: {:?}",
        hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
    );
}

#[test]
fn record_closure_fixtures_fire_on_exactly_the_marked_lines() {
    // The hot-loop-hygiene pass's first scope covers both batch calls: the
    // closure handed to `.sample_batch_records(…)` is the per-sample
    // callback of every Algorithm-1 rank body and of the retaining pools.
    // `records_bad.rs` must trip line-exactly; the sanctioned
    // `records_good.rs` (flat interior pool, push-only) must stay clean.
    let pass = "hot-loop-hygiene";
    let rel = "crates/core/src/fixture.rs";
    let (report, src) = run_case(pass, rel, Deps::Mpisim, "records_bad");
    let expected = marker_lines(&src, pass);
    assert!(!expected.is_empty(), "records_bad.rs carries no //~ markers");
    let mut got: Vec<u32> =
        report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "record-closure findings landed on the wrong lines");
    for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
        assert!(
            f.message.contains("sample_batch_records consume closure"),
            "finding must name the call whose closure it fired in: {}",
            f.message
        );
    }

    let (clean, _) = run_case(pass, rel, Deps::Mpisim, "records_good");
    let hits: Vec<_> = clean.findings.iter().filter(|f| f.pass == pass).collect();
    assert!(
        hits.is_empty(),
        "records_good.rs produced findings: {:?}",
        hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
    );
}

#[test]
fn sample_source_hook_fixtures_fire_on_exactly_the_marked_lines() {
    // The hot-loop-hygiene pass's second scope names the sample-source
    // hook: every `sample_path_into` body under `crates/graph/src` is what
    // `sample_batch_records` calls per drawn pair. `hook_bad.rs` must trip
    // line-exactly; the sanctioned `hook_good.rs` (forward to the kernel,
    // clear + extend the caller's scratch) must stay clean.
    let pass = "hot-loop-hygiene";
    let rel = "crates/graph/src/fixture.rs";
    let (report, src) = run_case(pass, rel, Deps::Mpisim, "hook_bad");
    let expected = marker_lines(&src, pass);
    assert!(!expected.is_empty(), "hook_bad.rs carries no //~ markers");
    let mut got: Vec<u32> =
        report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "hook findings landed on the wrong lines");
    for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
        assert!(
            f.message.contains("body of `sample_path_into`"),
            "finding must name the hook body it fired in: {}",
            f.message
        );
    }

    let (clean, _) = run_case(pass, rel, Deps::Mpisim, "hook_good");
    let hits: Vec<_> = clean.findings.iter().filter(|f| f.pass == pass).collect();
    assert!(
        hits.is_empty(),
        "hook_good.rs produced findings: {:?}",
        hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
    );
}

#[test]
fn walk_back_fixtures_fire_on_exactly_the_marked_lines() {
    // The second scope also names the kernel's walk-back: `backtrack` (and
    // `select_and_backtrack`) run once per hop of every sampled path.
    // `walk_bad.rs` must trip line-exactly; the sanctioned `walk_good.rs`
    // (caller scratch, cleared, pushed and sorted in place) must stay clean.
    let pass = "hot-loop-hygiene";
    let rel = "crates/graph/src/bibfs.rs";
    let (report, src) = run_case(pass, rel, Deps::Mpisim, "walk_bad");
    let expected = marker_lines(&src, pass);
    assert!(!expected.is_empty(), "walk_bad.rs carries no //~ markers");
    let mut got: Vec<u32> =
        report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "walk-back findings landed on the wrong lines");
    for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
        assert!(
            f.message.contains("body of `backtrack`"),
            "finding must name the walk body it fired in: {}",
            f.message
        );
    }

    let (clean, _) = run_case(pass, rel, Deps::Mpisim, "walk_good");
    let hits: Vec<_> = clean.findings.iter().filter(|f| f.pass == pass).collect();
    assert!(
        hits.is_empty(),
        "walk_good.rs produced findings: {:?}",
        hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
    );
}

#[test]
fn meet_test_fixtures_fire_on_exactly_the_marked_lines() {
    // The second scope names the kernel's meet test too: `meet_from_far`
    // runs before an expansion of every sample, once per far-frontier
    // vertex. `meet_bad.rs` must trip line-exactly; the sanctioned
    // `meet_good.rs` (borrowed frontiers, caller's cut buffer) must stay clean.
    let pass = "hot-loop-hygiene";
    let rel = "crates/graph/src/bibfs.rs";
    let (report, src) = run_case(pass, rel, Deps::Mpisim, "meet_bad");
    let expected = marker_lines(&src, pass);
    assert!(!expected.is_empty(), "meet_bad.rs carries no //~ markers");
    let mut got: Vec<u32> =
        report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "meet-test findings landed on the wrong lines");
    for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
        assert!(
            f.message.contains("body of `meet_from_far`"),
            "finding must name the meet test it fired in: {}",
            f.message
        );
    }

    let (clean, _) = run_case(pass, rel, Deps::Mpisim, "meet_good");
    let hits: Vec<_> = clean.findings.iter().filter(|f| f.pass == pass).collect();
    assert!(
        hits.is_empty(),
        "meet_good.rs produced findings: {:?}",
        hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
    );
}

#[test]
fn dynamic_kernel_fixtures_fire_on_exactly_the_marked_lines() {
    // The hot-loop-hygiene pass's fourth scope: the streaming-update
    // apply/invalidate kernel bodies under `crates/dynamic/src`.
    // `dynamic_bad.rs` must trip line-exactly; the sanctioned
    // `dynamic_good.rs` (recycled scratch, in-place edits) must stay clean.
    let pass = "hot-loop-hygiene";
    let rel = "crates/dynamic/src/invalidate.rs";
    let (report, src) = run_case(pass, rel, Deps::Mpisim, "dynamic_bad");
    let expected = marker_lines(&src, pass);
    assert!(!expected.is_empty(), "dynamic_bad.rs carries no //~ markers");
    let mut got: Vec<u32> =
        report.active().filter(|f| f.pass == pass && f.file == rel).map(|f| f.line).collect();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "dynamic kernel findings landed on the wrong lines");
    for f in report.active().filter(|f| f.pass == pass && f.file == rel) {
        assert!(
            f.message.contains("body of `"),
            "finding must name the kernel body it fired in: {}",
            f.message
        );
    }

    let (clean, _) = run_case(pass, rel, Deps::Mpisim, "dynamic_good");
    let hits: Vec<_> = clean.findings.iter().filter(|f| f.pass == pass).collect();
    assert!(
        hits.is_empty(),
        "dynamic_good.rs produced findings: {:?}",
        hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
    );
}

#[test]
fn seqcst_column_points_at_the_ordering_token() {
    let (report, src) = run_case("seqcst", "crates/demo/src/lib.rs", Deps::None, "bad");
    let f = report.active().find(|f| f.pass == "seqcst").expect("seqcst fired");
    let line = src.lines().nth(usize::try_from(f.line).unwrap() - 1).unwrap();
    let want = u32::try_from(line.find("SeqCst").unwrap()).unwrap() + 1;
    assert_eq!(f.col, want, "span must anchor on the SeqCst token itself");
}

#[test]
fn good_fixtures_stay_completely_clean() {
    for &(pass, rel, deps) in CASES {
        let (report, _) = run_case(pass, rel, deps, "good");
        let hits: Vec<_> = report.findings.iter().filter(|f| f.pass == pass).collect();
        assert!(
            hits.is_empty(),
            "{pass}: good.rs produced findings: {:?}",
            hits.iter().map(|f| (f.line, f.message.as_str())).collect::<Vec<_>>()
        );
    }
}

#[test]
fn waived_fixtures_record_but_suppress_every_finding() {
    for &(pass, rel, deps) in CASES {
        let (report, _) = run_case(pass, rel, deps, "waived");
        let total = report.findings.iter().filter(|f| f.pass == pass && f.file == rel).count();
        let waived =
            report.findings.iter().filter(|f| f.pass == pass && f.file == rel && f.waived).count();
        assert!(total > 0, "{pass}: waived.rs never tripped the pass at all");
        assert_eq!(total, waived, "{pass}: waived.rs has unwaived findings");
        assert_eq!(
            report.active().filter(|f| f.pass == pass).count(),
            0,
            "{pass}: waiver failed to suppress"
        );
    }
}

#[test]
fn fixture_reports_satisfy_the_lint_schema() {
    for which in ["bad", "good", "waived"] {
        let (report, _) = run_case("determinism", "crates/core/src/fixture.rs", Deps::None, which);
        validate_report(&report.to_json())
            .unwrap_or_else(|e| panic!("determinism/{which}.rs report failed schema: {e}"));
    }
}

#[test]
fn direct_atomics_checks_only_crates_that_depend_on_loom() {
    // No model checker sees an atomic of a crate that cannot build with
    // loom, so there is no `sync.rs` for such a crate to route through.
    let bad = fs::read_to_string(fixtures_root().join("direct-atomics/bad.rs")).unwrap();
    let rel = "crates/graph/src/fixture.rs";
    let findings = |manifest: &str| {
        let ws = Workspace::from_sources(&[("crates/graph/Cargo.toml", manifest), (rel, &bad)]);
        let report = ws.run(&[&passes::DirectAtomics]);
        report.active().count()
    };
    assert_eq!(findings("[dependencies]\nkadabra-telemetry = { workspace = true }\n"), 0);
    assert_eq!(findings(LOOM_DEPENDENT), marker_lines(&bad, "direct-atomics").len());
}
