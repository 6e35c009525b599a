//! The `kadabra` binary end to end: directed input takes the same dispatch
//! as undirected input, so `--mode`, `--ranks`, `--threads` and `--metrics`
//! apply to it, and the one-shot modes report undirected results in the
//! input's vertex ids.

use std::process::Command;

#[test]
fn directed_input_honours_mode_ranks_threads_and_metrics() {
    // A directed ring with chords: strongly connected, vertex 0 central.
    let arcs: String = (0..12).map(|v| format!("{v} {}\n{v} 0\n0 {v}\n", (v + 1) % 12)).collect();
    let path = std::env::temp_dir().join(format!("kadabra-cli-{}.arcs", std::process::id()));
    std::fs::write(&path, arcs).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_kadabra"))
        .arg(&path)
        .args(["--directed", "--mode", "epoch-mpi", "--ranks", "2", "--threads", "2"])
        .args(["--metrics", "--top", "3", "--eps", "0.05"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "exit {:?}\n{stderr}", out.status.code());

    // `--top 3`: the header, then three `vertex score` lines led by vertex 0.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert!(lines[0].starts_with("top 3 vertices"));
    assert!(lines[1].starts_with("0 0."), "{stdout}");
    // `--metrics`: the phase table, with the spans only Algorithm 2 records.
    assert!(stderr.contains("loaded digraph: 12 vertices"), "{stderr}");
    for row in ["phase", "transition_wait", "ibarrier_wait", "reduction_overlap"] {
        assert!(stderr.contains(row), "no `{row}` row on stderr:\n{stderr}");
    }
}

#[test]
fn undirected_one_shot_modes_report_input_ids() {
    // A triangle on 0..=2 beside the path 3 - 4 - 5 - 6 - 7: the path is the
    // largest component, so the drivers solve it as vertices 0..5 and the
    // answer must be mapped back to the input's middle vertex, 5.
    let edges = "0 1\n1 2\n2 0\n3 4\n4 5\n5 6\n6 7\n";
    let path = std::env::temp_dir().join(format!("kadabra-cli-{}.edges", std::process::id()));
    std::fs::write(&path, edges).unwrap();
    for mode in ["seq", "shared"] {
        let out = Command::new(env!("CARGO_BIN_EXE_kadabra"))
            .arg(&path)
            .args(["--mode", mode, "--top", "1", "--eps", "0.02"])
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{mode}: exit {:?}\n{stderr}", out.status.code());
        assert!(stderr.contains("5 vertices, 4 edges (lcc of 8 / 7)"), "{mode}: {stderr}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{mode}: {stdout}");
        assert!(lines[1].starts_with("5 0."), "{mode}: {stdout}");
    }
    std::fs::remove_file(&path).unwrap();
}
