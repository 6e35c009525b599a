//! The `kadabra` binary end to end: directed input takes the same dispatch
//! as undirected input, so `--mode`, `--ranks`, `--threads` and `--metrics`
//! apply to it.

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
