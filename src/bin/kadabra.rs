//! `kadabra` — command-line betweenness approximation.
//!
//! ```text
//! kadabra <GRAPH> [--eps 0.01] [--delta 0.1] [--mode seq|shared|mpi|epoch-mpi]
//!                 [--threads T] [--ranks P] [--top K] [--seed S] [--all]
//!                 [--trace FILE] [--metrics]
//! ```
//!
//! `--trace FILE` records the run's telemetry events and writes a Chrome
//! trace-event JSON (open in `chrome://tracing` or Perfetto; one process
//! row per MPI rank, one thread row per sampling thread). `--metrics`
//! prints the phase-breakdown table (spans, counters, reduction overlap)
//! to stderr after the run. Both observe the run without changing it.
//!
//! `GRAPH` is an edge-list text file (`u v` per line, `#`/`%` comments —
//! the SNAP/KONECT interchange format) or a `.bin` CSR cache written by
//! this tool's `--save-bin` option. By default the graph is read as
//! undirected and unweighted and reduced to its largest connected component,
//! exactly like the paper's experimental setup. `--directed` reads an arc
//! list, `--weighted` reads `u v w` triples; both run on the input as given
//! and honour every other option — the drivers sample through one hook, so
//! they do not care what kind of graph it is (paper footnote 1).

use kadabra_mpi::core::{
    kadabra_epoch_mpi_traced, kadabra_mpi_flat_traced, kadabra_sequential_traced,
    kadabra_shared_traced, ClusterShape, KadabraConfig,
};
use kadabra_mpi::graph::components::largest_component;
use kadabra_mpi::graph::io::{read_arc_list, read_path, read_weighted_edge_list, write_path};
use kadabra_mpi::graph::{KadabraGraph, NodeId};
use kadabra_mpi::telemetry::{chrome, Telemetry};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    graph: PathBuf,
    eps: f64,
    delta: f64,
    mode: String,
    threads: usize,
    ranks: usize,
    top: usize,
    seed: u64,
    all: bool,
    save_bin: Option<PathBuf>,
    directed: bool,
    weighted: bool,
    trace: Option<PathBuf>,
    metrics: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: kadabra <GRAPH> [--eps 0.01] [--delta 0.1] \
         [--mode seq|shared|mpi|epoch-mpi] [--threads T] [--ranks P] \
         [--top K] [--seed S] [--all] [--save-bin FILE] [--directed] [--weighted] \
         [--trace FILE] [--metrics]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        graph: PathBuf::new(),
        eps: 0.01,
        delta: 0.1,
        mode: "seq".into(),
        threads: 2,
        ranks: 2,
        top: 10,
        seed: 42,
        all: false,
        save_bin: None,
        directed: false,
        weighted: false,
        trace: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    let mut have_graph = false;
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--eps" => args.eps = val("--eps").parse().unwrap_or_else(|_| usage()),
            "--delta" => args.delta = val("--delta").parse().unwrap_or_else(|_| usage()),
            "--mode" => args.mode = val("--mode"),
            "--threads" => args.threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--ranks" => args.ranks = val("--ranks").parse().unwrap_or_else(|_| usage()),
            "--top" => args.top = val("--top").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--all" => args.all = true,
            "--directed" => args.directed = true,
            "--weighted" => args.weighted = true,
            "--save-bin" => args.save_bin = Some(PathBuf::from(val("--save-bin"))),
            "--trace" => args.trace = Some(PathBuf::from(val("--trace"))),
            "--metrics" => args.metrics = true,
            "--help" | "-h" => usage(),
            _ if !have_graph => {
                args.graph = PathBuf::from(a);
                have_graph = true;
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if !have_graph {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.directed && args.weighted {
        eprintln!("--directed and --weighted are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if args.directed || args.weighted {
        // No LCC reduction: component structure differs for digraphs, and
        // disconnected pairs are handled by the estimator.
        let file = match std::fs::File::open(&args.graph) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error opening {}: {e}", args.graph.display());
                return ExitCode::FAILURE;
            }
        };
        let loaded = if args.directed {
            read_arc_list(file).map(|g| {
                eprintln!("loaded digraph: {} vertices, {} arcs", g.num_nodes(), g.num_arcs());
                run(&g, None, &args)
            })
        } else {
            read_weighted_edge_list(file).map(|g| {
                eprintln!(
                    "loaded weighted graph: {} vertices, {} edges",
                    g.num_nodes(),
                    g.num_edges()
                );
                run(&g, None, &args)
            })
        };
        return loaded.unwrap_or_else(|e| {
            eprintln!("error reading {}: {e}", args.graph.display());
            ExitCode::FAILURE
        });
    }
    let raw = match read_path(&args.graph) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error reading {}: {e}", args.graph.display());
            return ExitCode::FAILURE;
        }
    };
    let (g, mapping) = largest_component(&raw);
    eprintln!(
        "loaded {}: {} vertices, {} edges (lcc of {} / {})",
        args.graph.display(),
        g.num_nodes(),
        g.num_edges(),
        raw.num_nodes(),
        raw.num_edges()
    );
    // Every driver samples `g` as given, so the solve holds this one CSR.
    drop(raw);
    if let Some(path) = &args.save_bin {
        if let Err(e) = write_path(&g, path) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("cached lcc to {}", path.display());
    }
    run(&g, Some(&mapping), &args)
}

/// Solves on `g` in the selected mode and reports — the one path every graph
/// kind takes. `original_ids` maps `g`'s vertex ids back to the input's.
fn run<G: KadabraGraph + Sync>(g: &G, original_ids: Option<&[NodeId]>, args: &Args) -> ExitCode {
    if g.num_nodes() < 2 {
        eprintln!("graph too small for betweenness");
        return ExitCode::FAILURE;
    }

    let cfg = KadabraConfig {
        epsilon: args.eps,
        delta: args.delta,
        seed: args.seed,
        ..Default::default()
    };
    // One telemetry registry observes the whole run: buffered events when a
    // Chrome trace was requested, counters/spans only otherwise.
    let tel = if args.trace.is_some() { Telemetry::tracing() } else { Telemetry::stats_only() };
    let result = match args.mode.as_str() {
        "seq" => kadabra_sequential_traced(g, &cfg, &tel),
        "shared" => kadabra_shared_traced(g, &cfg, args.threads, &tel),
        "mpi" => kadabra_mpi_flat_traced(g, &cfg, args.ranks, &tel),
        "epoch-mpi" => kadabra_epoch_mpi_traced(
            g,
            &cfg,
            ClusterShape {
                ranks: args.ranks,
                ranks_per_node: 2.min(args.ranks),
                threads_per_rank: args.threads,
            },
            &tel,
        ),
        other => {
            eprintln!("unknown mode: {other}");
            usage();
        }
    };

    if let Some(path) = &args.trace {
        if let Err(e) = write_chrome_trace(&tel, path) {
            eprintln!("error writing trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.metrics {
        eprint!("{}", tel.summary());
    }

    eprintln!(
        "done: {} samples (omega {}), {} epochs, diameter {:.2?} / calibration {:.2?} / sampling {:.2?}",
        result.samples,
        result.omega,
        result.stats.epochs,
        result.timings.diameter,
        result.timings.calibration,
        result.timings.adaptive_sampling,
    );

    let original = |v: NodeId| original_ids.map_or(v, |ids| ids[v as usize]);
    if args.all {
        // Full score dump: `original_vertex_id score` per line on stdout.
        for (v, score) in result.scores.iter().enumerate() {
            println!("{} {score:.8}", original(v as NodeId));
        }
    } else {
        println!("top {} vertices by approximate betweenness:", args.top);
        for (v, score) in result.top_k(args.top) {
            println!("{} {score:.8}", original(v));
        }
    }
    ExitCode::SUCCESS
}

/// Writes the buffered telemetry events as Chrome trace-event JSON.
fn write_chrome_trace(tel: &Telemetry, path: &PathBuf) -> std::io::Result<()> {
    use std::io::Write;
    let events = tel.events();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    chrome::write_trace(&events, tel.time_base(), &mut out)?;
    out.flush()?;
    eprintln!(
        "wrote {} trace events to {}{}",
        events.len(),
        path.display(),
        if tel.dropped_events() > 0 {
            format!(" ({} dropped: ring buffer full)", tel.dropped_events())
        } else {
            String::new()
        }
    );
    Ok(())
}
