//! The three solve workloads: graph in memory → scores, through one driver.

use crate::inputs::Input;
use crate::spans::Tracer;
use crate::speed::{at_nominal, Reference};
use crate::stats::derive_seed;
use crate::workload::{
    another_rep, describe, peak_rss_mib, repeat_setup, Driver, Options, Record, DELTA,
};
use kadabra_baselines::brandes;
use kadabra_core::{
    kadabra_epoch_mpi, kadabra_sequential, BetweennessResult, ClusterShape, KadabraConfig,
};
use kadabra_graph::{io, Graph};
use std::time::{Duration, Instant};

/// Key of the samples per wall-clock second of the measured calls: not
/// reported, but what a probe's wall-clock unit cost is to be held against.
pub const WALL_RATE: &str = "wall samples per s";

/// ε of the check against Brandes on the small instance.
const ORACLE_EPS: f64 = 0.05;

/// The shape of `rmat-epoch`: Algorithm 2 at P·T = 2.
pub const EPOCH_SHAPE: ClusterShape =
    ClusterShape { ranks: 2, ranks_per_node: 2, threads_per_rank: 1 };

/// `KadabraConfig::default()` apart from ε, δ and the seed, so that a changed
/// default shows up end to end.
pub fn config(eps: f64, seed: u64) -> KadabraConfig {
    KadabraConfig { epsilon: eps, delta: DELTA, seed, ..Default::default() }
}

fn drive(driver: Driver, g: &Graph, cfg: &KadabraConfig) -> BetweennessResult {
    match driver {
        Driver::Sequential => kadabra_sequential(g, cfg),
        Driver::EpochMpi => kadabra_epoch_mpi(g, cfg, EPOCH_SHAPE),
    }
}

/// Largest absolute difference between two score vectors.
pub fn max_deviation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors of one graph");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The correctness gate every workload passes before it is timed: `answer`
/// solves the small instance of the workload's family (one operation) and
/// returns its scores with the ε it claims for them, or why it could not;
/// every vertex must then lie within that ε of Brandes.
pub fn against_brandes(
    opts: &Options,
    rec: &mut Record,
    answer: impl FnOnce(&Graph) -> Result<(Vec<f64>, f64), String>,
) {
    let w = opts.workload;
    let t = Instant::now();
    let g = w.oracle_family(&opts.sizes).generate(opts.seed);
    let tb = Instant::now();
    let exact = brandes(&g);
    rec.set_one("baselines.brandes_s", tb.elapsed().as_secs_f64());
    rec.ops += 1;
    let verdict = answer(&g).and_then(|(scores, eps)| {
        let worst = max_deviation(&scores, &exact);
        if worst > eps {
            return Err(format!("off by {worst:.4} from Brandes at a claimed ε of {eps:.4}"));
        }
        Ok(())
    });
    if let Err(why) = verdict {
        rec.wrong(format!("answer on the small instance ({}, seed {}): {why}", w.name, opts.seed));
    }
    rec.set_one("harness.oracle_s", t.elapsed().as_secs_f64());
}

/// Set-up, checks and the measured repetitions of one solve workload.
/// Returns the loaded graph for the layer probes.
pub fn measure(
    opts: &Options,
    driver: Driver,
    input: &Input,
    tracer: &mut Tracer,
    rec: &mut Record,
) -> Graph {
    let w = opts.workload;

    // Set-up a user pays with the input on disk: loading it.
    tracer.next_op();
    let (g, setup) = repeat_setup(|| {
        let (g, _) = tracer.timed("setup:graph.read_path", || io::read_path(&input.path));
        g.expect("verified input loads")
    });
    describe(w, &g);
    rec.set_median("setup_s", &setup);
    rec.set_median("graph.read_path_s", &setup);
    let mut reference = Reference::new(w.threads(), w.memory_share);

    against_brandes(opts, rec, |small| {
        let cfg = config(ORACLE_EPS, derive_seed(opts.seed, w.name, 0));
        Ok((drive(driver, small, &cfg).scores, ORACLE_EPS))
    });

    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut slowdown = rec.read_speed(&mut reference, tracer);
    let (mut times, mut walls, mut traced, mut untraced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut results: Vec<BetweennessResult> = Vec::new();
    while another_rep(&walls, started, budget) {
        let rep = results.len() as u64;
        // The traced run alternates spans on and off; the ratio of the two
        // medians is what the harness's own spans cost.
        let spans_on = opts.trace && rep.is_multiple_of(2);
        tracer.set_enabled(spans_on);
        tracer.next_op();
        let cfg = config(w.eps, derive_seed(opts.seed, w.name, 1 + rep));
        let open = tracer.begin("solve");
        let t = Instant::now();
        let r = drive(driver, &g, &cfg);
        let wall = t.elapsed().as_secs_f64();
        tracer.attach_reported(
            &open,
            &[
                ("core.diameter", r.timings.diameter),
                ("core.calibration", r.timings.calibration),
                ("core.adaptive_sampling", r.timings.adaptive_sampling),
            ],
        );
        tracer.end(open);
        let before = std::mem::replace(&mut slowdown, rec.read_speed(&mut reference, tracer));
        let took = at_nominal(wall, before, slowdown);
        eprintln!(
            "# {} rep {rep}: {wall:.4} s wall, {took:.4} s at the nominal speed, {} samples",
            w.name, r.samples
        );
        rec.ops += 1;
        if r.samples as f64 > 1.1 * r.omega as f64 {
            rec.wrong(format!(
                "solve ({}, seed {}, rep {rep}): {} samples against a cap of ω = {}",
                w.name, opts.seed, r.samples, r.omega
            ));
        }
        times.push(took);
        walls.push(wall);
        if spans_on { &mut traced } else { &mut untraced }.push(took);
        results.push(r);
    }
    tracer.set_enabled(opts.trace);

    // Repetitions use different driver seeds on one graph: two (ε, δ)
    // answers may differ by at most 2ε on any vertex.
    let mut worst = 0.0f64;
    for (i, a) in results.iter().enumerate() {
        for (j, b) in results.iter().enumerate().skip(i + 1) {
            let dev = max_deviation(&a.scores, &b.scores);
            if dev > 2.0 * w.eps {
                rec.wrong(format!(
                    "solve ({}, seed {}, rep {j}): differs from rep {i} by {dev:.5} > 2ε",
                    w.name, opts.seed
                ));
            }
            worst = worst.max(dev);
        }
    }

    rec.set_median("solve_s", &times);
    let rates: Vec<f64> = results.iter().zip(&times).map(|(r, t)| r.samples as f64 / t).collect();
    rec.set_median("samples_per_s", &rates);
    rec.set_median("harness.solve_wall_s", &walls);
    let wall_rates: Vec<f64> =
        results.iter().zip(&walls).map(|(r, t)| r.samples as f64 / t).collect();
    rec.set_median(WALL_RATE, &wall_rates);
    rec.set_one("peak_rss_mib", peak_rss_mib(w.threads()));

    // What the measured call returns about its layers, median over repetitions.
    type Returned = fn(&BetweennessResult) -> f64;
    let returned: [(&'static str, Returned); 7] = [
        ("core.diameter_s", |r| r.timings.diameter.as_secs_f64()),
        ("core.calibration_s", |r| r.timings.calibration.as_secs_f64()),
        ("core.adaptive_sampling_s", |r| r.timings.adaptive_sampling.as_secs_f64()),
        ("mpisim.bytes_per_epoch", |r| r.stats.comm_bytes as f64 / r.stats.epochs.max(1) as f64),
        ("mpisim.reduce_wait_s", |r| r.stats.reduce_time.as_secs_f64()),
        ("mpisim.barrier_wait_s", |r| r.stats.barrier_wait.as_secs_f64()),
        ("mpisim.transition_wait_s", |r| r.stats.transition_wait.as_secs_f64()),
    ];
    for (name, of) in returned {
        rec.set_median(name, &results.iter().map(of).collect::<Vec<_>>());
    }
    // Counts come from the first repetition alone: how many repetitions fit
    // the budget varies with the machine, the first one's seed does not, so
    // on the sequential driver these repeat exactly per benchmark seed.
    let first = &results[0];
    rec.set_one("core.samples", first.samples as f64);
    rec.set_one("core.epochs", first.stats.epochs as f64);
    rec.set_one("core.omega", first.omega as f64);
    rec.set_one("core.samples_over_omega", first.samples as f64 / first.omega as f64);
    rec.set_one("core.err_over_eps", worst / (2.0 * w.eps));
    rec.set_trace_overhead(&traced, &untraced);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_is_the_largest_per_vertex_gap() {
        assert_eq!(max_deviation(&[0.1, 0.5, 0.0], &[0.1, 0.2, 0.1]), 0.3);
        assert_eq!(max_deviation(&[], &[]), 0.0);
    }

    #[test]
    fn only_epsilon_delta_and_seed_leave_the_defaults() {
        let c = config(0.02, 9);
        let d = KadabraConfig::default();
        assert_eq!((c.epsilon, c.delta, c.seed), (0.02, DELTA, 9));
        assert_eq!((c.c, c.n0_base, c.n0_exponent), (d.c, d.n0_base, d.n0_exponent));
        assert_eq!(c.kernel, d.kernel);
        assert_eq!(c.diameter_bfs_budget, d.diameter_bfs_budget);
    }
}
