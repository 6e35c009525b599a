//! Every metric the benchmark prints, by name. `/BENCHMARK.json` lists the
//! same names with the same units and directions; a test here fails when the
//! two drift apart. README.md says what each layer metric should move.

/// Whether a smaller or a larger value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Counted or timed inside the workload's measured section, or read from
    /// the value the measured call returns. Zero on a workload whose measured
    /// section never enters that layer — the "bypass" prediction, checkable.
    Observed,
    /// A unit cost: the harness times the layer's public function on the
    /// workload's own input, outside the measured section.
    Probe,
}

/// A named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Origin (per-layer metrics only; end-to-end ones are all observed).
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric { name, unit, better, source }
}

use Better::{Higher, Lower};
use Source::{Observed, Probe};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, Observed),
    m("solve_s", "s", Lower, Observed),
    m("samples_per_s", "1/s", Higher, Observed),
    m("peak_rss_mib", "MiB", Lower, Observed),
];

/// What the traced run reports. The first four are what a writer and a
/// reader of `serve-mixed` see — end-to-end numbers by nature, under the names
/// ISSUE 13 gives them, listed here because one end-to-end list serves all
/// workloads and the solves have no such numbers. The rest are single-layer
/// numbers; their prefix is the crate.
pub const PER_LAYER: &[Metric] = &[
    m("update_p50_ms", "ms", Lower, Observed),
    m("read_p50_us", "us", Lower, Observed),
    m("topk_p50_us", "us", Lower, Observed),
    m("sync_reads_per_s", "1/s", Higher, Observed),
    m("graph.read_path_s", "s", Lower, Probe),
    m("graph.relabel_s", "s", Lower, Probe),
    m("graph.diameter_s", "s", Lower, Probe),
    m("graph.kernel_ns_per_sample", "ns", Lower, Probe),
    m("graph.kernel_scalar_ns_per_sample", "ns", Lower, Probe),
    m("graph.kernel_edges_per_sample", "count", Lower, Probe),
    m("graph.kernel_bytes_per_sample_computed", "B", Lower, Probe),
    m("graph.kernel_allocs_per_sample", "count", Lower, Probe),
    m("core.diameter_s", "s", Lower, Observed),
    m("core.calibration_s", "s", Lower, Observed),
    m("core.adaptive_sampling_s", "s", Lower, Observed),
    m("core.samples", "count", Lower, Observed),
    m("core.epochs", "count", Lower, Observed),
    m("core.omega", "count", Lower, Observed),
    m("core.samples_over_omega", "ratio", Lower, Observed),
    m("core.err_over_eps", "ratio", Lower, Observed),
    m("core.parallel_efficiency", "ratio", Higher, Observed),
    m("core.check_us", "us", Lower, Probe),
    m("core.achieved_epsilon_us", "us", Lower, Probe),
    m("epoch.aggregate_us", "us", Lower, Probe),
    m("epoch.transition_ns", "ns", Lower, Probe),
    m("epoch.record_sample_ns", "ns", Lower, Probe),
    m("epoch.frame_bytes", "B", Lower, Probe),
    m("mpisim.reduce_ms", "ms", Lower, Probe),
    m("mpisim.ibcast_us", "us", Lower, Probe),
    m("mpisim.ibarrier_us", "us", Lower, Probe),
    m("mpisim.universe_spawn1_us", "us", Lower, Probe),
    m("mpisim.universe_spawn2_us", "us", Lower, Probe),
    m("mpisim.bytes_per_epoch", "B", Lower, Observed),
    m("mpisim.reduce_wait_s", "s", Lower, Observed),
    m("mpisim.barrier_wait_s", "s", Lower, Observed),
    m("mpisim.transition_wait_s", "s", Lower, Observed),
    m("telemetry.span_ns", "ns", Lower, Probe),
    m("cluster.cost_model_s", "s", Lower, Probe),
    m("cluster.des_predicted_over_live", "ratio", Lower, Probe),
    m("server.add_tenant_s", "s", Lower, Probe),
    m("server.cache_read_ns", "ns", Lower, Probe),
    m("server.client_vertex_ns", "ns", Lower, Probe),
    m("server.client_topk_us", "us", Lower, Probe),
    m("server.wire_rtt_us", "us", Lower, Probe),
    m("server.publish_frontier_us", "us", Lower, Probe),
    m("server.refine_rounds", "count", Lower, Observed),
    m("server.engine_round_ms", "ms", Lower, Observed),
    m("server.read_p95_us", "us", Lower, Observed),
    m("server.read_max_us", "us", Lower, Observed),
    m("server.reads_not_ready", "count", Lower, Observed),
    m("server.reads_shed", "count", Lower, Observed),
    m("server.reads_late", "count", Lower, Observed),
    m("server.generator_late_us", "us", Lower, Observed),
    m("dynamic.apply_update_ms", "ms", Lower, Probe),
    m("dynamic.work_edges_per_update", "count", Lower, Probe),
    m("dynamic.compactions", "count", Lower, Probe),
    m("dynamic.overlay_kernel_ns_per_sample", "ns", Lower, Probe),
    m("dynamic.invalidated_per_batch", "count", Lower, Observed),
    m("dynamic.invalidated_ratio", "ratio", Lower, Observed),
    m("baselines.brandes_s", "s", Lower, Probe),
    m("harness.generate_s", "s", Lower, Observed),
    m("harness.oracle_s", "s", Lower, Observed),
    m("harness.trace_overhead_ratio", "ratio", Lower, Observed),
    m("harness.machine_speed", "ratio", Higher, Observed),
    m("harness.solve_wall_s", "s", Lower, Observed),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use kadabra_telemetry::json::Json;

    use crate::noise::BENCHMARK_JSON as FILE;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(table: &[Metric]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|m| {
                let better = if m.better == Lower { "lower" } else { "higher" };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_units_and_directions_printed() {
        let doc = Json::parse(FILE).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }

    #[test]
    fn every_bound_is_a_share_of_at_most_a_quarter_and_setup_has_the_largest() {
        let doc = Json::parse(FILE).expect("BENCHMARK.json parses");
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end")
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(Json::as_str).expect("name").to_string();
                (name, e.get("bound").and_then(Json::as_f64).expect("bound"))
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").expect("setup_s").1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.25, "{name}: bound {b}");
            assert!(*b <= setup, "{name}: setup_s must carry the largest bound");
        }
    }

    #[test]
    fn names_are_unique_and_use_only_the_allowed_characters() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name);
        for name in names.chain(WORKLOADS.iter().map(|w| w.name)) {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
