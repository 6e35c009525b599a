//! `noise`: the A/A check. Runs every workload at seeds `1..=10` twice over —
//! each run a child process, exactly as `/BENCHMARK.json`'s command runs it,
//! for its `run_seconds` — and holds each end-to-end metric against its bound
//! the way the acceptance rule does: the spread between the quartiles of the
//! ten values as a share of their median, and how far apart the medians of
//! the two sets are, in either direction (two sets of the same code that
//! differ by more than the bound disagree, whichever is the faster).

use crate::names::{Better, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};
use crate::workload::{Workload, WORKLOADS};
use kadabra_telemetry::json::Json;
use std::process::Command;

/// Seeds per set, as the acceptance rule fixes them.
const SEEDS: u64 = 10;
/// Two wall times in seconds that differ by less than this never disagree
/// (ISSUE 13: `road-seq` sets up in 2 ms, and 25 % of that is below what the
/// page cache and the timer resolve).
const FLOOR_S: f64 = 0.010;

pub(crate) const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The bound `/BENCHMARK.json` fixes for an end-to-end metric.
fn bound_of(doc: &Json, metric: &str) -> f64 {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|list| list.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(metric)))
        .and_then(|e| e.get("bound"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no bound for {metric}"))
}

/// One child run; returns its end-to-end metrics and failed-operation count.
fn child(workload: &str, seed: u64, seconds: &str) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    let doc =
        Json::parse(last).map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !out.status.success() || !matches!(doc.get("correct"), Some(Json::Bool(true))) {
        return Err(format!("{workload} seed {seed}: incorrect result\n{stdout}"));
    }
    let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok((doc, failed))
}

/// Share by which `second` is worse than `first` (negative when better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => second / first - 1.0,
        Better::Higher => first / second - 1.0,
    }
}

/// What the rule says about one metric of one workload, given its two sets.
#[derive(Debug, PartialEq)]
struct Verdict {
    /// Quartile distance of each set as a share of its median.
    spreads: [f64; 2],
    /// Share by which the second median is worse than the first.
    worse: f64,
    /// Both spreads and the gap between the medians, either way, within
    /// `bound` (or, for wall times, under [`FLOOR_S`]).
    agree: bool,
}

fn judge(better: Better, unit: &str, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let floor = if unit == "s" { FLOOR_S } else { 0.0 };
    let (ma, mb) = (median(a), median(b));
    let steady = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        relative_spread(v) <= bound || q3 - q1 < floor
    };
    let apart = worsening(better, ma, mb).max(worsening(better, mb, ma));
    Verdict {
        spreads: [relative_spread(a), relative_spread(b)],
        worse: worsening(better, ma, mb),
        agree: steady(a) && steady(b) && (apart <= bound || (ma - mb).abs() < floor),
    }
}

/// Entry point of the sub-command. `Ok(true)` iff every metric of every
/// workload agrees within its bound and no operation failed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds").to_string();
    let chosen: Vec<&Workload> = match args {
        [] => WORKLOADS.iter().collect(),
        [flag, name] if flag == "--workload" => {
            vec![Workload::named(name).ok_or("unknown workload")?]
        }
        _ => return Err("noise takes only --workload <name>".into()),
    };

    let mut agree = true;
    println!("# workload metric set1_median set2_median spread1 spread2 worsening bound verdict");
    for w in chosen {
        // sets[set][metric] = the ten values of that metric.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        let mut failed = 0.0;
        for set in &mut sets {
            for seed in 1..=SEEDS {
                let (doc, f) = child(w.name, seed, &seconds)?;
                failed += f;
                for (values, m) in set.iter_mut().zip(END_TO_END) {
                    let v = doc
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|e| e.get("value"));
                    values.push(
                        v.and_then(Json::as_f64).ok_or_else(|| format!("{} missing", m.name))?,
                    );
                }
                let row: Vec<String> =
                    set.iter().map(|v| format!("{:.6}", v[v.len() - 1])).collect();
                eprintln!("# {} seed {seed}: {}", w.name, row.join(" "));
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let bound = bound_of(&doc, m.name);
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let v = judge(m.better, m.unit, bound, a, b);
            agree &= v.agree;
            println!(
                "{} {} {:.6} {:.6} {:.4} {:.4} {:+.4} {bound} {}",
                w.name,
                m.name,
                median(a),
                median(b),
                v.spreads[0],
                v.spreads[1],
                v.worse,
                if v.agree { "agree" } else { "unresolved" }
            );
        }
        println!("{} failed_ops {failed} count", w.name);
        agree &= failed == 0.0;
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn two_sets_agree_only_if_both_are_steady_and_neither_median_is_far_from_the_other() {
        let around = |m: f64, spread: f64| -> Vec<f64> {
            (0..10).map(|i| m * (1.0 + spread * (f64::from(i) - 4.5) / 5.5)).collect()
        };
        let quiet = around(3.0, 0.05);
        let v = judge(Better::Lower, "s", 0.25, &quiet, &around(3.3, 0.05));
        assert!(v.agree && (v.worse - 0.1).abs() < 1e-9 && (v.spreads[0] - 0.05).abs() < 1e-9);
        // A second set a third faster disagrees as much as one a third slower.
        assert!(!judge(Better::Lower, "s", 0.25, &quiet, &around(2.0, 0.05)).agree);
        assert!(!judge(Better::Lower, "s", 0.25, &quiet, &around(4.0, 0.05)).agree);
        assert!(!judge(Better::Higher, "1/s", 0.25, &quiet, &around(4.0, 0.05)).agree);
        // A set that spreads beyond the bound is unresolved, setup or not.
        assert!(!judge(Better::Lower, "s", 0.25, &quiet, &around(3.0, 0.4)).agree);
        // Wall times under 10 ms apart never disagree; other units have no floor.
        let (a, b) = (around(0.002, 0.4), around(0.003, 0.4));
        assert!(judge(Better::Lower, "s", 0.25, &a, &b).agree);
        assert!(!judge(Better::Lower, "MiB", 0.25, &a, &b).agree);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_on_file() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        for m in END_TO_END {
            assert!(bound_of(&doc, m.name) > 0.0);
        }
    }
}
