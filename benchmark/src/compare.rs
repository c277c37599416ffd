//! `gridbench compare <a> <b>`: two sets of runs (files of `--out`
//! lines), `a` the parent and `b` the change, judged against the bounds
//! the benchmark fixed. One row per workload and end-to-end metric, with
//! both medians, the ratio with its base, and — for the bounded ones — a
//! verdict:
//!
//! * `unresolved` — the run-to-run spread of either side (quartile
//!   distance over median) is wider than the bound, so nothing can be said;
//! * `regress` — `b`'s median is worse than `a`'s by more than the bound;
//! * `pass` — neither.
//!
//! Failures are compared as shares with the absolute bound below, and the
//! exact-count metrics of traced runs of the same simulator workload and
//! seed must be identical.

use crate::report::{Better, MetricDef, ALL_ROUNDS, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread, share};
use obs::json::{self, Value};
use std::collections::BTreeMap;

/// Workloads on real sockets and wall-clock timers: one retransmit timer
/// firing changes their counts, so those are not required to repeat.
const WALL_CLOCK_WORKLOADS: &[&str] = &["udp_farm"];

/// `failed_share` may rise by this much, absolute.
const FAILED_SHARE_BOUND: f64 = 0.001;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

/// Judge one metric: samples of the parent `a` and the change `b`.
pub fn judge(def: &MetricDef, a: &mut [f64], b: &mut [f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match def.better {
        Better::Lower => share(mb - ma, ma),
        Better::Higher => share(ma - mb, ma),
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let verdict = if spread > def.bound {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (ma, mb, verdict)
}

/// One `--out` line.
struct Line {
    workload: String,
    seed: u64,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_line(text: &str) -> Result<Line, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let field = |v: &Value, key: &str| v.get(key).cloned().ok_or(format!("no {key:?}"));
    let result = field(&v, "result")?;
    let metrics = field(&result, "metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Line {
        workload: field(&v, "workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        seed: field(&v, "seed")?.as_u64().ok_or("seed is not a number")?,
        traced: matches!(field(&v, "trace")?, Value::Bool(true)),
        attempted: field(&result, "attempted")?.as_u64().unwrap_or(0),
        failed: field(&result, "failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

fn read(path: &str) -> Result<Vec<Line>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse_line(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn samples(lines: &[Line], workload: &str, metric: &str) -> Vec<f64> {
    lines
        .iter()
        .filter(|l| !l.traced && l.workload == workload)
        .filter_map(|l| l.metrics.get(metric).copied())
        .collect()
}

fn is_exact(def: &MetricDef) -> bool {
    def.unit.starts_with("count") || def.unit.starts_with("sim_")
}

/// Print the comparison; `Ok(true)` when nothing regressed, nothing is
/// unresolved and every exact count is identical.
pub fn run(files: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = files else {
        return Err("usage: gridbench compare <a.jsonl> <b.jsonl>".into());
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let mut clean = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8}  {:<24} verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "base"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END.iter().chain(ALL_ROUNDS) {
            let (mut sa, mut sb) = (
                samples(&a, workload, def.name),
                samples(&b, workload, def.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (ma, mb, verdict) = judge(def, &mut sa, &mut sb);
            let verdict = if def.bound > 0.0 {
                clean &= verdict == Verdict::Pass;
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "regress",
                    Verdict::Unresolved => "unresolved",
                }
                .to_string()
            } else {
                // Every round counted, tail included: shown, not judged.
                format!(
                    "no bound (spread {:.0} %, {:.0} %)",
                    100.0 * quartile_spread(&mut sa),
                    100.0 * quartile_spread(&mut sb)
                )
            };
            println!(
                "{workload:<16} {:<16} {ma:>14.4} {mb:>14.4} {:>8.4}  {:<24} {verdict}",
                def.name,
                share(mb, ma),
                format!("a = {ma:.4} {} (n={})", def.unit, sa.len()),
            );
        }
        let failed_share = |lines: &[Line]| {
            lines
                .iter()
                .filter(|l| !l.traced && l.workload == *workload)
                .fold((0, 0), |(f, n), l| (f + l.failed, n + l.attempted))
        };
        let ((fa, na), (fb, nb)) = (failed_share(&a), failed_share(&b));
        if na > 0 && nb > 0 {
            let (sa, sb) = (share(fa as f64, na as f64), share(fb as f64, nb as f64));
            let ok = sb <= sa + FAILED_SHARE_BOUND;
            clean &= ok;
            println!(
                "{workload:<16} {:<16} {sa:>14.6} {sb:>14.6} {:>8}  {:<24} {}",
                "failed_share",
                "",
                format!("a = {fa} of {na} attempted"),
                if ok { "pass" } else { "regress" }
            );
        }
    }

    let (mut same, mut differ) = (0, 0);
    let simulated = |l: &&Line| l.traced && !WALL_CLOCK_WORKLOADS.contains(&l.workload.as_str());
    for la in a.iter().filter(simulated) {
        let twin = b
            .iter()
            .find(|lb| lb.traced && lb.workload == la.workload && lb.seed == la.seed);
        let Some(lb) = twin else { continue };
        for def in PER_LAYER.iter().filter(|d| is_exact(d)) {
            let (va, vb) = (la.metrics.get(def.name), lb.metrics.get(def.name));
            if va == vb {
                same += 1;
            } else {
                differ += 1;
                println!(
                    "{:<16} {:<32} seed {}: {va:?} then {vb:?}  exact count differs",
                    la.workload, def.name, la.seed
                );
            }
        }
    }
    println!("exact counts: {same} identical, {differ} differ");
    Ok(clean && differ == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 25 % bound.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "metric",
            unit: "unit",
            better,
            bound: 0.25,
        }
    }

    #[test]
    fn worse_means_up_for_lower_is_better_and_down_for_higher() {
        let d = &def(Better::Lower);
        assert_eq!(judge(d, &mut [100.0], &mut [124.0]).2, Verdict::Pass);
        assert_eq!(judge(d, &mut [100.0], &mut [126.0]).2, Verdict::Regress);
        assert_eq!(judge(d, &mut [100.0], &mut [50.0]).2, Verdict::Pass);
        let d = &def(Better::Higher);
        assert_eq!(judge(d, &mut [100.0], &mut [76.0]).2, Verdict::Pass);
        assert_eq!(judge(d, &mut [100.0], &mut [74.0]).2, Verdict::Regress);
        assert_eq!(judge(d, &mut [100.0], &mut [200.0]).2, Verdict::Pass);
    }

    #[test]
    fn a_spread_wider_than_the_bound_resolves_nothing() {
        let d = &def(Better::Higher);
        let mut noisy = [40.0, 70.0, 100.0, 130.0, 160.0];
        let mut steady = [50.0, 50.0, 50.0, 50.0, 50.0];
        // Half the throughput would be a regression, but `a` cannot say.
        let (ma, mb, verdict) = judge(d, &mut noisy, &mut steady);
        assert_eq!((ma, mb, verdict), (100.0, 50.0, Verdict::Unresolved));
        assert_eq!(
            judge(d, &mut [100.0; 5], &mut noisy.clone()).2,
            Verdict::Unresolved
        );
    }

    #[test]
    fn out_lines_parse_back() {
        let line = "{\"workload\": \"udp_farm\", \"seed\": 7, \"trace\": false, \"result\": \
                    {\"correct\": true, \"attempted\": 640, \"failed\": 2, \"metrics\": \
                    {\"ops_per_s\": {\"value\": 1206.5, \"unit\": \"1/s\"}}}}";
        let l = parse_line(line).unwrap();
        assert_eq!(
            (l.workload.as_str(), l.seed, l.traced),
            ("udp_farm", 7, false)
        );
        assert_eq!((l.attempted, l.failed), (640, 2));
        assert_eq!(l.metrics["ops_per_s"], 1206.5);
        assert!(parse_line("{\"workload\": 3}").is_err());
        assert!(parse_line("not json").is_err());
    }

    #[test]
    fn exact_units_are_the_count_and_sim_ones() {
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|d| is_exact(d))
            .map(|d| d.name)
            .collect();
        assert!(exact.contains(&"netsim.events_per_op"));
        assert!(exact.contains(&"core.grid.sim_makespan_s"));
        assert!(exact.contains(&"p2p.lookup_found_share"));
        assert!(!exact.contains(&"alloc.per_op"));
        assert!(!exact.contains(&"netsim.step_share"));
    }
}
