//! Every metric the benchmark prints, by name, with its unit — the same
//! tables `BENCHMARK.json` lists (a test holds the two together) — and
//! the result line the driver parses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees, in statistics that a slow spell of the
/// host moves least, because these carry bounds (README, "Host noise and
/// the bounds"). Failures travel beside these as `failed` / `attempted` on
/// the result line (`failed_share` in the table), because a share that is 0
/// on a healthy run cannot carry a relative bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("round_ms_p10", "ms", Better::Lower, 0.25),
    e2e("cpu_busy_share", "share", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// The same untraced rounds with every one of them counted, tail included.
/// Printed by every untraced run, kept in its `--out` line and shown by
/// `compare`, but not bounded and so not in `BENCHMARK.json`: on the shared
/// host this was sized on their run-to-run spread reaches 28 %.
pub const ALL_ROUNDS: &[MetricDef] = &[
    lower("rounds", "count"),
    higher("ops_per_s", "1/s"),
    lower("round_ms_p50", "ms"),
    lower("round_ms_p95", "ms"),
    lower("cpu_ms_per_kop", "ms"),
];

/// Units starting with `count` or `sim_` mark exact counts: they repeat
/// bit for bit from the same seed on the simulator workloads, and the
/// traced run asserts it. A workload that does not exercise a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Counts read through public accessors.
    lower("netsim.events_per_op", "count/op"),
    lower("p2p.msgs_per_op", "count/op"),
    lower("p2p.hops_mean", "count/op"),
    lower("p2p.hops_max", "count"),
    higher("p2p.lookup_found_share", "count_share"),
    lower("p2p.flood_duplicate_share", "count_share"),
    lower("core.grid.attempts_per_job", "count/job"),
    lower("core.grid.sim_makespan_s", "sim_s"),
    higher("core.modules.cache_hit_share", "count_share"),
    lower("orch.deltas_per_job", "count/job"),
    higher("store.bytes_from_peers_share", "count_share"),
    lower("transport.frames_per_job", "count/job"),
    lower("transport.acks_per_job", "count/job"),
    lower("transport.retransmit_share", "count_share"),
    lower("transport.chunks_per_job", "count/job"),
    higher("netsim.payload_reuse_share", "count_share"),
    lower("tvm.instr_per_job", "count/job"),
    lower("tvm.tier2_fallback_share", "count_share"),
    lower("alloc.per_op", "allocs/op"),
    lower("transport.udp_wire_bytes_per_job", "B/job"),
    // Driver spans: self time of a layer over round time.
    lower("netsim.step_share", "share"),
    lower("p2p.handle_share", "share"),
    lower("p2p.issue_share", "share"),
    lower("orch.deliver_share", "share"),
    lower("core.grid.handle_share", "share"),
    lower("core.grid.handle_us_per_event", "us"),
    lower("core.grid.submit_share", "share"),
    lower("transport.sim.step_share", "share"),
    lower("transport.node.orch_pump_share", "share"),
    lower("transport.node.worker_pump_share", "share"),
    lower("transport.socket.busy_farm_ms", "ms"),
    lower("transport.socket.idle_share", "share"),
    lower("transport.socket.empty_farm_ms", "ms"),
    lower("transport.udp_farm_ms_p95", "ms"),
    lower("trace.overhead_share", "share"),
    // Stage walk: median time of direct calls into one layer.
    lower("netsim.queue_ns_per_event", "ns"),
    lower("netsim.transfer_ns", "ns"),
    lower("p2p.wire_encode_ns", "ns"),
    lower("p2p.wire_decode_ns", "ns"),
    lower("overlay.closest_ns", "ns"),
    lower("overlay.insert_ns", "ns"),
    lower("store.insert_chunk_ns", "ns"),
    lower("store.assemble_ns_per_kib", "ns"),
    lower("tvm.prepare_us", "us"),
    lower("tvm.exec_ns_per_instr.sph", "ns"),
    lower("tvm.exec_ns_per_instr.lagged", "ns"),
    lower("core.modules.get_prepared_ns", "ns"),
    lower("transport.frame.encode_ns_512", "ns"),
    lower("transport.frame.encode_ns_32k", "ns"),
    lower("transport.frame.decode_ns_512", "ns"),
    lower("transport.frame.decode_ns_32k", "ns"),
    lower("transport.proto.encode_ns_512", "ns"),
    lower("transport.proto.encode_ns_32k", "ns"),
    lower("transport.proto.decode_ns_512", "ns"),
    lower("transport.proto.decode_ns_32k", "ns"),
    lower("transport.reliab.cycle_ns", "ns"),
    lower("transport.socket.rtt_us", "us"),
    lower("trust.choose_ns_96", "ns"),
    lower("obs.incr_ns", "ns"),
    lower("obs.observe_ns", "ns"),
    lower("obs.overhead_share.grid_farm", "share"),
    lower("obs.overhead_share.simnet_bulk", "share"),
    lower("transport.udp_burst.retransmit_share", "share"),
    lower("transport.udp_burst.farm_ms", "ms"),
];

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "grid_farm",
        "scheduler, flooding, orchestrator gossip and trust carry 1500 modelled jobs over 96 churning workers; TVM and transport do nothing",
    ),
    (
        "simnet_bulk",
        "Case-1 shape: 32 KiB each way per job, so frame and proto codecs, reliab, store and the SimNet arena dominate; TVM about a quarter",
    ),
    (
        "simnet_compute",
        "Case-2 shape: 0.7 M instructions and 8 KiB per job, so TVM prepare and exec dominate; bypasses every wire optimisation",
    ),
    (
        "udp_farm",
        "the only workload with syscalls, wall-clock timers and sleep-polling; per-job compute is 1 us, so all of it is runtime overhead",
    ),
    (
        "overlay_lookup",
        "E15 read path at 1e5 routed peers: p2p::routed, overlay and netsim only",
    ),
    (
        "overlay_publish",
        "write side of the same overlay: a lookup gain bought with a slower or fatter provider store shows here",
    ),
];

fn known() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(ALL_ROUNDS).chain(PER_LAYER)
}

/// Metric values by name; only names from one of the tables are accepted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            known().any(|d| d.name == name),
            "metric {name} is in no table"
        );
        // JSON has no NaN or infinity; neither is a measurement.
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// One finished run, as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`, and under `metrics` every metric
    /// of `table` — one not measured in this run reads 0.
    pub fn json_line<'a>(&self, table: impl IntoIterator<Item = &'a MetricDef>) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, d) in table.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.metrics.get(d.name).unwrap_or(0.0);
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The table a person reads: every measured metric by name with its
    /// unit, then failures against their base.
    pub fn table<'a>(&self, table: impl IntoIterator<Item = &'a MetricDef>) -> String {
        let mut s = String::new();
        for d in table {
            if let Some(v) = self.metrics.get(d.name) {
                let _ = writeln!(s, "{:<40} {:>16.4} {}", d.name, v, d.unit);
            }
        }
        let share = crate::stats::share(self.failed as f64, self.attempted as f64);
        let _ = writeln!(
            s,
            "{:<40} {:>16.6} share ({} failed of {} attempted)",
            "failed_share", share, self.failed, self.attempted
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{self, Value};

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in known() {
            assert!(name_ok(d.name, 64, "_.-"), "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(d.unit, 16, "_/%.-"), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name, 64, "_.-") && seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    fn defs_of(v: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` sits one directory above this package; the driver
    /// reads it, this program prints against it, and they must agree.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let want = |table: &[MetricDef], bounded: bool| -> Vec<_> {
            table
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        match d.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        }
                        .to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(defs_of(&v, "end_to_end"), want(END_TO_END, true));
        assert_eq!(defs_of(&v, "per_layer"), want(PER_LAYER, false));
        let workloads: Vec<(String, String)> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut metrics = Metrics::default();
        metrics.set("round_ms_p10", 1234.5678);
        metrics.set("ops_per_s", 9.0);
        metrics.set("setup_s", f64::NAN);
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics,
        };
        let line = r.json_line(END_TO_END);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        let p10 = m.get("round_ms_p10").unwrap();
        assert_eq!(p10.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(p10.get("unit").unwrap().as_str(), Some("ms"));
        // Only the table asked for is printed.
        assert!(!m.contains_key("ops_per_s"));
        // Unmeasured and non-finite values both read 0.
        assert_eq!(
            m["cpu_busy_share"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(m["setup_s"].get("value").unwrap().as_f64(), Some(0.0));
        assert!(r.table(END_TO_END).contains("1 failed of 10 attempted"));
    }

    #[test]
    #[should_panic(expected = "in no table")]
    fn unknown_metric_names_are_rejected() {
        Metrics::default().set("made.up", 1.0);
    }
}
