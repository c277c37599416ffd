//! The six workloads and what they have in common: a fixture built in
//! set-up, rounds driven in a closed loop from one thread, and — in the
//! traced run only — raw counts read through public accessors plus driver
//! spans around every call into a product layer.

pub mod grid_farm;
pub mod overlay;
pub mod simnet;
pub mod udp_farm;

use crate::report::Metrics;
use crate::trace::Tracer;
use obs::Obs;
use std::collections::BTreeMap;

/// Operations one round attempted, how many of them failed (missing or
/// wrong output, lookup with no provider, job not done), and how long the
/// driver took — the benchmark's own checking of outputs is not timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Round {
    pub ops: u64,
    pub failed: u64,
    pub ns: u64,
}

/// Raw integer counts of one traced round, by name. Simulator workloads
/// must reproduce them exactly from the same seed; the per-layer count
/// metrics are ratios of round 0's.
pub type Counts = BTreeMap<&'static str, u64>;

/// What a traced round records into.
pub struct Recorder<'a> {
    pub tracer: &'a mut Tracer,
    pub counts: &'a mut Counts,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The whole round runs in the simulator: every count must repeat, and
    /// the traced driver is the product's own loop with spans added.
    const DETERMINISTIC: bool;
    /// Per-layer metric carrying this workload's obs on/off comparison.
    const OBS_OVERHEAD_METRIC: Option<&'static str> = None;

    /// Build the fixture: everything before the first timed round.
    fn setup(seed: u64) -> Self;

    /// Run round `r`. Untraced (`recorder` is `None`) the product's own
    /// driver runs it; traced, the benchmark's copy of that loop does.
    fn round(&mut self, r: u64, recorder: Option<Recorder<'_>>) -> Round;

    /// Attach `Obs::enabled()` (the default) or `Obs::disabled()` to every
    /// observer the following rounds create.
    fn set_obs_enabled(&mut self, _on: bool) {}

    /// Turn round 0's counts over its `ops`, and the span aggregates of
    /// every traced round, into per-layer metrics.
    fn layer_metrics(&self, counts: &Counts, ops: u64, tracer: &Tracer, out: &mut Metrics);

    /// Measurements beyond rounds that belong to this workload's layers.
    fn extra_metrics(&mut self, _out: &mut Metrics) {}
}

/// Run a round's driver and time it: under a root span named `round` when
/// traced, so that layer shares are taken over the same interval.
pub fn timed<T>(
    tracer: Option<&mut Tracer>,
    driver: impl FnOnce(Option<&mut Tracer>) -> T,
) -> (T, u64) {
    let start = std::time::Instant::now();
    let out = match tracer {
        None => driver(None),
        Some(tr) => {
            let root = tr.enter("round");
            let out = driver(Some(tr));
            tr.exit(root);
            out
        }
    };
    (out, start.elapsed().as_nanos() as u64)
}

impl<'a> Recorder<'a> {
    /// Split an optional recorder into its optional halves.
    pub fn split(
        recorder: Option<Recorder<'a>>,
    ) -> (Option<&'a mut Tracer>, Option<&'a mut Counts>) {
        match recorder {
            Some(Recorder { tracer, counts }) => (Some(tracer), Some(counts)),
            None => (None, None),
        }
    }
}

/// The seed of round `r` (SplitMix64 over the pair).
pub fn round_seed(seed: u64, r: u64) -> u64 {
    let mut z = seed ^ r.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn observer(enabled: bool) -> Obs {
    if enabled {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Value of an obs counter, 0 when the handle is disabled.
pub fn counter(obs: &Obs, name: &str) -> u64 {
    obs.registry().map_or(0, |r| r.counter_value(name))
}

/// Add obs counters to `counts` under their own names.
pub fn add_counters(counts: &mut Counts, obs: &Obs, names: &[&'static str]) {
    for &name in names {
        *counts.entry(name).or_default() += counter(obs, name);
    }
}

pub fn per(counts: &Counts, name: &str, denom: u64) -> f64 {
    crate::stats::share(count(counts, name) as f64, denom as f64)
}

pub fn count(counts: &Counts, name: &str) -> u64 {
    counts.get(name).copied().unwrap_or(0)
}

pub fn ratio(counts: &Counts, part: &str, parts: &[&str]) -> f64 {
    let whole: u64 = parts.iter().map(|p| count(counts, p)).sum();
    crate::stats::share(count(counts, part) as f64, whole as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_differ_by_round_and_by_seed_and_repeat() {
        let a: Vec<u64> = (0..4).map(|r| round_seed(7, r)).collect();
        let b: Vec<u64> = (0..4).map(|r| round_seed(8, r)).collect();
        assert_eq!(a, (0..4).map(|r| round_seed(7, r)).collect::<Vec<_>>());
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn count_ratios_treat_missing_names_as_zero() {
        let mut c = Counts::new();
        c.insert("hits", 3);
        c.insert("misses", 1);
        assert_eq!(ratio(&c, "hits", &["hits", "misses"]), 0.75);
        assert_eq!(ratio(&c, "absent", &["absent"]), 0.0);
        assert_eq!(per(&c, "hits", 6), 0.5);
        assert_eq!(per(&c, "hits", 0), 0.0);
    }
}
