//! One benchmark run of one workload: untraced for the end-to-end
//! metrics, or traced for the per-layer ones. Rounds are a closed loop
//! from this thread: the next starts when the previous one returns.

use crate::report::{Metrics, RunResult};
use crate::stats::{median, percentile, share};
use crate::trace::Tracer;
use crate::workloads::{Counts, Recorder, Round, Workload};
use crate::{stages, sys};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// Measure until the timed rounds add up to this long.
    pub seconds: f64,
    /// `--quick`: run exactly this many rounds instead.
    pub rounds: Option<u64>,
}

impl Options {
    /// Enough measured? `timed_s` is the sum of the round times so far.
    fn done(&self, rounds: u64, timed_s: f64) -> bool {
        match self.rounds {
            Some(n) => rounds >= n,
            None => timed_s >= self.seconds,
        }
    }
}

/// Set-up is timed this many times before the first round and the median
/// reported; each fixture is dropped before the next is built, so the
/// rounds run with one fixture alive and `peak_rss_mib` is that of one.
const SETUPS: usize = 3;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// End-to-end metrics, tracing off, `Obs::enabled()` attached everywhere
/// the product accepts an observer. The bounded metrics are the ones a
/// slow spell of the host moves least; the all-rounds ones beside them
/// count every round and so show the tail.
pub fn untraced<W: Workload>(opt: &Options) -> RunResult {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut timed_setup = || {
        let t = Instant::now();
        let fixture = W::setup(opt.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        fixture
    };
    for _ in 1..SETUPS {
        drop(timed_setup());
    }
    let mut w: W = timed_setup();

    let mut all = Round::default();
    let mut round_ms = Vec::new();
    // Process CPU comes in 10 ms ticks: read it around the whole loop, not
    // per round. It includes the benchmark's checking of each round's
    // outputs, which the round times do not.
    let (cpu_before, loop_started) = (sys::cpu_ms(), Instant::now());
    loop {
        let round = w.round(round_ms.len() as u64, None);
        round_ms.push(ms(round.ns));
        all.ops += round.ops;
        all.failed += round.failed;
        all.ns += round.ns;
        if opt.done(round_ms.len() as u64, all.ns as f64 / 1e9) {
            break;
        }
    }
    let cpu_ms = sys::cpu_ms() - cpu_before;
    let loop_s = loop_started.elapsed().as_secs_f64();
    drop(w);

    let timed_s = all.ns as f64 / 1e9;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&mut setup_s));
    metrics.set("round_ms_p10", percentile(&mut round_ms, 10.0));
    metrics.set("cpu_busy_share", share(cpu_ms / 1e3, loop_s));
    metrics.set("peak_rss_mib", sys::peak_rss_mib());
    metrics.set("rounds", round_ms.len() as f64);
    metrics.set("ops_per_s", share(all.ops as f64, timed_s));
    metrics.set("round_ms_p50", median(&mut round_ms));
    metrics.set("round_ms_p95", percentile(&mut round_ms, 95.0));
    metrics.set("cpu_ms_per_kop", share(cpu_ms, all.ops as f64 / 1e3));
    RunResult {
        correct: all.failed == 0,
        attempted: all.ops,
        failed: all.failed,
        metrics,
    }
}

/// One traced round, with heap allocations counted around it.
fn recorded<W: Workload>(w: &mut W, r: u64, tracer: &mut Tracer, counts: &mut Counts) -> Round {
    tracer.set_round(r as u32);
    let before = sys::allocs();
    let round = w.round(r, Some(Recorder { tracer, counts }));
    *counts.entry("alloc.calls").or_default() += sys::allocs() - before;
    round
}

/// Per-layer metrics. Round 0 gives the counts — the same from the same
/// seed however long the run, and shown to be by running it twice on fresh
/// fixtures. Then, for half of `seconds`, untraced and traced rounds of
/// the same inputs alternate: all traced rounds feed the span shares, and
/// the two medians give the tracing overhead.
pub fn traced<W: Workload>(opt: &Options) -> (RunResult, Tracer) {
    let mut tracer = Tracer::new();
    let mut counts = Counts::new();
    let mut w = W::setup(opt.seed);
    let first = recorded(&mut w, 0, &mut tracer, &mut counts);
    let mut all = first;
    let mut deterministic = true;
    if W::DETERMINISTIC {
        let mut again = Counts::new();
        let mut replay = W::setup(opt.seed);
        let round = recorded(&mut replay, 0, &mut Tracer::new(), &mut again);
        all.ops += round.ops;
        all.failed += round.failed;
        // Allocation calls repeat today, but a pool that stays warm across
        // the two runs is a fair optimisation, not a correctness failure.
        again.insert("alloc.calls", counts["alloc.calls"]);
        if again != counts {
            deterministic = false;
            eprintln!("{}: counts differ between two runs of round 0", W::NAME);
            for (name, a) in &counts {
                let b = again.get(name).copied().unwrap_or(0);
                if *a != b {
                    eprintln!("  {name}: {a} then {b}");
                }
            }
        }
    }

    let half = Options {
        seconds: opt.seconds / 2.0,
        ..opt.clone()
    };
    let started = Instant::now();
    let (mut plain_ms, mut traced_ms, mut obs_off_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut r = 1;
    loop {
        let plain = w.round(r, None);
        plain_ms.push(ms(plain.ns));
        let round = recorded(&mut w, r, &mut tracer, &mut Counts::new());
        traced_ms.push(ms(round.ns));
        all.ops += plain.ops + round.ops;
        all.failed += plain.failed + round.failed;
        if W::OBS_OVERHEAD_METRIC.is_some() {
            w.set_obs_enabled(false);
            let off = recorded(&mut w, r, &mut Tracer::new(), &mut Counts::new());
            w.set_obs_enabled(true);
            obs_off_ms.push(ms(off.ns));
            all.ops += off.ops;
            all.failed += off.failed;
        }
        r += 1;
        if half.done(r, started.elapsed().as_secs_f64()) {
            break;
        }
    }

    let mut metrics = Metrics::default();
    w.layer_metrics(&counts, first.ops, &tracer, &mut metrics);
    metrics.set(
        "alloc.per_op",
        share(counts["alloc.calls"] as f64, first.ops as f64),
    );
    let traced_p50 = median(&mut traced_ms);
    // Off the simulator the traced driver is another loop (it never
    // sleeps), so the difference is not what tracing costs.
    if W::DETERMINISTIC {
        metrics.set(
            "trace.overhead_share",
            share(traced_p50, median(&mut plain_ms)) - 1.0,
        );
    }
    if let Some(name) = W::OBS_OVERHEAD_METRIC {
        metrics.set(name, 1.0 - share(median(&mut obs_off_ms), traced_p50));
    }
    w.extra_metrics(&mut metrics);
    drop(w);
    stages::walk(&mut metrics);
    eprintln!("{}: {} traced rounds", W::NAME, traced_ms.len() + 1);
    let result = RunResult {
        correct: all.failed == 0 && deterministic,
        attempted: all.ops,
        failed: all.failed,
        metrics,
    };
    (result, tracer)
}
