//! `udp_farm`: the same node runtime over real UDP on loopback — two
//! workers and the orchestrator, one OS thread each, asleep when idle —
//! farming 64 jobs of the SPH kernel on 64 f64, two 4 KiB modules. The
//! only workload with syscalls, wall-clock timers and the harness's
//! sleep-polling; per-job compute is about 1 µs, so everything measured is
//! runtime overhead.
//!
//! Sized under the loss cliff: with no send window, 64 jobs of 4 KiB
//! input already overflow the socket buffer (see [`burst`]).

use super::simnet::{outcome, transport_metrics, Fixture, TRANSPORT_COUNTERS};
use super::{add_counters, per, round_seed, timed, Counts, Recorder, Round, Workload};
use crate::kernels::Kernel;
use crate::report::Metrics;
use crate::stats::{median, percentile, share};
use crate::sys;
use crate::trace::Tracer;
use obs::Obs;
use std::time::{Duration, Instant};
use transport::harness::{
    orch_endpoint, run_sim, run_sockets, worker_endpoint, FarmOutcome, FarmSpec,
};
use transport::node::{OrchestratorNode, WorkerNode};
use transport::socket::SocketTransport;
use transport::Transport;

const WORKERS: usize = 2;
const JOBS: usize = 64;
const INPUT_LEN: usize = 64;
const MODULES: u32 = 2;
const MODULE_BYTES: usize = 4 * 1024;
/// A loopback farm takes tens of milliseconds; one that takes this long
/// has lost a node, and `run_sockets` panics.
const BUDGET: Duration = Duration::from_secs(30);

pub struct UdpFarm {
    seed: u64,
    fixture: Fixture,
    /// `run_sim` of the same spec: the socket backend must reproduce it.
    expected: FarmOutcome,
    /// Untraced round times, for p95 and the idle share.
    plain_ms: Vec<f64>,
}

/// The traced driver: `run_sockets` with all three nodes pumped from this
/// thread and no sleeps, so the time it takes is the time the runtime is
/// busy. Returns when every node has finished and every send was acked.
fn run_sockets_busy(spec: &FarmSpec, obs: Obs, tr: &mut Tracer) -> FarmOutcome {
    let bind = |ep| {
        let mut t = SocketTransport::bind_loopback(ep).expect("bind loopback socket");
        t.set_obs(obs.clone());
        t
    };
    let mut orch_t = bind(orch_endpoint());
    let orch_addr = orch_t.local_addr().expect("orchestrator address");
    let mut sockets: Vec<SocketTransport> = (0..spec.n_workers)
        .map(|i| bind(worker_endpoint(i)))
        .collect();
    let addrs: Vec<_> = sockets
        .iter()
        .map(|t| t.local_addr().expect("worker address"))
        .collect();
    for (i, t) in sockets.iter_mut().enumerate() {
        t.register_peer(orch_endpoint(), orch_addr);
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                t.register_peer(worker_endpoint(j), addr);
            }
            if i == 0 {
                orch_t.register_peer(worker_endpoint(j), addr);
            }
        }
    }
    let mut workers: Vec<WorkerNode<_>> = sockets
        .into_iter()
        .map(|t| {
            WorkerNode::new(
                t,
                orch_endpoint(),
                spec.chunk_bytes,
                spec.cache_capacity,
                None,
                obs.clone(),
            )
        })
        .collect();
    let mut orch = OrchestratorNode::new(
        orch_t,
        spec.chunk_bytes,
        spec.modules.clone(),
        spec.jobs.clone(),
        spec.n_workers,
        obs,
    );
    for w in &mut workers {
        w.start();
    }
    let start = Instant::now();
    loop {
        let s = tr.enter("transport.node.orch_pump");
        orch.pump();
        tr.exit(s);
        let s = tr.enter("transport.node.worker_pump");
        for w in &mut workers {
            w.pump();
        }
        tr.exit(s);
        let drained =
            orch.transport().pending() == 0 && workers.iter().all(|w| w.transport().pending() == 0);
        if orch.is_done() && workers.iter().all(WorkerNode::is_done) && drained {
            break;
        }
        assert!(start.elapsed() < BUDGET, "busy socket farm did not finish");
    }
    outcome(&orch, &workers)
}

/// The burst probe: the same farm with 4096-f64 (32 KiB) inputs, which
/// puts 64 × 32 KiB on the wire in one burst with no send window. Median
/// farm time and retransmit share of three runs.
fn burst(seed: u64, out: &mut Metrics) {
    let fixture = Fixture::build(
        Kernel::Sph,
        WORKERS,
        JOBS,
        4096,
        MODULES,
        MODULE_BYTES,
        seed,
    );
    let (mut farm_ms, mut retransmit_share) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let obs = Obs::enabled();
        let t = Instant::now();
        let outcome = run_sockets(&fixture.spec, obs.clone(), BUDGET);
        farm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(fixture.failed(&outcome), 0, "burst farm lost a result");
        retransmit_share.push(share(
            super::counter(&obs, "transport.retransmits") as f64,
            super::counter(&obs, "transport.frames_sent") as f64,
        ));
    }
    out.set("transport.udp_burst.farm_ms", median(&mut farm_ms));
    out.set(
        "transport.udp_burst.retransmit_share",
        median(&mut retransmit_share),
    );
}

impl Workload for UdpFarm {
    const NAME: &'static str = "udp_farm";
    const DETERMINISTIC: bool = false;

    fn setup(seed: u64) -> Self {
        let fixture = Fixture::build(
            Kernel::Sph,
            WORKERS,
            JOBS,
            INPUT_LEN,
            MODULES,
            MODULE_BYTES,
            seed,
        );
        let expected = run_sim(&fixture.spec, round_seed(seed, 0), Obs::disabled());
        UdpFarm {
            seed,
            fixture,
            expected,
            plain_ms: Vec::new(),
        }
    }

    fn round(&mut self, _r: u64, recorder: Option<Recorder<'_>>) -> Round {
        let obs = Obs::enabled();
        let (tracer, counts) = Recorder::split(recorder);
        let traced = tracer.is_some();
        let lo_before = sys::lo_tx_bytes();
        let (outcome, ns) = timed(tracer, |tr| match tr {
            None => run_sockets(&self.fixture.spec, obs.clone(), BUDGET),
            Some(tr) => run_sockets_busy(&self.fixture.spec, obs.clone(), tr),
        });
        if let Some(counts) = counts {
            add_counters(counts, &obs, TRANSPORT_COUNTERS);
            *counts.entry("lo.tx_bytes").or_default() += sys::lo_tx_bytes() - lo_before;
        }
        if !traced {
            self.plain_ms.push(ns as f64 / 1e6);
        }
        // Every result bit-identical to the oracle, and the whole outcome —
        // assignment and cache fingerprints too — equal to the simulator's.
        let mut failed = self.fixture.failed(&outcome);
        if failed == 0 && outcome != self.expected {
            eprintln!("udp_farm: outcome differs from run_sim of the same spec");
            failed = self.fixture.jobs();
        }
        Round {
            ops: self.fixture.jobs(),
            failed,
            ns,
        }
    }

    fn layer_metrics(&self, c: &Counts, jobs: u64, tr: &Tracer, out: &mut Metrics) {
        transport_metrics(c, jobs, out);
        out.set(
            "transport.udp_wire_bytes_per_job",
            per(c, "lo.tx_bytes", jobs),
        );
        let busy = tr.aggregate("round");
        let busy_ms = share(busy.total_ns as f64 / 1e6, busy.count as f64);
        let mut plain = self.plain_ms.clone();
        out.set("transport.socket.busy_farm_ms", busy_ms);
        out.set(
            "transport.socket.idle_share",
            1.0 - share(busy_ms, median(&mut plain)),
        );
        out.set("transport.udp_farm_ms_p95", percentile(&mut plain, 95.0));
        for (metric, span) in [
            ("transport.node.orch_pump_share", "transport.node.orch_pump"),
            (
                "transport.node.worker_pump_share",
                "transport.node.worker_pump",
            ),
        ] {
            out.set(metric, tr.self_share(span, "round"));
        }
    }

    fn extra_metrics(&mut self, out: &mut Metrics) {
        // The fixed floor: a farm with one job to run.
        let mut spec = self.fixture.spec.clone();
        spec.jobs.truncate(1);
        let mut empty_ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                run_sockets(&spec, Obs::enabled(), BUDGET);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("transport.socket.empty_farm_ms", median(&mut empty_ms));
        burst(self.seed, out);
    }
}
