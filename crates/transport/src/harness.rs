//! Drive the same worker/orchestrator node code over either backend.
//!
//! [`run_sim`] executes a farm on the deterministic simulator
//! (single-threaded, byte-reproducible from the seed); [`run_sockets`]
//! executes the *same* farm over real UDP on the loopback interface,
//! one OS thread per node. Both return a [`FarmOutcome`] whose fields
//! are wall-clock-independent by construction — job→worker assignment
//! is round-robin over the sorted worker set, outputs come from the
//! deterministic TVM, and cache fingerprints list (name, version, hash)
//! triples — so the two backends must produce identical outcomes. The
//! parity test holds them to that.

use crate::frame::Endpoint;
use crate::node::{JobSpec, OrchestratorNode, WorkerNode};
use crate::proto::ModuleInfo;
use crate::sim::SimNet;
use crate::socket::{SocketTransport, WAIT_SLACK};
use crate::Transport;
use netsim::HostSpec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tvm::ModuleBlob;

/// A farm to run: modules, jobs, worker count, store geometry.
#[derive(Clone)]
pub struct FarmSpec {
    pub chunk_bytes: u64,
    pub cache_capacity: u64,
    pub n_workers: usize,
    pub modules: Vec<(ModuleInfo, ModuleBlob)>,
    pub jobs: Vec<JobSpec>,
    /// One durable-store directory per worker; `None` runs memory-only.
    pub durable_dirs: Option<Vec<PathBuf>>,
}

/// The backend-independent result of a farm run.
#[derive(Clone, Debug, PartialEq)]
pub struct FarmOutcome {
    /// job → (worker that ran it, outputs).
    pub results: BTreeMap<u64, (Endpoint, Vec<Vec<f64>>)>,
    /// job → worker it was dispatched to.
    pub assignment: BTreeMap<u64, Endpoint>,
    /// worker → sorted (name, version, hash) cache fingerprint.
    pub worker_modules: BTreeMap<Endpoint, Vec<(String, u32, u64)>>,
    /// Chunks recovered from durable stores at startup, all workers.
    pub recovered_chunks: u64,
}

/// Assemble a small demo module: reads `input[0][0]`, multiplies by
/// 2.5, emits one output — padded with `pad` push/pop pairs so the blob
/// spans several chunks and actually exercises the swarm path.
pub fn demo_module(name: &str, version: u32, pad: usize) -> (ModuleInfo, ModuleBlob) {
    let mut src = format!(".module {name} {version} 1 1\n.func main 0\n");
    for _ in 0..pad {
        src.push_str(" push 1\n pop\n");
    }
    src.push_str(" push 0\n inget 0\n push 2.5\n mul\n outpush 0\n halt\n");
    let blob = tvm::asm::assemble(&src)
        .expect("demo module assembles")
        .to_blob();
    let info = ModuleInfo {
        name: name.to_string(),
        version,
        hash: blob.hash,
        blob_len: blob.bytes.len() as u64,
    };
    (info, blob)
}

/// Endpoint ids used by both backends: orchestrator 0, workers 1..=n.
pub fn orch_endpoint() -> Endpoint {
    Endpoint(0)
}

pub fn worker_endpoint(i: usize) -> Endpoint {
    Endpoint(1 + i as u64)
}

/// The spec's orchestrator over `t`, lent the spec's job list.
fn orchestrator<T: Transport>(t: T, spec: &FarmSpec, obs: obs::Obs) -> OrchestratorNode<'_, T> {
    OrchestratorNode::new(
        t,
        spec.chunk_bytes,
        spec.modules.clone(),
        &spec.jobs[..],
        spec.n_workers,
        obs,
    )
}

/// The spec's worker `i` over `t`, on its durable directory if it has one.
fn worker<T: Transport>(t: T, spec: &FarmSpec, i: usize, obs: obs::Obs) -> WorkerNode<T> {
    let dir = spec.durable_dirs.as_ref().map(|v| v[i].as_path());
    WorkerNode::new(
        t,
        orch_endpoint(),
        spec.chunk_bytes,
        spec.cache_capacity,
        dir,
        obs,
    )
}

/// The outcome of a finished farm, for both backends: the orchestrator's
/// results are moved out, and `workers` yields each worker's cache
/// fingerprint and recovered chunk count in worker order.
fn outcome<T: Transport>(
    orch: OrchestratorNode<'_, T>,
    workers: impl IntoIterator<Item = (Vec<(String, u32, u64)>, u64)>,
) -> FarmOutcome {
    let (results, assignment) = orch.into_results();
    let mut worker_modules = BTreeMap::new();
    let mut recovered_chunks = 0;
    for (i, (modules, recovered)) in workers.into_iter().enumerate() {
        worker_modules.insert(worker_endpoint(i), modules);
        recovered_chunks += recovered;
    }
    FarmOutcome {
        results,
        assignment,
        worker_modules,
        recovered_chunks,
    }
}

/// Run the farm on the deterministic sim backend. Identical
/// (spec, seed) pairs produce identical outcomes *and* identical
/// `transport.*` counter values in `observer`.
pub fn run_sim(spec: &FarmSpec, seed: u64, observer: obs::Obs) -> FarmOutcome {
    let net = SimNet::new(seed);
    net.set_obs(observer.clone());
    let orch_t = net.add_endpoint(orch_endpoint(), HostSpec::reference_pc());
    let mut workers: Vec<WorkerNode<_>> = (0..spec.n_workers)
        .map(|i| {
            let t = net.add_endpoint(worker_endpoint(i), HostSpec::reference_pc());
            worker(t, spec, i, observer.clone())
        })
        .collect();
    let mut orch = orchestrator(orch_t, spec, observer);
    for w in &mut workers {
        w.start();
    }
    let mut idle = 0;
    let mut steps: u64 = 0;
    loop {
        orch.pump();
        for w in &mut workers {
            w.pump();
        }
        if net.step() {
            idle = 0;
        } else {
            idle += 1;
            if idle >= 2 {
                break;
            }
        }
        steps += 1;
        assert!(steps < 10_000_000, "sim farm did not quiesce");
    }
    assert!(orch.is_done(), "sim farm did not complete all jobs");
    net.publish_arena_stats();
    outcome(
        orch,
        workers
            .iter()
            .map(|w| (w.cached_modules(), w.recovered_chunks())),
    )
}

/// Step a node until it is done, waiting on its socket in between:
/// `step(wait)` waits up to `wait` on the socket, pumps the node and says
/// whether it is done. `false` if `end` came first. A socket wait can end
/// [`WAIT_SLACK`] past its timeout, so the last `WAIT_SLACK` before `end`
/// is slept instead, with one more step after it.
fn drive(end: Instant, mut step: impl FnMut(Duration) -> bool) -> bool {
    let mut wait = Duration::ZERO;
    while !step(wait) {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        wait = left.saturating_sub(WAIT_SLACK);
        if wait.is_zero() {
            std::thread::sleep(left);
        }
    }
    true
}

/// Run the same farm over real UDP sockets on loopback: the
/// orchestrator on the calling thread, one OS thread per worker.
/// Panics if the farm does not complete within `budget`.
pub fn run_sockets(spec: &FarmSpec, observer: obs::Obs, budget: Duration) -> FarmOutcome {
    // Bind every node first, so the full address mesh is known before
    // any node starts talking.
    let mut sockets: Vec<SocketTransport> = std::iter::once(orch_endpoint())
        .chain((0..spec.n_workers).map(worker_endpoint))
        .map(|ep| {
            let mut t = SocketTransport::bind_loopback(ep).expect("bind loopback socket");
            t.set_obs(observer.clone());
            t
        })
        .collect();
    let addrs: Vec<(Endpoint, std::net::SocketAddr)> = sockets
        .iter()
        .map(|t| (t.local(), t.local_addr().expect("socket address")))
        .collect();
    for t in &mut sockets {
        for &(ep, addr) in &addrs {
            t.register_peer(ep, addr);
        }
    }
    let orch_t = sockets.remove(0);
    let handles: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let mut w = worker(t, spec, i, observer.clone());
            std::thread::spawn(move || {
                w.start();
                let finished = drive(Instant::now() + budget, |wait| {
                    w.transport_mut().wait(wait);
                    w.pump();
                    w.is_done()
                });
                assert!(finished, "worker {i} did not finish within the budget");
                // Grace flush: let final acks drain so peers exit clean.
                drive(Instant::now() + Duration::from_millis(500), |wait| {
                    w.transport_mut().wait(wait);
                    w.pump();
                    w.transport().pending() == 0
                });
                (w.cached_modules(), w.recovered_chunks())
            })
        })
        .collect();
    let mut orch = orchestrator(orch_t, spec, observer);
    let finished = drive(Instant::now() + budget, |wait| {
        orch.transport_mut().wait(wait);
        orch.pump();
        orch.is_done()
    });
    assert!(finished, "socket farm did not finish within the budget");
    // Keep pumping while workers ack the shutdown and drain: for 50 ms,
    // then until nothing is owed, 1 s in all at most.
    let flush = Instant::now();
    for (end_ms, until_drained) in [(50, false), (1_000, true)] {
        drive(flush + Duration::from_millis(end_ms), |wait| {
            orch.transport_mut().wait(wait);
            orch.pump();
            until_drained && orch.transport().pending() == 0
        });
    }
    outcome(
        orch,
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `drive` hands its steps socket waits that end `WAIT_SLACK` before its
    /// end at the latest, sleeps out the rest, and steps once more after
    /// it. The step here returns at once, as if a datagram ended each wait.
    #[test]
    fn drive_sleeps_its_last_wait_slack() {
        let end = Instant::now() + Duration::from_millis(20);
        let mut steps = Vec::new();
        let done = drive(end, |wait| {
            steps.push((Instant::now(), wait));
            false
        });
        assert!(!done);
        for &(at, wait) in steps.iter().filter(|(_, wait)| !wait.is_zero()) {
            assert!(at + wait + WAIT_SLACK <= end + Duration::from_millis(1));
        }
        let &(last_at, last_wait) = steps.last().unwrap();
        assert_eq!(last_wait, Duration::ZERO);
        assert!(last_at >= end, "the last step follows the sleep");
    }

    /// A SimNet farm sends every frame once: each one arrives, each data
    /// frame is acked once and nothing is retransmitted.
    #[test]
    fn a_sim_farm_sends_every_frame_once() {
        let (module, blob) = demo_module("copies", 1, 200);
        let spec = FarmSpec {
            chunk_bytes: 256,
            cache_capacity: 1 << 20,
            n_workers: 3,
            modules: vec![(module.clone(), blob)],
            jobs: (0..12)
                .map(|i| JobSpec {
                    module: module.clone(),
                    input: vec![i as f64; 512],
                })
                .collect(),
            durable_dirs: None,
        };
        let observer = obs::Obs::enabled();
        let outcome = run_sim(&spec, 5, observer.clone());
        assert_eq!(outcome.results.len(), 12);
        let reg = observer.registry().expect("obs enabled");
        let c = |name| reg.counter_value(&format!("transport.{name}"));
        assert_eq!(c("retransmits"), 0);
        assert!(c("frames_sent") > 2 * 12, "a dispatch and a result per job");
        assert_eq!(c("frames_recv"), c("frames_sent"));
        assert_eq!(2 * c("acks"), c("frames_sent"));
    }
}
