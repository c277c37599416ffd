//! `simnet_bulk` and `simnet_compute`: the transport node runtime on the
//! deterministic `SimNet` backend, fresh nodes (cold caches) every round.
//!
//! * bulk — Case-1 shape: 8 workers, 256 jobs of the SPH kernel on 4096
//!   f64 in, 4096 out (32 KiB each way), four 32 KiB modules in 1 KiB
//!   chunks. Bytes dominate: codecs, reliab, store, the SimNet arena.
//! * compute — Case-2 shape: 4 workers, 128 jobs of `Lagged` on 1024 f64
//!   in, 32 out, four 4 KiB modules. TVM prepare and exec dominate; the
//!   bypass workload for every wire optimisation.

use super::{add_counters, per, ratio, round_seed, timed, Counts, Recorder, Round, Workload};
use crate::kernels::{self, Kernel};
use crate::report::Metrics;
use crate::trace::Tracer;
use netsim::{HostSpec, Pcg32};
use obs::Obs;
use std::marker::PhantomData;
use transport::harness::{orch_endpoint, run_sim, worker_endpoint, FarmOutcome, FarmSpec};
use transport::node::{OrchestratorNode, WorkerNode};
use transport::sim::SimNet;
use transport::Transport;

/// A farm to run on either transport backend, with the oracle's outputs.
pub struct Fixture {
    pub spec: FarmSpec,
    reference: Vec<Vec<Vec<f64>>>,
}

impl Fixture {
    pub fn build(
        kernel: Kernel,
        workers: usize,
        jobs: usize,
        input_len: usize,
        modules: u32,
        module_bytes: usize,
        seed: u64,
    ) -> Self {
        let modules: Vec<_> = (0..modules)
            .map(|v| kernels::module(kernel, v, module_bytes))
            .collect();
        let mut rng = Pcg32::new(seed, 0x1F);
        let (jobs, reference) = kernels::jobs_with_reference(&modules, jobs, input_len, &mut rng);
        Fixture {
            spec: FarmSpec {
                chunk_bytes: 1024,
                cache_capacity: 1 << 20,
                n_workers: workers,
                modules,
                jobs,
                durable_dirs: None,
            },
            reference,
        }
    }

    pub fn jobs(&self) -> u64 {
        self.spec.jobs.len() as u64
    }

    /// Jobs whose result is missing or differs from the oracle in any bit.
    pub fn failed(&self, outcome: &FarmOutcome) -> u64 {
        self.reference
            .iter()
            .enumerate()
            .filter(|(job, want)| {
                !outcome
                    .results
                    .get(&(*job as u64))
                    .is_some_and(|(_, got)| kernels::bit_identical(got, want))
            })
            .count() as u64
    }
}

/// Obs counters both transport backends feed.
pub const TRANSPORT_COUNTERS: &[&str] = &[
    "transport.frames_sent",
    "transport.acks",
    "transport.retransmits",
    "transport.chunks_requested",
    "netsim.payload_allocs",
    "netsim.payload_reuses",
    "tvm.instructions",
    "tvm.executions",
    "tvm.tier2_fallback_exits",
    "tvm.prepared_cache_hits",
    "tvm.prepared_cache_misses",
];

/// Per-job transport and TVM metrics from [`TRANSPORT_COUNTERS`].
pub fn transport_metrics(c: &Counts, jobs: u64, out: &mut Metrics) {
    out.set(
        "transport.frames_per_job",
        per(c, "transport.frames_sent", jobs),
    );
    out.set("transport.acks_per_job", per(c, "transport.acks", jobs));
    out.set(
        "transport.retransmit_share",
        ratio(c, "transport.retransmits", &["transport.frames_sent"]),
    );
    out.set(
        "transport.chunks_per_job",
        per(c, "transport.chunks_requested", jobs),
    );
    out.set("tvm.instr_per_job", per(c, "tvm.instructions", jobs));
    out.set(
        "tvm.tier2_fallback_share",
        ratio(c, "tvm.tier2_fallback_exits", &["tvm.executions"]),
    );
    out.set(
        "core.modules.cache_hit_share",
        ratio(
            c,
            "tvm.prepared_cache_hits",
            &["tvm.prepared_cache_hits", "tvm.prepared_cache_misses"],
        ),
    );
}

/// The benchmark's copy of `run_sim`, a span around each call.
fn run_sim_traced(spec: &FarmSpec, seed: u64, obs: Obs, tr: &mut Tracer) -> FarmOutcome {
    let net = SimNet::new(seed);
    net.set_obs(obs.clone());
    let orch_t = net.add_endpoint(orch_endpoint(), HostSpec::reference_pc());
    let mut workers: Vec<WorkerNode<_>> = (0..spec.n_workers)
        .map(|i| {
            let t = net.add_endpoint(worker_endpoint(i), HostSpec::reference_pc());
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
    let mut idle = 0;
    while idle < 2 {
        let s = tr.enter("transport.node.orch_pump");
        orch.pump();
        tr.exit(s);
        let s = tr.enter("transport.node.worker_pump");
        for w in &mut workers {
            w.pump();
        }
        tr.exit(s);
        let s = tr.enter("transport.sim.step");
        let stepped = net.step();
        tr.exit(s);
        idle = if stepped { 0 } else { idle + 1 };
    }
    net.publish_arena_stats();
    outcome(&orch, &workers)
}

/// What the harness reports of a finished farm (its own `outcome` is
/// private): results, assignment, cache fingerprints.
pub fn outcome<T: Transport>(orch: &OrchestratorNode<T>, workers: &[WorkerNode<T>]) -> FarmOutcome {
    FarmOutcome {
        results: orch.results().clone(),
        assignment: orch.assignment().clone(),
        worker_modules: workers
            .iter()
            .enumerate()
            .map(|(i, w)| (worker_endpoint(i), w.cached_modules()))
            .collect(),
        recovered_chunks: 0,
    }
}

pub trait Shape {
    const NAME: &'static str;
    const KERNEL: Kernel;
    const WORKERS: usize;
    const JOBS: usize;
    const INPUT_LEN: usize;
    const MODULE_BYTES: usize;
    const OBS_OVERHEAD_METRIC: Option<&'static str>;
}

pub struct BulkShape;

impl Shape for BulkShape {
    const NAME: &'static str = "simnet_bulk";
    const KERNEL: Kernel = Kernel::Sph;
    const WORKERS: usize = 8;
    const JOBS: usize = 256;
    const INPUT_LEN: usize = 4096;
    const MODULE_BYTES: usize = 32 * 1024;
    const OBS_OVERHEAD_METRIC: Option<&'static str> = Some("obs.overhead_share.simnet_bulk");
}

pub struct ComputeShape;

impl Shape for ComputeShape {
    const NAME: &'static str = "simnet_compute";
    const KERNEL: Kernel = Kernel::Lagged;
    const WORKERS: usize = 4;
    const JOBS: usize = 128;
    const INPUT_LEN: usize = 1024;
    const MODULE_BYTES: usize = 4 * 1024;
    const OBS_OVERHEAD_METRIC: Option<&'static str> = None;
}

pub struct SimFarm<S> {
    seed: u64,
    fixture: Fixture,
    obs_enabled: bool,
    shape: PhantomData<S>,
}

pub type Bulk = SimFarm<BulkShape>;
pub type Compute = SimFarm<ComputeShape>;

impl<S: Shape> Workload for SimFarm<S> {
    const NAME: &'static str = S::NAME;
    const DETERMINISTIC: bool = true;
    const OBS_OVERHEAD_METRIC: Option<&'static str> = S::OBS_OVERHEAD_METRIC;

    fn setup(seed: u64) -> Self {
        SimFarm {
            seed,
            fixture: Fixture::build(
                S::KERNEL,
                S::WORKERS,
                S::JOBS,
                S::INPUT_LEN,
                4,
                S::MODULE_BYTES,
                seed,
            ),
            obs_enabled: true,
            shape: PhantomData,
        }
    }

    fn set_obs_enabled(&mut self, on: bool) {
        self.obs_enabled = on;
    }

    fn round(&mut self, r: u64, recorder: Option<Recorder<'_>>) -> Round {
        let obs = super::observer(self.obs_enabled);
        let seed = round_seed(self.seed, r);
        let (tracer, counts) = Recorder::split(recorder);
        let (outcome, ns) = timed(tracer, |tr| match tr {
            None => run_sim(&self.fixture.spec, seed, obs.clone()),
            Some(tr) => run_sim_traced(&self.fixture.spec, seed, obs.clone(), tr),
        });
        if let Some(counts) = counts {
            add_counters(counts, &obs, TRANSPORT_COUNTERS);
        }
        Round {
            ops: self.fixture.jobs(),
            failed: self.fixture.failed(&outcome),
            ns,
        }
    }

    fn layer_metrics(&self, c: &Counts, jobs: u64, tr: &Tracer, out: &mut Metrics) {
        transport_metrics(c, jobs, out);
        out.set(
            "netsim.payload_reuse_share",
            ratio(
                c,
                "netsim.payload_reuses",
                &["netsim.payload_reuses", "netsim.payload_allocs"],
            ),
        );
        for (metric, span) in [
            ("transport.sim.step_share", "transport.sim.step"),
            ("transport.node.orch_pump_share", "transport.node.orch_pump"),
            (
                "transport.node.worker_pump_share",
                "transport.node.worker_pump",
            ),
        ] {
            out.set(metric, tr.self_share(span, "round"));
        }
    }
}
