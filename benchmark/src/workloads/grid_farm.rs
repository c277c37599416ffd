//! `grid_farm`: the `core::grid` farm scheduler under three orchestrators,
//! swarm module distribution, checkpointing and adaptive trust, farming
//! 1500 modelled jobs over 96 consumer workers of which every fourth
//! churns. The world is built inside the round: users pay it every run.
//!
//! Scheduler, flooding discovery, orchestrator gossip and trust do the
//! work; TVM executes nothing (jobs are modelled in gigacycles) and the
//! transport crate is not linked into the path.

use super::{
    add_counters, count, per, ratio, round_seed, timed, Counts, Recorder, Round, Workload,
};
use crate::kernels::{self, Kernel};
use crate::report::Metrics;
use crate::trace::{span, Tracer};
use netsim::avail::{AvailabilityModel, AvailabilityTrace};
use netsim::{Duration, HostSpec, Pcg32, SimTime};
use obs::Obs;
use orch::{OrchConfig, OrchestratorHandle, OrchestratorSpec, Orchestrators};
use p2p::{DiscoveryMode, Incoming};
use triana_core::checkpoint::CheckpointPolicy;
use triana_core::grid::farm::{run_farm, FarmConfig, FarmScheduler, JobSpec, SwarmConfig};
use triana_core::grid::{GridEvent, GridWorld, WorkerId, WorkerSetup};
use triana_core::ModuleKey;
use trust::{orchestrator_eligibility, GridTrustConfig};
use tvm::ModuleBlob;

const WORKERS: usize = 96;
const JOBS: u64 = 1_500;
const MODULES: u32 = 4;
const MODULE_BYTES: usize = 16 * 1024;
const ORCHESTRATORS: usize = 3;
/// Availability traces end here; the farm is done long before.
const HORIZON_S: u64 = 3_600;

const OBS_COUNTERS: &[&str] = &[
    "p2p.messages_sent",
    "p2p.messages_received",
    "p2p.flood_duplicates",
    "orch.deltas_broadcast",
    "store.bytes_from_peers",
    "store.bytes_from_controller",
];

pub struct GridFarm {
    seed: u64,
    modules: Vec<(ModuleKey, ModuleBlob)>,
    obs_enabled: bool,
}

impl GridFarm {
    /// World, scheduler and the whole job queue for one round.
    fn build(
        &self,
        seed: u64,
        obs: &Obs,
        mut tracer: Option<&mut Tracer>,
    ) -> (GridWorld, FarmScheduler) {
        let mut world = GridWorld::new(seed, DiscoveryMode::Flooding);
        world.p2p.set_obs(obs.clone());
        world.net.set_obs(obs.clone());
        let mut specs = Vec::with_capacity(ORCHESTRATORS);
        for i in 0..ORCHESTRATORS {
            let mut spec = HostSpec::lan_workstation();
            spec.cpu_ghz = 2.0 - 0.2 * i as f64;
            let eligibility = orchestrator_eligibility(spec.cpu_ghz, 1.0, 1.0);
            let (peer, host) = world.add_peer(spec);
            specs.push(OrchestratorSpec {
                peer,
                host,
                eligibility,
            });
        }
        let handle =
            OrchestratorHandle::new(Orchestrators::new(&specs, seed, OrchConfig::default()));
        handle.set_obs(obs.clone());
        let cfg = FarmConfig {
            checkpoint: Some(CheckpointPolicy::every(Duration::from_secs(5), 2_000)),
            swarm: Some(SwarmConfig {
                chunk_bytes: 1024,
                ..SwarmConfig::default()
            }),
            trust: Some(GridTrustConfig::adaptive()),
        };
        let mut farm = FarmScheduler::with_orchestrators(handle, cfg);
        farm.set_obs(obs.clone());
        let horizon = SimTime::from_secs(HORIZON_S);
        let churn = AvailabilityModel::Exponential {
            mean_up: Duration::from_secs(120),
            mean_down: Duration::from_secs(60),
        };
        let mut rng = Pcg32::new(seed, 0x6F);
        for i in 0..WORKERS {
            let spec = HostSpec::sample_consumer(&mut rng);
            let (peer, _) = world.add_peer(spec.clone());
            let trace = if i % 4 == 3 {
                churn.trace(horizon, &mut rng)
            } else {
                AvailabilityTrace::always(horizon)
            };
            farm.add_worker(
                &mut world,
                WorkerSetup {
                    peer,
                    spec,
                    trace,
                    cache_bytes: 1 << 20,
                },
            );
        }
        world.p2p.wire_random(4, &mut rng);
        for (key, blob) in &self.modules {
            farm.library.publish(key.clone(), blob.clone());
        }
        span(&mut tracer, "core.grid.submit", || {
            for j in 0..JOBS {
                farm.submit(
                    &mut world,
                    JobSpec {
                        work_gigacycles: rng.range_f64(5.0, 25.0),
                        input_bytes: 20_000,
                        output_bytes: 4_000,
                        module: Some(self.modules[(j % MODULES as u64) as usize].0.clone()),
                    },
                );
            }
        });
        (world, farm)
    }
}

/// The benchmark's copy of `run_farm`, a span around each call.
fn run_farm_traced(world: &mut GridWorld, farm: &mut FarmScheduler, tr: &mut Tracer) {
    loop {
        let s = tr.enter("netsim.step");
        let ev = world.sim.step();
        tr.exit(s);
        match ev {
            None => break,
            Some(GridEvent::P2p(pe)) => {
                let s = tr.enter("p2p.handle");
                let incoming = world.p2p.handle(&mut world.sim, &mut world.net, pe);
                tr.exit(s);
                for inc in incoming {
                    if let Incoming::Orch {
                        to,
                        seq,
                        count,
                        sync,
                    } = inc
                    {
                        let s = tr.enter("orch.deliver");
                        farm.orch_deliver(to, seq, count, sync);
                        tr.exit(s);
                    }
                }
            }
            Some(other) => {
                let s = tr.enter("core.grid.handle");
                farm.handle(world, other);
                tr.exit(s);
            }
        }
    }
}

impl Workload for GridFarm {
    const NAME: &'static str = "grid_farm";
    const DETERMINISTIC: bool = true;
    const OBS_OVERHEAD_METRIC: Option<&'static str> = Some("obs.overhead_share.grid_farm");

    fn setup(seed: u64) -> Self {
        let modules = (0..MODULES)
            .map(|v| {
                let (info, blob) = kernels::module(Kernel::Sph, v, MODULE_BYTES);
                (ModuleKey::new(&info.name, info.version), blob)
            })
            .collect();
        GridFarm {
            seed,
            modules,
            obs_enabled: true,
        }
    }

    fn set_obs_enabled(&mut self, on: bool) {
        self.obs_enabled = on;
    }

    fn round(&mut self, r: u64, recorder: Option<Recorder<'_>>) -> Round {
        let obs = super::observer(self.obs_enabled);
        let seed = round_seed(self.seed, r);
        let (tracer, counts) = Recorder::split(recorder);
        let ((world, farm), ns) = timed(tracer, |mut tr| {
            let (mut world, mut farm) = self.build(seed, &obs, tr.as_deref_mut());
            match tr {
                None => run_farm(&mut world, &mut farm),
                Some(tr) => run_farm_traced(&mut world, &mut farm, tr),
            }
            (world, farm)
        });
        let stats = farm.stats();
        if let Some(counts) = counts {
            add_counters(counts, &obs, OBS_COUNTERS);
            let mut add = |name, v| *counts.entry(name).or_default() += v;
            add("netsim.events", world.sim.processed());
            add("core.grid.attempts", stats.attempts);
            add("core.grid.makespan_us", stats.makespan.as_micros());
            for w in 0..farm.n_workers() {
                let c = farm.worker_cache_stats(WorkerId(w as u32));
                add("core.modules.cache_hits", c.hits);
                add("core.modules.cache_misses", c.misses);
            }
        }
        Round {
            ops: stats.jobs_total,
            failed: stats.jobs_total - stats.jobs_done,
            ns,
        }
    }

    fn layer_metrics(&self, c: &Counts, jobs: u64, tr: &Tracer, out: &mut Metrics) {
        out.set("netsim.events_per_op", per(c, "netsim.events", jobs));
        out.set("p2p.msgs_per_op", per(c, "p2p.messages_sent", jobs));
        out.set(
            "p2p.flood_duplicate_share",
            ratio(c, "p2p.flood_duplicates", &["p2p.messages_received"]),
        );
        out.set(
            "core.grid.attempts_per_job",
            per(c, "core.grid.attempts", jobs),
        );
        out.set(
            "core.grid.sim_makespan_s",
            count(c, "core.grid.makespan_us") as f64 / 1e6,
        );
        out.set(
            "core.modules.cache_hit_share",
            ratio(
                c,
                "core.modules.cache_hits",
                &["core.modules.cache_hits", "core.modules.cache_misses"],
            ),
        );
        out.set("orch.deltas_per_job", per(c, "orch.deltas_broadcast", jobs));
        out.set(
            "store.bytes_from_peers_share",
            ratio(
                c,
                "store.bytes_from_peers",
                &["store.bytes_from_peers", "store.bytes_from_controller"],
            ),
        );
        for (metric, span) in [
            ("netsim.step_share", "netsim.step"),
            ("p2p.handle_share", "p2p.handle"),
            ("orch.deliver_share", "orch.deliver"),
            ("core.grid.handle_share", "core.grid.handle"),
            ("core.grid.submit_share", "core.grid.submit"),
        ] {
            out.set(metric, tr.self_share(span, "round"));
        }
        let handle = tr.aggregate("core.grid.handle");
        out.set(
            "core.grid.handle_us_per_event",
            crate::stats::share(handle.self_ns as f64 / 1e3, handle.count as f64),
        );
    }
}
