//! The chaos harness: builds a grid scenario, replays a [`FaultPlan`]
//! against it through the [`FaultOracle`], checks invariants at drain,
//! and digests the whole run for byte-identical seed-replay.
//!
//! Three scenarios cover the grid's execution modes: `farm` (FarmScheduler
//! with swarm module distribution, checkpointing and adaptive trust),
//! `pipeline` (PipelineExec over bound pipes), and `voting` (redundant
//! execution with result voting over the farm). A seed picks the scenario,
//! generates the plan, and fully determines the run — the digest of two
//! runs of the same config must match byte-for-byte.

use netsim::avail::AvailabilityTrace;
use netsim::{Duration, HostId, HostSpec, Pcg32, Sim, SimTime};
use obs::Obs;
use orch::{OrchConfig, OrchestratorHandle, OrchestratorSpec, Orchestrators};
use p2p::{AdvertBody, Advertisement, BlobAdvert, DiscoveryMode, PeerId};
use store::{BlobId, ChunkLayout};
use triana_core::checkpoint::CheckpointPolicy;
use triana_core::grid::farm::{FarmConfig, FarmScheduler, JobSpec, SwarmConfig};
use triana_core::grid::pipeline::{PipelineScheduler, StageSpec};
use triana_core::grid::redundancy::{Behaviour, RedundancyConfig, VotingFarm};
use triana_core::grid::{GridEvent, GridWorld, JobId, Scheduler, WorkerId, WorkerSetup};
use triana_core::modules::ModuleKey;
use trust::{orchestrator_eligibility, GridTrustConfig};

use crate::invariants::{
    check_blacklist_respected, check_cache_integrity, check_dispatch_conservation,
    check_exactly_once, check_message_conservation, check_no_starvation, check_no_stranded_jobs,
    check_orch_exactly_once, check_orch_replication, check_overlay_converged, check_pipeline,
    check_voting, Violation,
};
use crate::oracle::FaultOracle;
use crate::plan::{FaultKind, FaultPlan};

/// Workers in the farm/voting scenarios (plan worker indices wrap here).
pub const N_WORKERS: usize = 5;
/// Orchestrator-set members in decentralised (`--orch`) runs.
pub const N_ORCH: usize = 3;
/// Stages in the pipeline scenario.
pub const N_STAGES: usize = 3;
/// Jobs submitted in the farm scenario.
pub const N_JOBS: usize = 12;
/// Tokens pushed through the pipeline scenario.
pub const N_TOKENS: u64 = 8;
/// Horizon the plan generator spreads fault times over.
pub const PLAN_HORIZON_MS: u64 = 60_000;

/// Which grid execution mode a chaos run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    Farm,
    Pipeline,
    Voting,
}

impl Scenario {
    /// Deterministic scenario choice for a sweep seed.
    pub fn for_seed(seed: u64) -> Scenario {
        match seed % 3 {
            0 => Scenario::Farm,
            1 => Scenario::Pipeline,
            _ => Scenario::Voting,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scenario::Farm => "farm",
            Scenario::Pipeline => "pipeline",
            Scenario::Voting => "voting",
        }
    }

    pub fn parse(s: &str) -> Option<Scenario> {
        match s {
            "farm" => Some(Scenario::Farm),
            "pipeline" => Some(Scenario::Pipeline),
            "voting" => Some(Scenario::Voting),
            _ => None,
        }
    }
}

/// One fully-specified chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    pub seed: u64,
    pub scenario: Scenario,
    pub plan: FaultPlan,
    /// Arm the intentional `drop-output` bug (mutation testing: the
    /// harness must catch, shrink, and replay it).
    pub mutate_drop_output: bool,
    /// Run the scenario under a decentralised [`N_ORCH`]-member
    /// orchestrator set instead of a single controller; orchestrator
    /// faults in the plan then crash/partition members of that set.
    pub orch: bool,
    /// Run discovery over the structured overlay (`DiscoveryMode::Routed`)
    /// instead of flooding; `rtbl`/`spfl` faults in the plan then poison
    /// routing tables and fell super-peer rendezvous nodes.
    pub routed: bool,
}

impl ChaosConfig {
    /// The sweep's derivation: the seed picks the scenario and generates
    /// the plan.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            scenario: Scenario::for_seed(seed),
            plan: FaultPlan::generate(seed, N_WORKERS as u32, PLAN_HORIZON_MS),
            mutate_drop_output: false,
            orch: false,
            routed: false,
        }
    }

    /// The orchestrator-fault sweep: the same scenario choice, but the
    /// world runs a decentralised orchestrator set and the plan mixes in
    /// orchestrator crashes and partitions.
    pub fn from_seed_orch(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            scenario: Scenario::for_seed(seed),
            plan: FaultPlan::generate_orch(seed, N_WORKERS as u32, N_ORCH as u32, PLAN_HORIZON_MS),
            mutate_drop_output: false,
            orch: true,
            routed: false,
        }
    }

    /// The structured-overlay sweep: the same scenario choice, but the
    /// world discovers over the Kademlia DHT and the plan mixes in
    /// routing-table poisonings and super-peer outages.
    pub fn from_seed_routed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            scenario: Scenario::for_seed(seed),
            plan: FaultPlan::generate_routed(seed, N_WORKERS as u32, PLAN_HORIZON_MS),
            mutate_drop_output: false,
            orch: false,
            routed: true,
        }
    }
}

/// What a chaos run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// FNV-1a digest of `report`; equal digests mean byte-identical runs.
    pub digest: u64,
    /// Deterministic full-run report (stats, counters, obs snapshot,
    /// violations).
    pub report: String,
    pub violations: Vec<Violation>,
}

impl RunOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The one-line command that reproduces a failing run byte-for-byte.
pub fn replay_command(cfg: &ChaosConfig) -> String {
    let mut cmd = format!(
        "cargo run --release -p consumer-grid-bench --bin chaos -- replay \
         --seed {} --scenario {} --plan \"{}\"",
        cfg.seed,
        cfg.scenario.name(),
        cfg.plan,
    );
    if cfg.mutate_drop_output {
        cmd.push_str(" --mutate drop-output");
    }
    if cfg.orch {
        cmd.push_str(" --orch");
    }
    if cfg.routed {
        cmd.push_str(" --routed");
    }
    cmd
}

/// FNV-1a 64-bit: tiny, dependency-free, good enough to compare runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Plan expansion: FaultEvents become driver actions
// ---------------------------------------------------------------------------

/// A fault plan lowered to the operations the driver applies at runtime.
/// Windowed faults (`Drop`/`Duplicate`/`Delay`) become oracle window
/// updates whose end is anchored at the event's *nominal* time; a
/// partition becomes a cut/uncut pair. Churn is no action: it goes into
/// the sim queue (see [`PlanRuntime::new`]).
#[derive(Clone, Debug)]
enum Action {
    DropWindow {
        until_ms: u64,
        pct: u8,
    },
    DupWindow {
        until_ms: u64,
        pct: u8,
    },
    DelayWindow {
        until_ms: u64,
        pct: u8,
        max_ms: u32,
    },
    /// A fault on one member of the orchestrator set.
    Orch(u32, OrchFault),
    /// A fault aimed at one farm worker.
    Worker(u32, WorkerFault),
}

#[derive(Clone, Copy, Debug)]
enum OrchFault {
    Down,
    Up,
    Cut,
    Uncut,
}

#[derive(Clone, Copy, Debug)]
enum WorkerFault {
    Cut,
    Uncut,
    Corrupt,
    Skew(u8),
    Lie,
    Poison,
    SuperDown,
    SuperUp,
}

/// The plan, expanded and sorted, consumed progressively as the driver
/// steps the sim (shared across waves in the voting scenario).
struct PlanRuntime {
    actions: Vec<(u64, Action)>,
    next: usize,
}

impl PlanRuntime {
    /// Expand `plan` for `scenario`. Churn (worker or stage down and up)
    /// goes straight into `sim` as grid events at its exact times, because
    /// churn handlers read `sim.now()` (checkpoint credit, trust
    /// profiling), which must be the fault's nominal time. Everything else
    /// (oracle windows, link cuts, state edits) only takes effect at the
    /// next event handler anyway, so it stays an action the driver applies
    /// once the sim reaches its time.
    fn new(plan: &FaultPlan, scenario: Scenario, sim: &mut Sim<GridEvent>) -> PlanRuntime {
        let pipeline = scenario == Scenario::Pipeline;
        let n = if pipeline { N_STAGES } else { N_WORKERS } as u32;
        let mut actions: Vec<(u64, Action)> = Vec::with_capacity(plan.len() * 2);
        let mut churn: Vec<(u64, GridEvent)> = Vec::new();
        for ev in &plan.events {
            let at = ev.at_ms;
            let until = |secs: u32| at + u64::from(secs) * 1_000;
            let to_worker = |worker: u32, f: WorkerFault| Action::Worker(worker % n, f);
            let to_orch = |orch: u32, f: OrchFault| Action::Orch(orch % N_ORCH as u32, f);
            match ev.kind {
                FaultKind::Crash { worker } => {
                    churn.push((at, GridEvent::WorkerDown(WorkerId(worker % n))));
                }
                FaultKind::Restart { worker } => {
                    churn.push((at, GridEvent::WorkerUp(WorkerId(worker % n))));
                }
                FaultKind::Partition { worker, secs } if pipeline => {
                    // The pipe protocol has no retry for lost tokens on a
                    // live-but-unreachable stage; a partition there is
                    // indistinguishable from a permanent hang, so the
                    // pipeline scenario maps it to stage churn.
                    churn.push((at, GridEvent::WorkerDown(WorkerId(worker % n))));
                    churn.push((until(secs), GridEvent::WorkerUp(WorkerId(worker % n))));
                }
                FaultKind::Partition { worker, secs } => {
                    actions.push((at, to_worker(worker, WorkerFault::Cut)));
                    actions.push((until(secs), to_worker(worker, WorkerFault::Uncut)));
                }
                FaultKind::Drop { pct, secs } => actions.push((
                    at,
                    Action::DropWindow {
                        until_ms: until(secs),
                        pct,
                    },
                )),
                FaultKind::Duplicate { pct, secs } => actions.push((
                    at,
                    Action::DupWindow {
                        until_ms: until(secs),
                        pct,
                    },
                )),
                FaultKind::Delay { pct, max_ms, secs } => actions.push((
                    at,
                    Action::DelayWindow {
                        until_ms: until(secs),
                        pct,
                        max_ms,
                    },
                )),
                FaultKind::Corrupt { worker } => {
                    actions.push((at, to_worker(worker, WorkerFault::Corrupt)))
                }
                FaultKind::Skew { worker, pct } => {
                    actions.push((at, to_worker(worker, WorkerFault::Skew(pct))));
                }
                FaultKind::Lie { worker } => {
                    actions.push((at, to_worker(worker, WorkerFault::Lie)))
                }
                FaultKind::RoutePoison { worker } => {
                    actions.push((at, to_worker(worker, WorkerFault::Poison)));
                }
                FaultKind::SuperPeerFail { worker, secs } => {
                    actions.push((at, to_worker(worker, WorkerFault::SuperDown)));
                    actions.push((until(secs), to_worker(worker, WorkerFault::SuperUp)));
                }
                FaultKind::OrchCrash { orch } => actions.push((at, to_orch(orch, OrchFault::Down))),
                FaultKind::OrchRestart { orch } => actions.push((at, to_orch(orch, OrchFault::Up))),
                FaultKind::OrchPartition { orch, secs } => {
                    actions.push((at, to_orch(orch, OrchFault::Cut)));
                    actions.push((until(secs), to_orch(orch, OrchFault::Uncut)));
                }
            }
        }
        if pipeline {
            // Worker faults aim at what only a farm worker has: a link the
            // farm heals with a kick, a module store, a clock the farm
            // profiles, a provider role, a routing table, a rendezvous
            // role. A pipeline's stages see churn, message chaos and
            // orchestrator faults.
            actions.retain(|(_, a)| !matches!(a, Action::Worker(..)));
        }
        actions.sort_by_key(|(t, _)| *t);
        churn.sort_by_key(|(t, _)| *t);
        let last = |actions: &[(u64, Action)], churn: &[(u64, GridEvent)]| {
            let t = actions.last().map_or(0, |(t, _)| *t);
            t.max(churn.last().map_or(0, |(t, _)| *t))
        };
        {
            // An orchestrator that never comes back leaves its log entries
            // unrepairable and can park ownership forever: guarantee every
            // crash has a matching later restart, mirroring the pipeline
            // stage balance below.
            let last = last(&actions, &churn);
            let mut balance = [0i32; N_ORCH];
            for (_, a) in &actions {
                match a {
                    Action::Orch(o, OrchFault::Down) => balance[*o as usize] -= 1,
                    Action::Orch(o, OrchFault::Up) => balance[*o as usize] = 0,
                    _ => {}
                }
            }
            for (o, b) in balance.iter().enumerate() {
                if *b < 0 {
                    actions.push((last + 10_000, Action::Orch(o as u32, OrchFault::Up)));
                }
            }
        }
        if pipeline {
            // A stage that never comes back makes lost tokens recirculate
            // forever (emit → dead stage → re-emit): guarantee every Down
            // has a matching later Up so the pipeline can drain.
            let last = last(&actions, &churn);
            let mut balance = vec![0i32; n as usize];
            for (_, ev) in &churn {
                match ev {
                    GridEvent::WorkerDown(WorkerId(s)) => balance[*s as usize] -= 1,
                    GridEvent::WorkerUp(WorkerId(s)) => balance[*s as usize] = 0,
                    _ => {}
                }
            }
            for (s, b) in balance.iter().enumerate() {
                if *b < 0 {
                    churn.push((last + 10_000, GridEvent::WorkerUp(WorkerId(s as u32))));
                }
            }
        }
        for (at, ev) in churn {
            sim.schedule_at(ms_to_time(at), ev);
        }
        PlanRuntime { actions, next: 0 }
    }

    fn pop_due(&mut self, horizon_ms: Option<u64>) -> Option<Action> {
        let (at, _) = self.actions.get(self.next)?;
        if let Some(h) = horizon_ms {
            if *at > h {
                return None;
            }
        }
        let a = self.actions[self.next].1.clone();
        self.next += 1;
        Some(a)
    }

    fn pending(&self) -> bool {
        self.next < self.actions.len()
    }
}

fn ms_to_time(ms: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(ms)
}

/// A scheduler the driver faults: the grid's drive step plus the
/// orchestrator hooks the farm and the pipeline share.
trait Target: Scheduler {
    fn orchestrators(&self) -> &OrchestratorHandle;
    fn on_orch_change(&mut self, world: &mut GridWorld);
    /// The farm worker faults aim at. A pipeline has none, and
    /// [`PlanRuntime::new`] gives it no worker fault.
    fn farm(&mut self) -> Option<&mut FarmScheduler>;
}

impl Target for FarmScheduler {
    fn orchestrators(&self) -> &OrchestratorHandle {
        FarmScheduler::orchestrators(self)
    }
    fn on_orch_change(&mut self, world: &mut GridWorld) {
        FarmScheduler::on_orch_change(self, world);
    }
    fn farm(&mut self) -> Option<&mut FarmScheduler> {
        Some(self)
    }
}

impl Target for PipelineScheduler {
    fn orchestrators(&self) -> &OrchestratorHandle {
        PipelineScheduler::orchestrators(self)
    }
    fn on_orch_change(&mut self, world: &mut GridWorld) {
        PipelineScheduler::on_orch_change(self, world);
    }
    fn farm(&mut self) -> Option<&mut FarmScheduler> {
        None
    }
}

/// What plan actions need to know about a scenario's world, plus the
/// orchestrator set's reachability bookkeeping: a member is usable only
/// while its host is online *and* unpartitioned.
struct FaultCtx {
    ctrl_host: HostId,
    /// Hosts of the farm's workers or of the pipeline's stages.
    peer_hosts: Vec<HostId>,
    /// The farm's shared module, which `corrupt` and `lie` faults aim at
    /// (empty in a pipeline).
    module_blob: BlobId,
    module_len: u64,
    module_chunks: u32,
    /// Hosts of the orchestrator set; empty when the world runs the
    /// classic single controller (orch plan actions are then ignored).
    orch_hosts: Vec<HostId>,
    orch_offline: Vec<bool>,
    orch_cuts: Vec<u32>,
    /// Seed-derived stream for routing-table poisonings (`rtbl` faults).
    poison_rng: Pcg32,
}

impl FaultCtx {
    /// Apply one plan action to the world and its scheduler.
    fn apply<S: Target>(
        &mut self,
        world: &mut GridWorld,
        sched: &mut S,
        oracle: &FaultOracle,
        act: Action,
    ) {
        match act {
            Action::DropWindow { until_ms, pct } => {
                oracle.set_drop_window(ms_to_time(until_ms), pct);
            }
            Action::DupWindow { until_ms, pct } => {
                oracle.set_dup_window(ms_to_time(until_ms), pct);
            }
            Action::DelayWindow {
                until_ms,
                pct,
                max_ms,
            } => oracle.set_delay_window(
                ms_to_time(until_ms),
                pct,
                Duration::from_millis(u64::from(max_ms)),
            ),
            Action::Orch(o, fault) => self.orch_fault(world, sched, o as usize, fault),
            Action::Worker(w, fault) => {
                let farm = sched.farm().expect("only a farm plan has worker faults");
                self.worker_fault(world, farm, WorkerId(w), fault);
            }
        }
    }

    /// Apply a fault to orchestrator `o`. When it changes the member's
    /// reachability the membership view is pushed to match and the
    /// scheduler reacts (election, ownership reassignment, resumed
    /// returns, kick).
    fn orch_fault<S: Target>(
        &mut self,
        world: &mut GridWorld,
        sched: &mut S,
        o: usize,
        fault: OrchFault,
    ) {
        if o >= self.orch_hosts.len() {
            return;
        }
        match fault {
            OrchFault::Down if !self.orch_offline[o] => {
                self.orch_offline[o] = true;
                world.net.set_online(self.orch_hosts[o], false);
            }
            OrchFault::Up if self.orch_offline[o] => {
                self.orch_offline[o] = false;
                world.net.set_online(self.orch_hosts[o], true);
            }
            OrchFault::Cut => {
                self.orch_cuts[o] += 1;
                if self.orch_cuts[o] == 1 {
                    self.set_partitioned(world, o, true);
                }
            }
            OrchFault::Uncut if self.orch_cuts[o] > 0 => {
                self.orch_cuts[o] -= 1;
                if self.orch_cuts[o] == 0 {
                    self.set_partitioned(world, o, false);
                }
            }
            // The member is already in the state the fault asks for.
            _ => return,
        }
        let orch = sched.orchestrators();
        if !self.orch_offline[o] && self.orch_cuts[o] == 0 {
            orch.set_member_up(&mut world.sim, &mut world.net, &mut world.p2p, o);
        } else {
            orch.set_member_down(&mut world.sim, &mut world.net, &mut world.p2p, o);
        }
        sched.on_orch_change(world);
    }

    /// Cut or heal every link between orchestrator `o` and the rest of
    /// the grid (workers or stages, and fellow orchestrators).
    fn set_partitioned(&self, world: &mut GridWorld, o: usize, cut: bool) {
        let others = self.orch_hosts.iter().enumerate().filter(|&(j, _)| j != o);
        for &h in self.peer_hosts.iter().chain(others.map(|(_, h)| h)) {
            world.net.set_link_cut(self.orch_hosts[o], h, cut);
        }
    }

    fn worker_fault(
        &mut self,
        world: &mut GridWorld,
        farm: &mut FarmScheduler,
        wid: WorkerId,
        fault: WorkerFault,
    ) {
        match fault {
            WorkerFault::Cut => {
                let host = self.peer_hosts[wid.0 as usize];
                world.net.set_link_cut(self.ctrl_host, host, true);
            }
            WorkerFault::Uncut => {
                let host = self.peer_hosts[wid.0 as usize];
                world.net.set_link_cut(self.ctrl_host, host, false);
                // Link repairs are not grid events; nudge the queue so jobs
                // bounced off the severed route get rescheduled.
                farm.kick(world);
            }
            WorkerFault::Corrupt => {
                // No-op unless the blob is resident — exactly like real
                // bit-rot.
                farm.worker_store_mut(wid)
                    .corrupt_chunk(self.module_blob, 0);
            }
            WorkerFault::Skew(pct) => {
                farm.set_worker_efficiency(wid, f64::from(pct.max(5)) / 100.0);
            }
            WorkerFault::Lie => {
                // Byzantine provider claim: advertise the module blob from a
                // worker that may not hold a single chunk of it. Swarm pulls
                // against it fail and must reroute to the controller.
                let provider = farm.worker_peer(wid);
                let ad = Advertisement {
                    body: AdvertBody::Blob(BlobAdvert {
                        blob: self.module_blob.0,
                        size_bytes: self.module_len,
                        chunks: self.module_chunks,
                        provider,
                    }),
                    expires: world.sim.now() + Duration::from_secs(3_600),
                };
                world
                    .p2p
                    .publish(&mut world.sim, &mut world.net, provider, ad);
            }
            WorkerFault::Poison => {
                // No-op outside routed mode (a flooding peer has no routing
                // table), exactly like Corrupt on a non-resident blob.
                let peer = farm.worker_peer(wid);
                world.p2p.poison_routing_table(peer, &mut self.poison_rng);
            }
            // Only fell the worker if its peer actually serves as a hot
            // rendezvous — the fault is about super-peer outage, not plain
            // worker churn (the Crash kind already covers that). Roles are
            // assigned at bootstrap and stable for the whole run, so the
            // matching SuperUp sees the same verdict.
            WorkerFault::SuperDown if world.p2p.is_rendezvous(farm.worker_peer(wid)) => {
                farm.handle(world, GridEvent::WorkerDown(wid));
            }
            WorkerFault::SuperUp if world.p2p.is_rendezvous(farm.worker_peer(wid)) => {
                farm.handle(world, GridEvent::WorkerUp(wid));
            }
            WorkerFault::SuperDown | WorkerFault::SuperUp => {}
        }
    }
}

/// Step a scenario's world to drain, applying plan actions at their due
/// times: actions due before the next sim event apply first; once the
/// queue is empty the remaining actions apply immediately (there is no
/// natural event left to wait for). `audit` runs after every handled
/// event.
fn drive<S: Target>(
    world: &mut GridWorld,
    sched: &mut S,
    rt: &mut PlanRuntime,
    oracle: &FaultOracle,
    ctx: &mut FaultCtx,
    mut audit: impl FnMut(&S),
) {
    loop {
        let horizon_ms = world.sim.peek_time().map(|t| t.as_micros() / 1_000);
        while let Some(act) = rt.pop_due(horizon_ms) {
            ctx.apply(world, sched, oracle, act);
        }
        if world.step(sched) {
            audit(sched);
        } else if !rt.pending() {
            break;
        }
    }
}

/// The farm scenarios' per-step audit: no job moved onto a worker the
/// farm has blacklisted.
fn blacklist_audit<'v>(
    farm: &FarmScheduler,
    violations: &'v mut Vec<Violation>,
) -> impl FnMut(&FarmScheduler) + 'v {
    let mut before: Vec<Option<WorkerId>> = (0..farm.n_jobs())
        .map(|j| farm.job_assignment(JobId(j as u64)))
        .collect();
    move |farm| {
        check_blacklist_respected(farm, &before, violations);
        for (j, slot) in before.iter_mut().enumerate() {
            *slot = farm.job_assignment(JobId(j as u64));
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario builders
// ---------------------------------------------------------------------------

fn host(cpu_ghz: f64) -> HostSpec {
    let mut spec = HostSpec::lan_workstation();
    spec.cpu_ghz = cpu_ghz;
    spec
}

/// A real assembled module blob of roughly `approx` bytes, so corruption
/// and hash verification run against genuine TVM bytes. Ends in a small
/// countdown loop, which runs in stack form: a `jnz` back-edge is none of
/// the shapes tier 2 translates, so admission translates no region.
fn sized_blob(name: &str, approx: usize) -> tvm::ModuleBlob {
    let mut src = format!(".module {name} 1 0 0\n.func main 1\n");
    for _ in 0..approx / 10 {
        src.push_str(" push 1\n pop\n");
    }
    src.push_str(
        " push 4\n store 0\nloop:\n load 0\n push 1\n sub\n store 0\n load 0\n jnz loop\n halt\n",
    );
    tvm::asm::assemble(&src)
        .expect("static chaos module")
        .to_blob()
}

/// Build the [`N_ORCH`]-member orchestrator set for a decentralised run:
/// `lead` (the classic controller peer, fastest host) plus two slower
/// peers, eligibility scored from advertised clock at full trust.
fn build_orch_set(
    world: &mut GridWorld,
    lead: PeerId,
    lead_host: HostId,
    seed: u64,
) -> (OrchestratorHandle, Vec<HostId>) {
    let mut specs = vec![OrchestratorSpec {
        peer: lead,
        host: lead_host,
        eligibility: orchestrator_eligibility(2.0, 1.0, 1.0),
    }];
    let mut hosts = vec![lead_host];
    for i in 1..N_ORCH {
        let cpu = 2.0 - i as f64 * 0.2;
        let (peer, h) = world.add_peer(host(cpu));
        hosts.push(h);
        specs.push(OrchestratorSpec {
            peer,
            host: h,
            eligibility: orchestrator_eligibility(cpu, 1.0, 1.0),
        });
    }
    let handle = OrchestratorHandle::new(Orchestrators::new(&specs, seed, OrchConfig::default()));
    (handle, hosts)
}

/// The world every scenario starts from: its discovery mode, an enabled
/// obs, the oracle's tap and send filter, the controller peer and the
/// orchestrator set (the controller alone, or [`N_ORCH`] members with
/// `use_orch`). The fault context knows no worker or stage yet.
fn build_world(
    seed: u64,
    oracle: &FaultOracle,
    use_orch: bool,
    routed: bool,
) -> (GridWorld, Obs, OrchestratorHandle, FaultCtx) {
    let mode = if routed {
        DiscoveryMode::Routed
    } else {
        DiscoveryMode::Flooding
    };
    let mut world = GridWorld::new(seed, mode);
    let obs = Obs::enabled();
    world.sim.set_tap(oracle.tap());
    world.p2p.set_obs(obs.clone());
    world.p2p.set_send_filter(oracle.send_filter());
    let (ctrl, ctrl_host) = world.add_peer(host(2.0));
    let (orch, orch_hosts) = if use_orch {
        let (handle, hosts) = build_orch_set(&mut world, ctrl, ctrl_host, seed);
        handle.set_obs(obs.clone());
        (handle, hosts)
    } else {
        (OrchestratorHandle::single(ctrl, ctrl_host), Vec::new())
    };
    let ctx = FaultCtx {
        ctrl_host,
        peer_hosts: Vec::new(),
        module_blob: BlobId::of(&[]),
        module_len: 0,
        module_chunks: 0,
        orch_offline: vec![false; orch_hosts.len()],
        orch_cuts: vec![0; orch_hosts.len()],
        orch_hosts,
        poison_rng: Pcg32::new(seed, 0x0007_B150),
    };
    (world, obs, orch, ctx)
}

struct FarmWorld {
    world: GridWorld,
    farm: FarmScheduler,
    ctx: FaultCtx,
    obs: Obs,
    module_key: ModuleKey,
}

fn build_farm_world(seed: u64, oracle: &FaultOracle, use_orch: bool, routed: bool) -> FarmWorld {
    let (mut world, obs, orch, mut ctx) = build_world(seed, oracle, use_orch, routed);
    let cfg = FarmConfig {
        checkpoint: Some(CheckpointPolicy::every(Duration::from_secs(5), 2_000)),
        swarm: Some(SwarmConfig {
            chunk_bytes: 256,
            ..SwarmConfig::default()
        }),
        trust: Some(GridTrustConfig::adaptive()),
    };
    let mut farm = FarmScheduler::with_orchestrators(orch, cfg);
    farm.set_obs(obs.clone());
    let horizon = SimTime::from_secs(200_000);
    for i in 0..N_WORKERS {
        let spec = host(1.0 + i as f64 * 0.5);
        let (peer, h) = world.add_peer(spec.clone());
        ctx.peer_hosts.push(h);
        farm.add_worker(
            &mut world,
            WorkerSetup {
                peer,
                spec,
                // All churn comes from the plan, so runs without faults
                // are a clean baseline.
                trace: AvailabilityTrace::always(horizon),
                cache_bytes: 1 << 20,
            },
        );
    }
    let mut rng = Pcg32::new(seed, 0x3333);
    world.p2p.wire_random(3, &mut rng);
    if routed {
        // Bootstrap the DHT up-front (neutral trust profiles: everyone
        // warm, the hot quota promoted deterministically) so rendezvous
        // roles exist before the first publish and `spfl` faults can find
        // a super-peer to fell.
        let profiles = vec![(0.7, 1.0); world.p2p.len()];
        world.p2p.enable_routed(&profiles, &mut rng);
    }
    let module_key = ModuleKey::new("Chaos", 1);
    let blob = sized_blob("Chaos", 2_000);
    ctx.module_blob = BlobId::of_blob(&blob);
    ctx.module_len = blob.len() as u64;
    ctx.module_chunks = ChunkLayout::new(blob.len() as u64, 256).count();
    farm.library.publish(module_key.clone(), blob);
    FarmWorld {
        world,
        farm,
        ctx,
        obs,
        module_key,
    }
}

fn farm_job(i: usize, module_key: &ModuleKey) -> JobSpec {
    JobSpec {
        work_gigacycles: 10.0 + (i % 5) as f64 * 8.0,
        input_bytes: 50_000,
        output_bytes: 5_000,
        // Every other job needs the shared module: the swarm, the cache,
        // and the corruption/lie faults all get traffic to chew on.
        module: i.is_multiple_of(2).then(|| module_key.clone()),
    }
}

fn finish_report(
    cfg: &ChaosConfig,
    obs: &Obs,
    stats_line: String,
    oracle: &FaultOracle,
    violations: Vec<Violation>,
) -> RunOutcome {
    let mut report = String::with_capacity(2_048);
    report.push_str("chaos-report v1\n");
    report.push_str(&format!(
        "scenario={} seed={} mutate={} orch={} routed={} plan={}\n",
        cfg.scenario.name(),
        cfg.seed,
        cfg.mutate_drop_output,
        cfg.orch,
        cfg.routed,
        cfg.plan
    ));
    report.push_str(&stats_line);
    report.push('\n');
    let c = oracle.counters();
    report.push_str(&format!(
        "oracle: drops={} dups={} delays={} mutations={}\n",
        c.drops, c.dups, c.delays, c.mutations
    ));
    report.push_str("obs=");
    report.push_str(&obs.snapshot_json().unwrap_or_default());
    report.push('\n');
    if violations.is_empty() {
        report.push_str("violations: none\n");
    } else {
        for v in &violations {
            report.push_str(&format!("violation: {v}\n"));
        }
    }
    RunOutcome {
        digest: fnv1a64(report.as_bytes()),
        report,
        violations,
    }
}

/// Jobs the farm has actually completed, the ground truth the replicated
/// completion set must agree with.
fn farm_done_jobs(farm: &FarmScheduler) -> Vec<u64> {
    (0..farm.n_jobs() as u64)
        .filter(|&j| farm.job_is_done(JobId(j)))
        .collect()
}

fn run_farm_scenario(cfg: &ChaosConfig) -> RunOutcome {
    let oracle = FaultOracle::new(cfg.seed);
    oracle.set_mutate_drop_output(cfg.mutate_drop_output);
    let mut fw = build_farm_world(cfg.seed, &oracle, cfg.orch, cfg.routed);
    for i in 0..N_JOBS {
        let spec = farm_job(i, &fw.module_key);
        fw.farm.submit(&mut fw.world, spec);
    }
    let mut rt = PlanRuntime::new(&cfg.plan, Scenario::Farm, &mut fw.world.sim);
    let mut violations = Vec::new();
    let audit = blacklist_audit(&fw.farm, &mut violations);
    drive(
        &mut fw.world,
        &mut fw.farm,
        &mut rt,
        &oracle,
        &mut fw.ctx,
        audit,
    );
    let reg = fw.obs.registry().expect("obs enabled").clone();
    check_no_stranded_jobs(&fw.farm, &mut violations);
    check_no_starvation(&fw.farm, &mut violations);
    check_exactly_once(&fw.farm, &reg, &mut violations);
    check_dispatch_conservation(&reg, &mut violations);
    check_message_conservation(&reg, oracle.counters(), &mut violations);
    check_cache_integrity(&fw.farm, &fw.world, &mut violations);
    check_overlay_converged(&fw.world.p2p, &mut violations);
    if cfg.orch {
        let done = farm_done_jobs(&fw.farm);
        check_orch_exactly_once(fw.farm.orchestrators(), &done, &mut violations);
        check_orch_replication(fw.farm.orchestrators(), &mut violations);
    }
    let s = fw.farm.stats();
    let stats_line = format!(
        "farm: jobs_done={}/{} attempts={} wasted_us={} makespan_us={}",
        s.jobs_done,
        s.jobs_total,
        s.attempts,
        s.wasted.as_micros(),
        s.makespan.as_micros()
    );
    finish_report(cfg, &fw.obs, stats_line, &oracle, violations)
}

fn run_voting_scenario(cfg: &ChaosConfig) -> RunOutcome {
    let oracle = FaultOracle::new(cfg.seed);
    oracle.set_mutate_drop_output(cfg.mutate_drop_output);
    let mut fw = build_farm_world(cfg.seed, &oracle, cfg.orch, cfg.routed);
    let mut behaviours = vec![Behaviour::Honest; N_WORKERS];
    behaviours[0] = Behaviour::Cheater { cheat_prob: 1.0 };
    let mut voting = VotingFarm::new(RedundancyConfig::triple(), behaviours, cfg.seed);
    voting.set_obs(fw.obs.clone());
    let mut rt = PlanRuntime::new(&cfg.plan, Scenario::Voting, &mut fw.world.sim);
    let mut violations = Vec::new();
    let unit_spec = JobSpec {
        work_gigacycles: 12.0,
        input_bytes: 20_000,
        output_bytes: 2_000,
        module: Some(fw.module_key.clone()),
    };
    // Two waves of units share one plan runtime, so faults land across
    // submission boundaries too.
    for _wave in 0..2 {
        for _ in 0..2 {
            voting.submit_unit(&mut fw.farm, &mut fw.world, unit_spec.clone());
        }
        let audit = blacklist_audit(&fw.farm, &mut violations);
        drive(
            &mut fw.world,
            &mut fw.farm,
            &mut rt,
            &oracle,
            &mut fw.ctx,
            audit,
        );
        for u in 0..voting.units.len() {
            voting.apply_unit(&mut fw.farm, u);
        }
    }
    let reg = fw.obs.registry().expect("obs enabled").clone();
    check_no_stranded_jobs(&fw.farm, &mut violations);
    // No starvation check: replica conflicts can legitimately leave jobs
    // pending while a conflicting worker idles.
    check_exactly_once(&fw.farm, &reg, &mut violations);
    check_dispatch_conservation(&reg, &mut violations);
    check_message_conservation(&reg, oracle.counters(), &mut violations);
    check_cache_integrity(&fw.farm, &fw.world, &mut violations);
    check_overlay_converged(&fw.world.p2p, &mut violations);
    check_voting(&voting, &fw.farm, &mut violations);
    if cfg.orch {
        let done = farm_done_jobs(&fw.farm);
        check_orch_exactly_once(fw.farm.orchestrators(), &done, &mut violations);
        check_orch_replication(fw.farm.orchestrators(), &mut violations);
    }
    let s = fw.farm.stats();
    let stats_line = format!(
        "voting: units={} replicas={} jobs_done={}/{} attempts={}",
        voting.units.len(),
        voting.total_replicas(),
        s.jobs_done,
        s.jobs_total,
        s.attempts
    );
    finish_report(cfg, &fw.obs, stats_line, &oracle, violations)
}

fn run_pipeline_scenario(cfg: &ChaosConfig) -> RunOutcome {
    let oracle = FaultOracle::new(cfg.seed);
    oracle.set_mutate_drop_output(cfg.mutate_drop_output);
    // In routed mode a pipeline takes the lazy-bootstrap path: the overlay
    // assembles itself (neutral profiles) on the first publish or query.
    let (mut world, obs, orch, mut ctx) = build_world(cfg.seed, &oracle, cfg.orch, cfg.routed);
    let mut stages = Vec::with_capacity(N_STAGES);
    for i in 0..N_STAGES {
        let spec = host(1.5 + i as f64 * 0.25);
        let (peer, h) = world.add_peer(spec.clone());
        ctx.peer_hosts.push(h);
        stages.push(StageSpec {
            peer,
            spec,
            work_gigacycles: 5.0,
        });
    }
    let mut pl = PipelineScheduler::with_orchestrators(&mut world, orch, "chaos", stages, 10_000);
    pl.set_obs(obs.clone());
    pl.emit_tokens(&mut world, N_TOKENS, Duration::from_secs(1));
    let mut rt = PlanRuntime::new(&cfg.plan, Scenario::Pipeline, &mut world.sim);
    drive(&mut world, &mut pl, &mut rt, &oracle, &mut ctx, |_| {});
    let reg = obs.registry().expect("obs enabled").clone();
    let mut violations = Vec::new();
    check_pipeline(&pl, N_TOKENS, &reg, &mut violations);
    check_message_conservation(&reg, oracle.counters(), &mut violations);
    check_overlay_converged(&world.p2p, &mut violations);
    if cfg.orch {
        let done: Vec<u64> = (0..N_TOKENS)
            .filter(|&t| pl.token_latency(t).is_some())
            .collect();
        check_orch_exactly_once(pl.orchestrators(), &done, &mut violations);
        check_orch_replication(pl.orchestrators(), &mut violations);
    }
    let s = pl.stats();
    let stats_line = format!(
        "pipeline: tokens_done={}/{} emissions={} max_latency_us={}",
        s.tokens_done,
        N_TOKENS,
        s.emissions,
        s.max_latency.as_micros()
    );
    finish_report(cfg, &obs, stats_line, &oracle, violations)
}

/// Run one chaos configuration to completion and audit it.
pub fn run_chaos(cfg: &ChaosConfig) -> RunOutcome {
    match cfg.scenario {
        Scenario::Farm => run_farm_scenario(cfg),
        Scenario::Pipeline => run_pipeline_scenario(cfg),
        Scenario::Voting => run_voting_scenario(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_round_trips_names() {
        for s in [Scenario::Farm, Scenario::Pipeline, Scenario::Voting] {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("nope"), None);
    }

    #[test]
    fn replay_command_is_parseable_back() {
        let cfg = ChaosConfig::from_seed(7);
        let cmd = replay_command(&cfg);
        assert!(cmd.contains("--seed 7"));
        assert!(cmd.contains(&format!("--scenario {}", cfg.scenario.name())));
        assert!(cmd.contains(&format!("\"{}\"", cfg.plan)));
    }

    #[test]
    fn fault_free_scenarios_complete_cleanly() {
        for scenario in [Scenario::Farm, Scenario::Pipeline, Scenario::Voting] {
            let cfg = ChaosConfig {
                seed: 11,
                scenario,
                plan: FaultPlan::empty(),
                mutate_drop_output: false,
                orch: false,
                routed: false,
            };
            let out = run_chaos(&cfg);
            assert!(
                out.ok(),
                "{} baseline violated: {:?}",
                scenario.name(),
                out.violations
            );
        }
    }

    #[test]
    fn fault_free_orch_scenarios_complete_cleanly() {
        // A decentralised orchestrator set with no faults must behave like
        // the single controller: every scenario drains green, no election
        // ever runs, and every replica converges.
        for scenario in [Scenario::Farm, Scenario::Pipeline, Scenario::Voting] {
            let cfg = ChaosConfig {
                seed: 11,
                scenario,
                plan: FaultPlan::empty(),
                mutate_drop_output: false,
                orch: true,
                routed: false,
            };
            let out = run_chaos(&cfg);
            assert!(
                out.ok(),
                "{} orch baseline violated: {:?}",
                scenario.name(),
                out.violations
            );
        }
    }

    #[test]
    fn cache_integrity_holds_over_modules_shared_between_workers() {
        // The farm's worker caches hand out one admitted module per blob.
        // The integrity audit — hash agreement plus re-admission — must
        // read the same on a shared module as on a private one.
        let oracle = FaultOracle::new(3);
        let mut fw = build_farm_world(3, &oracle, false, false);
        for i in 0..N_JOBS {
            let spec = farm_job(i, &fw.module_key);
            fw.farm.submit(&mut fw.world, spec);
        }
        let mut rt = PlanRuntime::new(&FaultPlan::empty(), Scenario::Farm, &mut fw.world.sim);
        let mut violations = Vec::new();
        let audit = blacklist_audit(&fw.farm, &mut violations);
        drive(
            &mut fw.world,
            &mut fw.farm,
            &mut rt,
            &oracle,
            &mut fw.ctx,
            audit,
        );
        let admitted: Vec<_> = (0..fw.farm.n_workers() as u32)
            .filter_map(|w| {
                fw.farm
                    .worker_cache(WorkerId(w))
                    .prepared_of(&fw.module_key)
            })
            .collect();
        assert!(
            admitted.len() >= 2,
            "the module reached {} caches",
            admitted.len()
        );
        assert!(
            admitted
                .iter()
                .all(|p| std::sync::Arc::ptr_eq(p, admitted[0])),
            "every cache of one farm holds the same admitted module"
        );
        check_cache_integrity(&fw.farm, &fw.world, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn same_config_replays_byte_identically() {
        for seed in [0, 1, 2, 17, 42] {
            let cfg = ChaosConfig::from_seed(seed);
            let a = run_chaos(&cfg);
            let b = run_chaos(&cfg);
            assert_eq!(a.digest, b.digest, "seed {seed} diverged");
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn mutation_is_caught_shrunk_and_replayable() {
        // The acceptance gate: arm the intentional drop-output bug, prove
        // the invariant checker flags it, shrink the plan to a minimal
        // reproducer, and show the reproducer replays byte-identically.
        let mut cfg = ChaosConfig::from_seed(0); // seed 0 → farm scenario
        cfg.mutate_drop_output = true;
        let out = run_chaos(&cfg);
        assert!(
            !out.ok(),
            "mutation must trip an invariant:\n{}",
            out.report
        );

        let fails = |p: &FaultPlan| {
            let candidate = ChaosConfig {
                plan: p.clone(),
                ..cfg.clone()
            };
            !run_chaos(&candidate).ok()
        };
        let shrunk = crate::shrink::shrink_plan(&cfg.plan, fails);
        // The bug fires with no faults at all, so ddmin strips the plan
        // entirely.
        assert!(
            shrunk.is_empty(),
            "expected empty reproducer, got `{shrunk}`"
        );

        let min_cfg = ChaosConfig {
            plan: shrunk,
            ..cfg.clone()
        };
        let cmd = replay_command(&min_cfg);
        assert!(cmd.contains("--mutate drop-output"), "{cmd}");
        assert!(cmd.contains("--plan \"-\""), "{cmd}");
        let a = run_chaos(&min_cfg);
        let b = run_chaos(&min_cfg);
        assert!(!a.ok());
        assert_eq!(
            a.digest, b.digest,
            "reproducer must replay byte-identically"
        );
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn checkpoint_restart_preserves_progress_under_crash() {
        // Satellite: a mid-run crash with periodic checkpointing must lose
        // at most the work since the last checkpoint, and the job must
        // finish after the restart. One worker, one ~50 s job, checkpoints
        // every 5 s, crash at 26 s, restart at 30 s.
        let oracle = FaultOracle::new(5);
        let (mut world, obs, orch, mut ctx) = build_world(5, &oracle, false, false);
        let cfg = FarmConfig {
            checkpoint: Some(CheckpointPolicy::every(Duration::from_secs(5), 2_000)),
            swarm: None,
            trust: None,
        };
        let mut farm = FarmScheduler::with_orchestrators(orch, cfg);
        farm.set_obs(obs);
        let spec = host(1.0);
        let (peer, worker_host) = world.add_peer(spec.clone());
        ctx.peer_hosts.push(worker_host);
        farm.add_worker(
            &mut world,
            WorkerSetup {
                peer,
                spec,
                trace: AvailabilityTrace::always(SimTime::from_secs(10_000)),
                cache_bytes: 1 << 20,
            },
        );
        farm.submit(
            &mut world,
            JobSpec {
                work_gigacycles: 50.0,
                input_bytes: 10_000,
                output_bytes: 1_000,
                module: None,
            },
        );
        let plan: FaultPlan = "crash@26000:w0;restart@30000:w0".parse().unwrap();
        let mut rt = PlanRuntime::new(&plan, Scenario::Farm, &mut world.sim);
        let mut violations = Vec::new();
        let audit = blacklist_audit(&farm, &mut violations);
        drive(&mut world, &mut farm, &mut rt, &oracle, &mut ctx, audit);
        assert!(violations.is_empty(), "{violations:?}");
        let s = farm.stats();
        assert_eq!(s.jobs_done, 1, "job must finish after the restart");
        assert!(
            s.wasted < Duration::from_secs(10),
            "lost more than two checkpoint intervals: {}",
            s.wasted
        );
        assert!(
            s.wasted > Duration::ZERO,
            "a mid-interval crash must waste the uncheckpointed tail"
        );
    }

    #[test]
    fn seed_sweep_smoke_holds_invariants() {
        for seed in 0..30 {
            let cfg = ChaosConfig::from_seed(seed);
            let out = run_chaos(&cfg);
            assert!(
                out.ok(),
                "seed {seed} ({}) violated invariants:\n{}",
                cfg.scenario.name(),
                out.report
            );
        }
    }

    #[test]
    fn orch_seed_sweep_smoke_holds_invariants() {
        for seed in 0..18 {
            let cfg = ChaosConfig::from_seed_orch(seed);
            let out = run_chaos(&cfg);
            assert!(
                out.ok(),
                "orch seed {seed} ({}) violated invariants:\n{}",
                cfg.scenario.name(),
                out.report
            );
            if seed < 6 {
                let again = run_chaos(&cfg);
                assert_eq!(out.digest, again.digest, "orch seed {seed} diverged");
                assert_eq!(out.report, again.report);
            }
        }
    }

    #[test]
    fn leader_crash_handoff_resumes_at_exact_times() {
        // Satellite regression for the handoff/kick fix: crash the active
        // leader (member 0, who owns in-flight jobs and their data plane)
        // mid-run at an exact time and revive it later. The successor must
        // re-elect, reassign orphaned ownership, re-drive Returning jobs,
        // and — crucially — kick the queue so the farm actually finishes
        // instead of stalling until (absent) worker churn.
        let cfg = ChaosConfig {
            seed: 3, // 3 % 3 == 0 → farm scenario
            scenario: Scenario::Farm,
            plan: "octl@26000:o0;orest@30000:o0".parse().unwrap(),
            mutate_drop_output: false,
            orch: true,
            routed: false,
        };
        let out = run_chaos(&cfg);
        assert!(out.ok(), "handoff run violated invariants:\n{}", out.report);
        assert!(
            out.report.contains(&format!("jobs_done={N_JOBS}/{N_JOBS}")),
            "farm must finish every job after the handoff:\n{}",
            out.report
        );
        assert!(
            out.report.contains("\"orch.elections\":1"),
            "the leader crash must run exactly one election:\n{}",
            out.report
        );
        let again = run_chaos(&cfg);
        assert_eq!(
            out.digest, again.digest,
            "handoff run must be deterministic"
        );
    }

    #[test]
    fn requeued_replica_cannot_revote_through_one_cheater() {
        // Regression (long-sweep seed 1697): job conflicts used to be
        // one-directional — a unit's *first* replica carried no conflict
        // entries, so when its worker crashed the requeued job could land
        // on the cheater that had already completed a sibling replica.
        // One bad volunteer then cast two identical wrong digests and won
        // the vote. Conflicts are now symmetric at submit time.
        let cfg = ChaosConfig {
            seed: 1697,
            scenario: Scenario::Voting,
            plan: "crash@7580:w4;skew@37796:w1,28%;skew@45106:w2,10%"
                .parse()
                .unwrap(),
            mutate_drop_output: false,
            orch: false,
            routed: false,
        };
        let out = run_chaos(&cfg);
        assert!(
            out.ok(),
            "one cheater formed a quorum on a requeued replica:\n{}",
            out.report
        );
    }

    #[test]
    fn fault_free_routed_scenarios_complete_cleanly() {
        // The acceptance check for structured discovery under the
        // chaos harness: every scenario drains green when discovery runs
        // over the Kademlia overlay instead of flooding, with no faults.
        for scenario in [Scenario::Farm, Scenario::Pipeline, Scenario::Voting] {
            let cfg = ChaosConfig {
                seed: 11,
                scenario,
                plan: FaultPlan::empty(),
                mutate_drop_output: false,
                orch: false,
                routed: true,
            };
            let out = run_chaos(&cfg);
            assert!(
                out.ok(),
                "{} routed baseline violated: {:?}",
                scenario.name(),
                out.violations
            );
        }
    }

    #[test]
    fn routed_seed_sweep_smoke_holds_invariants() {
        let mut any_overlay_fault = false;
        for seed in 0..18 {
            let cfg = ChaosConfig::from_seed_routed(seed);
            any_overlay_fault |= cfg.plan.events.iter().any(|e| {
                matches!(
                    e.kind,
                    FaultKind::RoutePoison { .. } | FaultKind::SuperPeerFail { .. }
                )
            });
            let out = run_chaos(&cfg);
            assert!(
                out.ok(),
                "routed seed {seed} ({}) violated invariants:\n{}",
                cfg.scenario.name(),
                out.report
            );
            if seed < 6 {
                let again = run_chaos(&cfg);
                assert_eq!(out.digest, again.digest, "routed seed {seed} diverged");
                assert_eq!(out.report, again.report);
            }
        }
        assert!(any_overlay_fault, "sweep never exercised an overlay fault");
    }
}
