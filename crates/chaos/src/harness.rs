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
use netsim::{Duration, HostId, HostSpec, Pcg32, SimTime};
use obs::Obs;
use orch::{OrchConfig, OrchestratorHandle, OrchestratorSpec, Orchestrators};
use p2p::{AdvertBody, Advertisement, BlobAdvert, DiscoveryMode, Incoming, PeerId};
use store::{BlobId, ChunkLayout};
use triana_core::checkpoint::CheckpointPolicy;
use triana_core::grid::farm::{FarmConfig, FarmScheduler, JobSpec, SwarmConfig};
use triana_core::grid::pipeline::{PipelineScheduler, StageSpec};
use triana_core::grid::redundancy::{Behaviour, RedundancyConfig, VotingFarm};
use triana_core::grid::{GridEvent, GridWorld, JobId, WorkerId, WorkerSetup};
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
/// `Partition` becomes a cut/uncut pair.
#[derive(Clone, Debug)]
enum Action {
    Down(u32),
    Up(u32),
    Cut(u32),
    Uncut(u32),
    DropWindow { until_ms: u64, pct: u8 },
    DupWindow { until_ms: u64, pct: u8 },
    DelayWindow { until_ms: u64, pct: u8, max_ms: u32 },
    Corrupt(u32),
    Skew { worker: u32, pct: u8 },
    Lie(u32),
    OrchDown(u32),
    OrchUp(u32),
    OrchCut(u32),
    OrchUncut(u32),
    Poison(u32),
    SuperDown(u32),
    SuperUp(u32),
}

/// The plan, expanded and sorted, consumed progressively as the driver
/// steps the sim (shared across waves in the voting scenario).
pub struct PlanRuntime {
    actions: Vec<(u64, Action)>,
    next: usize,
}

impl PlanRuntime {
    pub fn new(plan: &FaultPlan, scenario: Scenario) -> PlanRuntime {
        let n = match scenario {
            Scenario::Pipeline => N_STAGES as u32,
            _ => N_WORKERS as u32,
        };
        let mut actions: Vec<(u64, Action)> = Vec::with_capacity(plan.len() * 2);
        for ev in &plan.events {
            let at = ev.at_ms;
            match ev.kind {
                FaultKind::Crash { worker } => actions.push((at, Action::Down(worker % n))),
                FaultKind::Restart { worker } => actions.push((at, Action::Up(worker % n))),
                FaultKind::Partition { worker, secs } => {
                    if scenario == Scenario::Pipeline {
                        // The pipe protocol has no retry for lost tokens on
                        // a live-but-unreachable stage; a partition there
                        // is indistinguishable from a permanent hang, so
                        // the pipeline scenario maps it to stage churn.
                        actions.push((at, Action::Down(worker % n)));
                        actions.push((at + u64::from(secs) * 1_000, Action::Up(worker % n)));
                    } else {
                        actions.push((at, Action::Cut(worker % n)));
                        actions.push((at + u64::from(secs) * 1_000, Action::Uncut(worker % n)));
                    }
                }
                FaultKind::Drop { pct, secs } => actions.push((
                    at,
                    Action::DropWindow {
                        until_ms: at + u64::from(secs) * 1_000,
                        pct,
                    },
                )),
                FaultKind::Duplicate { pct, secs } => actions.push((
                    at,
                    Action::DupWindow {
                        until_ms: at + u64::from(secs) * 1_000,
                        pct,
                    },
                )),
                FaultKind::Delay { pct, max_ms, secs } => actions.push((
                    at,
                    Action::DelayWindow {
                        until_ms: at + u64::from(secs) * 1_000,
                        pct,
                        max_ms,
                    },
                )),
                FaultKind::Corrupt { worker } => {
                    if scenario != Scenario::Pipeline {
                        actions.push((at, Action::Corrupt(worker % n)));
                    }
                }
                FaultKind::Skew { worker, pct } => {
                    if scenario != Scenario::Pipeline {
                        actions.push((
                            at,
                            Action::Skew {
                                worker: worker % n,
                                pct,
                            },
                        ));
                    }
                }
                FaultKind::Lie { worker } => {
                    if scenario != Scenario::Pipeline {
                        actions.push((at, Action::Lie(worker % n)));
                    }
                }
                FaultKind::OrchCrash { orch } => {
                    actions.push((at, Action::OrchDown(orch % N_ORCH as u32)));
                }
                FaultKind::OrchRestart { orch } => {
                    actions.push((at, Action::OrchUp(orch % N_ORCH as u32)));
                }
                FaultKind::OrchPartition { orch, secs } => {
                    let o = orch % N_ORCH as u32;
                    actions.push((at, Action::OrchCut(o)));
                    actions.push((at + u64::from(secs) * 1_000, Action::OrchUncut(o)));
                }
                FaultKind::RoutePoison { worker } => {
                    if scenario != Scenario::Pipeline {
                        actions.push((at, Action::Poison(worker % n)));
                    }
                }
                FaultKind::SuperPeerFail { worker, secs } => {
                    // Overlay faults target the farm's worker peers (the
                    // pipeline's stage peers have no farm churn handler for
                    // a rendezvous outage, so pipelines skip them — they
                    // still exercise routed discovery per se).
                    if scenario != Scenario::Pipeline {
                        let w = worker % n;
                        actions.push((at, Action::SuperDown(w)));
                        actions.push((at + u64::from(secs) * 1_000, Action::SuperUp(w)));
                    }
                }
            }
        }
        actions.sort_by_key(|(t, _)| *t);
        {
            // An orchestrator that never comes back leaves its log entries
            // unrepairable and can park ownership forever: guarantee every
            // OrchDown has a matching later OrchUp, mirroring the pipeline
            // stage balance below.
            let last = actions.last().map_or(0, |(t, _)| *t);
            let mut balance = [0i32; N_ORCH];
            for (_, a) in &actions {
                match a {
                    Action::OrchDown(o) => balance[*o as usize] -= 1,
                    Action::OrchUp(o) => balance[*o as usize] = 0,
                    _ => {}
                }
            }
            for (o, b) in balance.iter().enumerate() {
                if *b < 0 {
                    actions.push((last + 10_000, Action::OrchUp(o as u32)));
                }
            }
        }
        if scenario == Scenario::Pipeline {
            // A stage that never comes back makes lost tokens recirculate
            // forever (emit → dead stage → re-emit): guarantee every Down
            // has a matching later Up so the pipeline can drain.
            let last = actions.last().map_or(0, |(t, _)| *t);
            let mut balance = vec![0i32; n as usize];
            for (_, a) in &actions {
                match a {
                    Action::Down(s) => balance[*s as usize] -= 1,
                    Action::Up(s) => balance[*s as usize] = 0,
                    _ => {}
                }
            }
            for (s, b) in balance.iter().enumerate() {
                if *b < 0 {
                    actions.push((last + 10_000, Action::Up(s as u32)));
                }
            }
        }
        PlanRuntime { actions, next: 0 }
    }

    /// Move the churn actions (worker/stage down and up) out of the action
    /// list and into the sim queue as real grid events at their exact
    /// times. Everything else (oracle windows, link cuts, state edits)
    /// only takes effect at the next event handler anyway, so it can keep
    /// the apply-at-horizon path — but churn handlers read `sim.now()`
    /// (checkpoint credit, trust profiling), which must be the fault's
    /// nominal time, not whenever the driver gets around to it.
    pub fn schedule_churn(&mut self, sim: &mut netsim::Sim<GridEvent>) {
        debug_assert_eq!(self.next, 0, "schedule churn before driving");
        let mut rest = Vec::with_capacity(self.actions.len());
        for (at, a) in self.actions.drain(..) {
            match a {
                Action::Down(w) => {
                    sim.schedule_at(ms_to_time(at), GridEvent::WorkerDown(WorkerId(w)));
                }
                Action::Up(w) => {
                    sim.schedule_at(ms_to_time(at), GridEvent::WorkerUp(WorkerId(w)));
                }
                other => rest.push((at, other)),
            }
        }
        self.actions = rest;
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

/// Reachability bookkeeping for the orchestrator set, shared by the farm
/// and pipeline drivers: a member is usable only while its host is online
/// *and* unpartitioned.
struct OrchFaults {
    /// Hosts of the orchestrator set; empty when the world runs the
    /// classic single controller (orch plan actions are then ignored).
    hosts: Vec<HostId>,
    offline: Vec<bool>,
    cuts: Vec<u32>,
}

impl OrchFaults {
    fn new(hosts: Vec<HostId>) -> Self {
        OrchFaults {
            offline: vec![false; hosts.len()],
            cuts: vec![0; hosts.len()],
            hosts,
        }
    }

    /// Cut or heal every link between orchestrator `o` and the rest of
    /// the grid (`peers` — workers or stages — and fellow orchestrators).
    fn set_partitioned(&self, world: &mut GridWorld, peers: &[HostId], o: usize, cut: bool) {
        for &ph in peers {
            world.net.set_link_cut(self.hosts[o], ph, cut);
        }
        for (j, &oh) in self.hosts.iter().enumerate() {
            if j != o {
                world.net.set_link_cut(self.hosts[o], oh, cut);
            }
        }
    }
}

/// Apply one orchestrator fault (`OrchDown`/`OrchUp`/`OrchCut`/`OrchUncut`)
/// to the set behind `orch`. When it changes member `o`'s reachability the
/// membership view is pushed to match and `changed` lets the scheduler
/// react (election, ownership reassignment, resumed returns, kick).
fn apply_orch_action(
    world: &mut GridWorld,
    faults: &mut OrchFaults,
    peers: &[HostId],
    orch: &OrchestratorHandle,
    act: Action,
    changed: impl FnOnce(&mut GridWorld),
) {
    let o = match act {
        Action::OrchDown(o) | Action::OrchUp(o) | Action::OrchCut(o) | Action::OrchUncut(o) => {
            o as usize
        }
        _ => unreachable!("not an orchestrator action: {act:?}"),
    };
    if o >= faults.hosts.len() {
        return;
    }
    match act {
        Action::OrchDown(_) if !faults.offline[o] => {
            faults.offline[o] = true;
            world.net.set_online(faults.hosts[o], false);
        }
        Action::OrchUp(_) if faults.offline[o] => {
            faults.offline[o] = false;
            world.net.set_online(faults.hosts[o], true);
        }
        Action::OrchCut(_) => {
            faults.cuts[o] += 1;
            if faults.cuts[o] == 1 {
                faults.set_partitioned(world, peers, o, true);
            }
        }
        Action::OrchUncut(_) if faults.cuts[o] > 0 => {
            faults.cuts[o] -= 1;
            if faults.cuts[o] == 0 {
                faults.set_partitioned(world, peers, o, false);
            }
        }
        // The member is already in the state the fault asks for.
        _ => return,
    }
    if !faults.offline[o] && faults.cuts[o] == 0 {
        orch.set_member_up(&mut world.sim, &mut world.net, &mut world.p2p, o);
    } else {
        orch.set_member_down(&mut world.sim, &mut world.net, &mut world.p2p, o);
    }
    changed(world);
}

/// Static facts the farm driver needs to apply plan actions, plus the
/// orchestrator set's reachability bookkeeping.
pub struct FarmCtx {
    ctrl_host: HostId,
    worker_hosts: Vec<HostId>,
    module_blob: BlobId,
    module_len: u64,
    module_chunks: u32,
    orch: OrchFaults,
    /// Seed-derived stream for routing-table poisonings (`rtbl` faults).
    poison_rng: Pcg32,
}

fn apply_farm_action(
    world: &mut GridWorld,
    farm: &mut FarmScheduler,
    oracle: &FaultOracle,
    ctx: &mut FarmCtx,
    act: Action,
) {
    match act {
        Action::Down(w) => farm.handle(world, GridEvent::WorkerDown(WorkerId(w))),
        Action::Up(w) => farm.handle(world, GridEvent::WorkerUp(WorkerId(w))),
        Action::Cut(w) => {
            world
                .net
                .set_link_cut(ctx.ctrl_host, ctx.worker_hosts[w as usize], true);
        }
        Action::Uncut(w) => {
            world
                .net
                .set_link_cut(ctx.ctrl_host, ctx.worker_hosts[w as usize], false);
            // Link repairs are not grid events; nudge the queue so jobs
            // bounced off the severed route get rescheduled.
            farm.kick(world);
        }
        Action::DropWindow { until_ms, pct } => oracle.set_drop_window(ms_to_time(until_ms), pct),
        Action::DupWindow { until_ms, pct } => oracle.set_dup_window(ms_to_time(until_ms), pct),
        Action::DelayWindow {
            until_ms,
            pct,
            max_ms,
        } => oracle.set_delay_window(
            ms_to_time(until_ms),
            pct,
            Duration::from_millis(u64::from(max_ms)),
        ),
        Action::Corrupt(w) => {
            // No-op unless the blob is resident — exactly like real bit-rot.
            farm.worker_store_mut(WorkerId(w))
                .corrupt_chunk(ctx.module_blob, 0);
        }
        Action::Skew { worker, pct } => {
            farm.set_worker_efficiency(WorkerId(worker), f64::from(pct.max(5)) / 100.0);
        }
        Action::Lie(w) => {
            // Byzantine provider claim: advertise the module blob from a
            // worker that may not hold a single chunk of it. Swarm pulls
            // against it fail and must reroute to the controller.
            let provider = farm.worker_peer(WorkerId(w));
            let ad = Advertisement {
                body: AdvertBody::Blob(BlobAdvert {
                    blob: ctx.module_blob.0,
                    size_bytes: ctx.module_len,
                    chunks: ctx.module_chunks,
                    provider,
                }),
                expires: world.sim.now() + Duration::from_secs(3_600),
            };
            world
                .p2p
                .publish(&mut world.sim, &mut world.net, provider, ad);
        }
        Action::OrchDown(_) | Action::OrchUp(_) | Action::OrchCut(_) | Action::OrchUncut(_) => {
            let orch = farm.orchestrators().clone();
            let peers = &ctx.worker_hosts;
            apply_orch_action(world, &mut ctx.orch, peers, &orch, act, |w| {
                farm.on_orch_change(w);
            });
        }
        Action::Poison(w) => {
            // No-op outside routed mode (a flooding peer has no routing
            // table), exactly like Corrupt on a non-resident blob.
            let peer = farm.worker_peer(WorkerId(w));
            world.p2p.poison_routing_table(peer, &mut ctx.poison_rng);
        }
        Action::SuperDown(w) => {
            // Only fell the worker if its peer actually serves as a hot
            // rendezvous — the fault is about super-peer outage, not plain
            // worker churn (the Crash kind already covers that). Roles are
            // assigned at bootstrap and stable for the whole run, so the
            // matching SuperUp sees the same verdict.
            if world.p2p.is_rendezvous(farm.worker_peer(WorkerId(w))) {
                farm.handle(world, GridEvent::WorkerDown(WorkerId(w)));
            }
        }
        Action::SuperUp(w) => {
            if world.p2p.is_rendezvous(farm.worker_peer(WorkerId(w))) {
                farm.handle(world, GridEvent::WorkerUp(WorkerId(w)));
            }
        }
    }
}

/// Step the farm world to drain, interleaving plan actions at their due
/// times and auditing the blacklist after every handled event. Actions due
/// before the next sim event apply first; once the queue is empty the
/// remaining actions apply immediately (there is no natural event left to
/// wait for).
pub fn drive_farm(
    world: &mut GridWorld,
    farm: &mut FarmScheduler,
    rt: &mut PlanRuntime,
    oracle: &FaultOracle,
    ctx: &mut FarmCtx,
    violations: &mut Vec<Violation>,
) {
    let mut before: Vec<Option<WorkerId>> = (0..farm.n_jobs())
        .map(|j| farm.job_assignment(JobId(j as u64)))
        .collect();
    loop {
        let horizon_ms = world.sim.peek_time().map(|t| t.as_micros() / 1_000);
        while let Some(act) = rt.pop_due(horizon_ms) {
            apply_farm_action(world, farm, oracle, ctx, act);
        }
        match world.sim.step() {
            Some(GridEvent::P2p(pe)) => {
                for inc in world.p2p.handle(&mut world.sim, &mut world.net, pe) {
                    if let Incoming::Orch {
                        to,
                        seq,
                        count,
                        sync,
                    } = inc
                    {
                        farm.orch_deliver(to, seq, count, sync);
                    }
                }
            }
            Some(ev) => farm.handle(world, ev),
            None => {
                if rt.pending() {
                    continue; // actions beyond the last event still apply
                }
                break;
            }
        }
        check_blacklist_respected(farm, &before, violations);
        for (j, slot) in before.iter_mut().enumerate() {
            *slot = farm.job_assignment(JobId(j as u64));
        }
    }
}

/// Static facts and orchestrator reachability bookkeeping for the
/// pipeline driver (the pipeline analogue of [`FarmCtx`]).
pub struct PipeCtx {
    stage_hosts: Vec<HostId>,
    orch: OrchFaults,
}

/// Step the pipeline world to drain (same action protocol as
/// [`drive_farm`]; only churn, message chaos, and orchestrator faults
/// reach a pipeline).
pub fn drive_pipeline(
    world: &mut GridWorld,
    pl: &mut PipelineScheduler,
    rt: &mut PlanRuntime,
    oracle: &FaultOracle,
    ctx: &mut PipeCtx,
) {
    loop {
        let horizon_ms = world.sim.peek_time().map(|t| t.as_micros() / 1_000);
        while let Some(act) = rt.pop_due(horizon_ms) {
            match act {
                Action::Down(s) => pl.handle(
                    &mut world.sim,
                    &mut world.net,
                    &mut world.p2p,
                    GridEvent::WorkerDown(WorkerId(s)),
                ),
                Action::Up(s) => pl.handle(
                    &mut world.sim,
                    &mut world.net,
                    &mut world.p2p,
                    GridEvent::WorkerUp(WorkerId(s)),
                ),
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
                Action::OrchDown(_)
                | Action::OrchUp(_)
                | Action::OrchCut(_)
                | Action::OrchUncut(_) => {
                    let orch = pl.orchestrators().clone();
                    let peers = &ctx.stage_hosts;
                    apply_orch_action(world, &mut ctx.orch, peers, &orch, act, |w| {
                        pl.on_orch_change(&mut w.sim, &mut w.net, &mut w.p2p);
                    });
                }
                // Filtered out by PlanRuntime::new for pipelines.
                _ => unreachable!("farm-only action in a pipeline plan"),
            }
        }
        match world.sim.step() {
            Some(GridEvent::P2p(pe)) => {
                let incoming = world.p2p.handle(&mut world.sim, &mut world.net, pe);
                for inc in incoming {
                    pl.on_incoming(&mut world.sim, &mut world.net, &mut world.p2p, inc);
                }
            }
            Some(ev) => pl.handle(&mut world.sim, &mut world.net, &mut world.p2p, ev),
            None => {
                if rt.pending() {
                    continue;
                }
                break;
            }
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
/// countdown loop so Auto admission produces a tier-2 artifact and the
/// cache-integrity invariant's re-admission determinism check has
/// translated regions to bite on.
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

struct FarmWorld {
    world: GridWorld,
    farm: FarmScheduler,
    ctx: FarmCtx,
    obs: Obs,
    module_key: ModuleKey,
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

fn build_farm_world(seed: u64, oracle: &FaultOracle, use_orch: bool, routed: bool) -> FarmWorld {
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
    let cfg = FarmConfig {
        checkpoint: Some(CheckpointPolicy::every(Duration::from_secs(5), 2_000)),
        swarm: Some(SwarmConfig {
            chunk_bytes: 256,
            ..SwarmConfig::default()
        }),
        trust: Some(GridTrustConfig::adaptive()),
    };
    let mut orch_hosts = Vec::new();
    let mut farm = if use_orch {
        let (handle, hosts) = build_orch_set(&mut world, ctrl, ctrl_host, seed);
        handle.set_obs(obs.clone());
        orch_hosts = hosts;
        FarmScheduler::with_orchestrators(handle, cfg)
    } else {
        FarmScheduler::new(&world, ctrl, cfg)
    };
    farm.set_obs(obs.clone());
    let horizon = SimTime::from_secs(200_000);
    let mut worker_hosts = Vec::with_capacity(N_WORKERS);
    for i in 0..N_WORKERS {
        let spec = host(1.0 + i as f64 * 0.5);
        let (peer, h) = world.add_peer(spec.clone());
        worker_hosts.push(h);
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
    let module_blob = BlobId::of_blob(&blob);
    let layout = ChunkLayout::new(blob.len() as u64, 256);
    let module_len = blob.len() as u64;
    farm.library.publish(module_key.clone(), blob);
    FarmWorld {
        world,
        farm,
        ctx: FarmCtx {
            ctrl_host,
            worker_hosts,
            module_blob,
            module_len,
            module_chunks: layout.count(),
            orch: OrchFaults::new(orch_hosts),
            poison_rng: Pcg32::new(seed, 0x0007_B150),
        },
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
    let mut rt = PlanRuntime::new(&cfg.plan, Scenario::Farm);
    rt.schedule_churn(&mut fw.world.sim);
    let mut violations = Vec::new();
    drive_farm(
        &mut fw.world,
        &mut fw.farm,
        &mut rt,
        &oracle,
        &mut fw.ctx,
        &mut violations,
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
    let mut rt = PlanRuntime::new(&cfg.plan, Scenario::Voting);
    rt.schedule_churn(&mut fw.world.sim);
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
        drive_farm(
            &mut fw.world,
            &mut fw.farm,
            &mut rt,
            &oracle,
            &mut fw.ctx,
            &mut violations,
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
    let mode = if cfg.routed {
        // Pipelines take the lazy-bootstrap path: the overlay assembles
        // itself (neutral profiles) on the first publish or query.
        DiscoveryMode::Routed
    } else {
        DiscoveryMode::Flooding
    };
    let mut world = GridWorld::new(cfg.seed, mode);
    let obs = Obs::enabled();
    world.sim.set_tap(oracle.tap());
    world.p2p.set_obs(obs.clone());
    world.p2p.set_send_filter(oracle.send_filter());
    let (ctrl, ctrl_host) = world.add_peer(host(2.0));
    let (orch_set, orch_hosts) = if cfg.orch {
        let (handle, hosts) = build_orch_set(&mut world, ctrl, ctrl_host, cfg.seed);
        handle.set_obs(obs.clone());
        (Some(handle), hosts)
    } else {
        (None, Vec::new())
    };
    let mut stages = Vec::with_capacity(N_STAGES);
    let mut stage_hosts: Vec<HostId> = Vec::with_capacity(N_STAGES);
    for i in 0..N_STAGES {
        let spec = host(1.5 + i as f64 * 0.25);
        let (peer, h) = world.add_peer(spec.clone());
        stage_hosts.push(h);
        stages.push(StageSpec {
            peer,
            spec,
            work_gigacycles: 5.0,
        });
    }
    let mut pl = match orch_set {
        Some(handle) => PipelineScheduler::with_orchestrators(
            &mut world,
            handle,
            "chaos",
            stages,
            10_000,
            Vec::new(),
        ),
        None => PipelineScheduler::new(&mut world, ctrl, "chaos", stages, 10_000),
    };
    pl.set_obs(obs.clone());
    pl.emit_tokens(&mut world.sim, N_TOKENS, Duration::from_secs(1));
    let mut rt = PlanRuntime::new(&cfg.plan, Scenario::Pipeline);
    rt.schedule_churn(&mut world.sim);
    let mut ctx = PipeCtx {
        stage_hosts,
        orch: OrchFaults::new(orch_hosts),
    };
    drive_pipeline(&mut world, &mut pl, &mut rt, &oracle, &mut ctx);
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
    fn cache_integrity_holds_over_tiers_shared_between_workers() {
        // The farm's worker caches hand out one admitted tier per blob.
        // The integrity audit — hash agreement plus tier-2 re-admission —
        // must read the same on a shared tier as on a private one.
        let oracle = FaultOracle::new(3);
        let mut fw = build_farm_world(3, &oracle, false, false);
        for i in 0..N_JOBS {
            let spec = farm_job(i, &fw.module_key);
            fw.farm.submit(&mut fw.world, spec);
        }
        let mut rt = PlanRuntime::new(&FaultPlan::empty(), Scenario::Farm);
        let mut violations = Vec::new();
        drive_farm(
            &mut fw.world,
            &mut fw.farm,
            &mut rt,
            &oracle,
            &mut fw.ctx,
            &mut violations,
        );
        let tiers: Vec<_> = (0..fw.farm.n_workers() as u32)
            .filter_map(|w| {
                fw.farm
                    .worker_cache(WorkerId(w))
                    .prepared_of(&fw.module_key)
            })
            .collect();
        assert!(
            tiers.len() >= 2,
            "the module reached {} caches",
            tiers.len()
        );
        assert!(
            tiers.iter().all(|t| std::sync::Arc::ptr_eq(t, tiers[0])),
            "every cache of one farm holds the same admitted tier"
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
        let mut world = GridWorld::new(5, DiscoveryMode::Flooding);
        world.sim.set_tap(oracle.tap());
        let obs = Obs::enabled();
        world.p2p.set_obs(obs.clone());
        world.p2p.set_send_filter(oracle.send_filter());
        let (ctrl, ctrl_host) = world.add_peer(host(2.0));
        let cfg = FarmConfig {
            checkpoint: Some(CheckpointPolicy::every(Duration::from_secs(5), 2_000)),
            swarm: None,
            trust: None,
        };
        let mut farm = FarmScheduler::new(&world, ctrl, cfg);
        farm.set_obs(obs.clone());
        let spec = host(1.0);
        let (peer, worker_host) = world.add_peer(spec.clone());
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
        let mut rt = PlanRuntime::new(&plan, Scenario::Farm);
        rt.schedule_churn(&mut world.sim);
        let mut ctx = FarmCtx {
            ctrl_host,
            worker_hosts: vec![worker_host],
            module_blob: BlobId::of(&[]),
            module_len: 0,
            module_chunks: 0,
            orch: OrchFaults::new(Vec::new()),
            poison_rng: Pcg32::new(5, 0x0007_B150),
        };
        let mut violations = Vec::new();
        drive_farm(
            &mut world,
            &mut farm,
            &mut rt,
            &oracle,
            &mut ctx,
            &mut violations,
        );
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
        // The acceptance criterion for structured discovery under the
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
