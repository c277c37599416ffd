//! The `parallel` distribution policy: farm jobs out to volunteer peers.
//!
//! Implements the paper's Case 1/Case 2 execution model: a Triana
//! Controller holds a queue of independent jobs (animation frames, GW data
//! chunks); each job is shipped to an idle volunteer peer — module blob
//! first if the peer doesn't host the code yet (§3.3 on-demand download),
//! then input data — computed there, and the results returned. Volunteers
//! churn (connection lost, user intervenes, §3.6.2); interrupted jobs are
//! migrated and resume from their last checkpoint if a
//! [`CheckpointPolicy`] is configured.

use std::collections::{HashMap, VecDeque};

use netsim::avail::AvailabilityTrace;
use netsim::{Duration, HostId, HostSpec, Sim, SimTime};
use obs::Obs;
use orch::{Delta, OrchestratorHandle};
use p2p::{AdvertBody, Advertisement, BlobAdvert, PeerId, QueryId, QueryKind};
use store::{assign_round_robin, BlobId, ChunkStore, FetchTracker};

use resources::account::{BillingLedger, UsageRecord, VirtualAccount};
use trust::{Candidate, GridTrustConfig, PolicyHandle, ProfileRegistry};

use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::grid::slots::SlotTable;
use crate::grid::{ChunkSource, GridEvent, GridWorld, JobId, WorkerId, WorkerSetup};
use crate::modules::{ModuleCache, ModuleKey, ModuleLibrary, TierMemo};

/// One distributable unit of work.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Compute cost on the reference scale (gigacycles).
    pub work_gigacycles: f64,
    /// Input payload shipped controller → worker.
    pub input_bytes: u64,
    /// Result payload shipped worker → controller.
    pub output_bytes: u64,
    /// Code module required on the worker (fetched on demand).
    pub module: Option<ModuleKey>,
}

/// Scheduler configuration.
#[derive(Clone, Debug, Default)]
pub struct FarmConfig {
    /// Checkpoint/migration policy; `None` restarts interrupted jobs.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Peer-assisted module distribution; `None` keeps the classic
    /// controller-direct download of §3.3.
    pub swarm: Option<SwarmConfig>,
    /// Peer profiling and adaptive scheduling; `None` keeps the legacy
    /// memoryless fastest-advertised-clock dispatch (profiles are still
    /// collected so reports and redundancy can read them).
    pub trust: Option<GridTrustConfig>,
}

/// Settings for peer-assisted (swarm) module distribution: modules are
/// content-addressed, chunked, and pulled from other workers that already
/// hold them, offloading the controller's uplink.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Chunk size blobs are split into.
    pub chunk_bytes: u64,
    /// Flood TTL of provider-discovery queries.
    pub query_ttl: u8,
    /// How long a fetching worker collects provider hits before picking
    /// sources (or falling back to the controller).
    pub query_window: Duration,
    /// Pull chunks from at most this many providers in parallel.
    pub max_providers: usize,
    /// Lifetime of the provider adverts seeded workers publish.
    pub advert_ttl: Duration,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            chunk_bytes: 16 * 1024,
            query_ttl: 4,
            query_window: Duration::from_secs(2),
            max_providers: 4,
            advert_ttl: Duration::from_secs(86_400),
        }
    }
}

/// One in-flight swarm module fetch.
struct SwarmFetch {
    key: ModuleKey,
    query: QueryId,
    tracker: FetchTracker,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Pending,
    /// A primary copy is in flight (and perhaps a backup).
    Assigned,
    Done,
}

/// Which of a job's two possible copies an attempt is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// The copy dispatch placed; it migrates when its worker vanishes.
    Primary,
    /// A speculative duplicate racing a straggling primary on a second
    /// worker. First result home wins; the loser is abandoned and the
    /// compute it sank metered as waste.
    Backup,
}

/// How far one copy of a job has got: ship module and input, compute,
/// return. The copy occupies a slot on its worker until it reaches
/// `Returning`.
enum Phase {
    /// Module download in flight — `Some` once a swarm fetch has its provider
    /// query out, `None` for the controller-direct blob.
    Fetching(Option<SwarmFetch>),
    SendingInput,
    Running {
        started: SimTime,
        exec: Duration,
    },
    /// Result in flight. `stamp` names the owner it left the worker for;
    /// an orchestrator change in between makes the arrival stale.
    Returning {
        stamp: u64,
    },
}

impl Phase {
    fn holds_slot(&self) -> bool {
        !matches!(self, Phase::Returning { .. })
    }
}

/// One copy of a job on one worker.
struct Attempt {
    worker: WorkerId,
    /// The worker's epoch when the copy was seated. With `worker` it names
    /// this copy alone; the events in flight for the copy carry the pair,
    /// and find nothing once the copy is gone.
    epoch: u64,
    /// Work this copy covers: what the job's checkpoint did not when the
    /// copy was dispatched.
    gigacycles: f64,
    phase: Phase,
}

struct Job {
    spec: JobSpec,
    created: SimTime,
    completed: Option<SimTime>,
    /// Worker that produced the accepted result.
    completed_by: Option<WorkerId>,
    /// Jobs this one must not share a worker with (replica voting,
    /// SETI-style: redundant copies on distinct volunteers).
    conflicts: Vec<JobId>,
    state: JobState,
    /// Fraction of the work already checkpointed.
    fraction: f64,
    /// The copy responsible for the job; `Some` exactly while `Assigned`.
    primary: Option<Attempt>,
    /// Speculative duplicate on another worker (straggler mitigation);
    /// only ever alongside a primary.
    backup: Option<Attempt>,
    attempts: u32,
    /// Compute time lost to interruptions (beyond the checkpointed part).
    wasted: Duration,
}

impl Job {
    fn slot(&mut self, role: Role) -> &mut Option<Attempt> {
        match role {
            Role::Primary => &mut self.primary,
            Role::Backup => &mut self.backup,
        }
    }

    fn copies(&self) -> impl Iterator<Item = &Attempt> {
        self.primary.iter().chain(&self.backup)
    }

    /// The copy an in-flight event minted for `(wid, epoch)` belongs to —
    /// `None` once that copy is gone, as every copy seated on a worker is
    /// the moment the worker goes down. Each handler checks for itself that
    /// the copy is still in the phase its event was for.
    fn live(&mut self, wid: WorkerId, epoch: u64) -> Option<(Role, &mut Attempt)> {
        match (&mut self.primary, &mut self.backup) {
            (Some(a), _) if a.worker == wid && a.epoch == epoch => Some((Role::Primary, a)),
            (_, Some(a)) if a.worker == wid && a.epoch == epoch => Some((Role::Backup, a)),
            _ => None,
        }
    }

    /// The primary's worker and seat epoch and the swarm fetch it is in the
    /// middle of, if any. Only a primary fetches: a backup's module rides
    /// with its input.
    fn swarm(&mut self) -> Option<(WorkerId, u64, &mut SwarmFetch)> {
        let a = self.primary.as_mut()?;
        match &mut a.phase {
            Phase::Fetching(Some(fetch)) => Some((a.worker, a.epoch, fetch)),
            _ => None,
        }
    }
}

struct Worker {
    peer: PeerId,
    host: HostId,
    spec: HostSpec,
    /// Bumped every time a copy is seated here, so no two copies share a
    /// `(worker, epoch)`: events left in flight by an abandoned copy can
    /// never be taken for those of a later one.
    epoch: u64,
    /// Jobs with a copy occupying a slot here (anything before
    /// `Returning`) — what migrates or dies if the worker vanishes.
    attempts: Vec<JobId>,
    /// Fraction of the advertised clock actually delivered (1.0 = honest
    /// advert). Models the paper's §3.7 gap between a peer's advertised
    /// "machine type, speed" and the computational bandwidth it reaches —
    /// only runtime profiling can see through it.
    efficiency: f64,
    cache: ModuleCache,
    /// Reusable execution state for running resident modules: the verify-
    /// once / allocate-once half of the prepared-execution pipeline lives
    /// in the cache, the per-run scratch lives here.
    ctx: tvm::ExecContext,
    /// Chunks of content-addressed blobs this worker holds and can serve
    /// to swarm-fetching peers.
    store: ChunkStore,
    jobs_completed: u64,
    /// Usage metered against the controller's virtual account (§2:
    /// "billing information for resources used").
    ledger: BillingLedger,
}

impl Worker {
    /// Simulated execution time of `gigacycles` here, including the
    /// (hidden) efficiency factor.
    fn exec_time(&self, gigacycles: f64) -> Duration {
        let base = self.spec.exec_time(gigacycles);
        if self.efficiency == 1.0 {
            base
        } else {
            Duration::from_secs_f64(base.as_secs_f64() / self.efficiency)
        }
    }
}

/// Aggregate outcome of a farm run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FarmStats {
    pub jobs_done: u64,
    pub jobs_total: u64,
    /// Last completion instant.
    pub makespan: SimTime,
    /// Sum of per-job (completed - created).
    pub total_latency: Duration,
    /// Max per-job latency (the "lag" of Case 2).
    pub max_latency: Duration,
    /// Compute time lost to churn.
    pub wasted: Duration,
    /// Total (re)assignments.
    pub attempts: u64,
    /// Speculative duplicates launched against stragglers.
    pub spec_dispatches: u64,
    /// Speculative duplicates that beat their primary.
    pub spec_wins: u64,
}

/// Outcome of executing a cache-resident module: the output ports and
/// retired-instruction stats on success, the sandbox/runtime error otherwise.
pub type ResidentExec = Result<(Vec<Vec<f64>>, tvm::ExecStats), tvm::TvmError>;

/// The Triana Controller's farm scheduler.
///
/// Runs either classically (one controller, [`FarmScheduler::new`]) or
/// decentralised ([`FarmScheduler::with_orchestrators`]): the task graph is
/// partitioned across an orchestrator set, each job's data plane (input,
/// module, result) is served by its owning orchestrator, and dispatch-table
/// changes are replicated so a surviving orchestrator can take over
/// mid-farm.
pub struct FarmScheduler {
    orch: OrchestratorHandle,
    /// An anti-entropy tick is scheduled and will re-arm itself.
    tick_armed: bool,
    cfg: FarmConfig,
    workers: Vec<Worker>,
    /// Availability and slot occupancy per worker, and the open set
    /// dispatch draws candidates from.
    slots: SlotTable,
    jobs: Vec<Job>,
    /// Jobs in `JobState::Done`.
    done: usize,
    pending: VecDeque<JobId>,
    /// Module blobs owned by the controller ("the client … pipes modules,
    /// programs and data to the other required Triana service daemons").
    pub library: ModuleLibrary,
    /// Job spec used for streaming chunk arrivals (Case 2).
    pub chunk_spec: Option<JobSpec>,
    /// The submitting user's virtual account, billed on every worker.
    pub account: VirtualAccount,
    /// Reverse map for serving swarm chunks out of a provider's store.
    peer_workers: HashMap<PeerId, WorkerId>,
    /// Learned per-worker runtime, availability, and trust estimates.
    profiles: ProfileRegistry,
    /// Worker-selection policy resolved from `cfg.trust` at construction.
    policy: PolicyHandle,
    /// Module admissions already performed in this world, shared by every
    /// worker cache so one blob is verified and translated once.
    tier_memo: TierMemo,
    spec_dispatches: u64,
    spec_wins: u64,
    obs: Obs,
}

impl FarmScheduler {
    /// Classic single-controller farm: a one-member orchestrator set,
    /// behaviourally identical to the pre-decentralisation scheduler.
    pub fn new(world: &GridWorld, controller: PeerId, cfg: FarmConfig) -> Self {
        let orch = OrchestratorHandle::single(controller, world.p2p.host_of(controller));
        FarmScheduler::with_orchestrators(orch, cfg)
    }

    /// Decentralised farm: the handle's members partition ownership of the
    /// submitted jobs and replicate scheduler state between themselves.
    pub fn with_orchestrators(orch: OrchestratorHandle, cfg: FarmConfig) -> Self {
        let tcfg = cfg.trust.clone().unwrap_or_default();
        FarmScheduler {
            orch,
            tick_armed: false,
            cfg,
            workers: Vec::new(),
            slots: SlotTable::default(),
            jobs: Vec::new(),
            done: 0,
            pending: VecDeque::new(),
            library: ModuleLibrary::new(),
            chunk_spec: None,
            account: VirtualAccount("controller".to_string()),
            peer_workers: HashMap::new(),
            profiles: ProfileRegistry::new(tcfg.profile),
            policy: tcfg.policy,
            tier_memo: TierMemo::default(),
            spec_dispatches: 0,
            spec_wins: 0,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle; dispatches, retries, completions,
    /// module-cache traffic (including prepared-module metering) and worker
    /// churn are recorded through it.
    pub fn set_obs(&mut self, obs: Obs) {
        for w in &mut self.workers {
            w.cache.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Set the fraction of its advertised clock a worker actually delivers
    /// (1.0 = honest advert). The scheduler never reads this directly —
    /// it only shapes simulated execution times, which the profile layer
    /// then learns from.
    pub fn set_worker_efficiency(&mut self, wid: WorkerId, efficiency: f64) {
        assert!(efficiency > 0.0);
        self.workers[wid.0 as usize].efficiency = efficiency;
    }

    /// Learned per-worker profiles (runtime, availability, trust).
    pub fn profiles(&self) -> &ProfileRegistry {
        &self.profiles
    }

    /// Mutable profile access for verification layers feeding vote
    /// evidence back into the scheduler (see [`crate::grid::redundancy`]).
    pub fn profiles_mut(&mut self) -> &mut ProfileRegistry {
        &mut self.profiles
    }

    /// Feed a verification verdict for a worker into its profile and
    /// refresh the blacklist gauge.
    pub fn record_vote(&mut self, wid: WorkerId, agreed: bool) {
        self.profiles.record_vote(wid.0, agreed);
        self.obs.incr(if agreed {
            "trust.votes_agreed"
        } else {
            "trust.votes_dissented"
        });
        self.refresh_blacklist_gauge();
    }

    /// Name of the active worker-selection policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Is this worker currently excluded by the blacklist floor?
    pub fn worker_blacklisted(&self, wid: WorkerId) -> bool {
        self.cfg
            .trust
            .as_ref()
            .and_then(|t| t.blacklist.as_ref())
            .is_some_and(|bl| self.profiles.blacklisted(wid.0, bl))
    }

    fn refresh_blacklist_gauge(&mut self) {
        if let Some(bl) = self.cfg.trust.as_ref().and_then(|t| t.blacklist.as_ref()) {
            self.obs.gauge(
                "trust.blacklisted",
                self.profiles.blacklisted_count(bl) as i64,
            );
        }
    }

    /// Host whose uplink serves `job`'s data plane (input, module blob,
    /// result): the owning orchestrator, i.e. the controller in single
    /// mode.
    fn owner_host(&self, job: JobId) -> HostId {
        self.orch.owner_host(job.0)
    }

    /// Replicate a scheduler-state change across the orchestrator set.
    fn record_delta(&mut self, world: &mut GridWorld, d: Delta) {
        self.orch
            .record(&mut world.sim, &mut world.net, &mut world.p2p, d);
    }

    /// Enrol a single-slot worker (an ordinary volunteer PC).
    pub fn add_worker(&mut self, world: &mut GridWorld, setup: WorkerSetup) -> WorkerId {
        self.add_worker_with_capacity(world, setup, 1)
    }

    /// Enrol a worker with `capacity` concurrent job slots — the gateway
    /// case of §3.1: a Triana peer fronting "parallel machines or
    /// workstations clusters" through its local resource manager.
    pub fn add_worker_with_capacity(
        &mut self,
        world: &mut GridWorld,
        setup: WorkerSetup,
        capacity: u32,
    ) -> WorkerId {
        assert!(capacity >= 1);
        let host = world.p2p.host_of(setup.peer);
        let up = setup.trace.is_up(SimTime::ZERO);
        let id = self.slots.push(up, capacity);
        world.net.set_online(host, up);
        schedule_transitions(&mut world.sim, id, &setup.trace);
        let chunk_bytes = self.cfg.swarm.as_ref().map_or(16 * 1024, |s| s.chunk_bytes);
        self.peer_workers.insert(setup.peer, id);
        self.profiles.register(id.0, setup.spec.cpu_ghz, up);
        let mut cache = ModuleCache::with_memo(setup.cache_bytes, self.tier_memo.clone());
        cache.set_obs(self.obs.clone());
        self.workers.push(Worker {
            peer: setup.peer,
            host,
            spec: setup.spec,
            epoch: 0,
            attempts: Vec::new(),
            efficiency: 1.0,
            cache,
            store: ChunkStore::new(chunk_bytes),
            jobs_completed: 0,
            ctx: tvm::ExecContext::new(),
            ledger: BillingLedger::new(),
        });
        id
    }

    /// Queue a job and try to place it.
    pub fn submit(&mut self, world: &mut GridWorld, spec: JobSpec) -> JobId {
        self.submit_with_conflicts(world, spec, Vec::new())
    }

    /// Queue a job that must never run on a worker hosting (or having
    /// completed) any of the `conflicts` jobs — the placement constraint
    /// behind redundant result verification. The relation is symmetric:
    /// each conflicting job also learns about this one, so a replica
    /// requeued by a crash can never re-land on a worker already holding
    /// (or having completed) a sibling — one bad volunteer must not get
    /// two votes on the same unit.
    pub fn submit_with_conflicts(
        &mut self,
        world: &mut GridWorld,
        spec: JobSpec,
        conflicts: Vec<JobId>,
    ) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        for &cj in &conflicts {
            self.jobs[cj.0 as usize].conflicts.push(id);
        }
        self.jobs.push(Job {
            spec,
            created: world.sim.now(),
            completed: None,
            completed_by: None,
            conflicts,
            state: JobState::Pending,
            fraction: 0.0,
            primary: None,
            backup: None,
            attempts: 0,
            wasted: Duration::ZERO,
        });
        // Partition: the best-scoring reachable orchestrator owns this
        // unit's data plane (a no-op choice in single-controller mode).
        self.orch
            .assign_owner(&mut world.sim, &mut world.net, &mut world.p2p, id.0);
        self.arm_tick(world);
        self.pending.push_back(id);
        self.dispatch(world);
        debug_assert!(self.indexes_consistent());
        id
    }

    /// Schedule the first anti-entropy tick of a multi-orchestrator run;
    /// the tick re-arms itself until the farm quiesces converged.
    fn arm_tick(&mut self, world: &mut GridWorld) {
        if self.tick_armed || self.orch.is_single() {
            return;
        }
        self.tick_armed = true;
        world
            .sim
            .schedule(self.orch.anti_entropy_interval(), GridEvent::OrchTick);
    }

    /// May `job` run on `wid` given its conflict set?
    fn eligible(&self, job_id: JobId, wid: WorkerId) -> bool {
        self.jobs[job_id.0 as usize].conflicts.iter().all(|&cj| {
            let c = &self.jobs[cj.0 as usize];
            c.completed_by != Some(wid) && c.copies().all(|a| a.worker != wid)
        })
    }

    /// Schedule `count` streaming chunk arrivals spaced `interval` apart
    /// (Case 2: a 900 s data chunk arrives every 900 s). Requires
    /// `chunk_spec` to be set before the first arrival fires.
    pub fn schedule_chunks(&mut self, sim: &mut Sim<GridEvent>, interval: Duration, count: u64) {
        for seq in 0..count {
            sim.schedule(interval * (seq + 1), GridEvent::ChunkArrives { seq });
        }
    }

    /// The open, trusted workers in worker-id order (so every policy sees
    /// a deterministic candidate list): the candidates of any job without
    /// a conflict set, and a superset of every other job's.
    fn open_candidates(&self) -> Vec<Candidate> {
        self.slots
            .open()
            .filter(|&wid| !self.worker_blacklisted(wid))
            .map(|wid| Candidate {
                worker: wid.0,
                cpu_ghz: self.workers[wid.0 as usize].spec.cpu_ghz,
            })
            .collect()
    }

    /// Remaining work of a job on the reference scale.
    fn remaining_gigacycles(&self, job_id: JobId) -> f64 {
        let j = &self.jobs[job_id.0 as usize];
        j.spec.work_gigacycles * (1.0 - j.fraction)
    }

    /// The next (queue index, worker) pairing: FIFO over pending jobs,
    /// skipping `bounced` ones and jobs whose conflict set rules out every
    /// open worker; the configured policy picks among the eligible open
    /// workers (the legacy default takes the fastest advertised clock,
    /// §3.7).
    fn next_pick(&self, bounced: &[JobId]) -> Option<(usize, WorkerId)> {
        if self.pending.is_empty() || !self.slots.any_open() {
            return None;
        }
        let open = self.open_candidates();
        if open.is_empty() {
            return None;
        }
        let mut narrowed = Vec::new();
        for (qi, &job_id) in self.pending.iter().enumerate() {
            if bounced.contains(&job_id) {
                continue;
            }
            let cands: &[Candidate] = if self.jobs[job_id.0 as usize].conflicts.is_empty() {
                &open
            } else {
                narrowed.clear();
                narrowed.extend(
                    open.iter()
                        .filter(|c| self.eligible(job_id, WorkerId(c.worker))),
                );
                &narrowed
            };
            if cands.is_empty() {
                continue;
            }
            let work = self.remaining_gigacycles(job_id);
            if let Some(ci) = self.policy.choose(work, cands, &self.profiles) {
                return Some((qi, WorkerId(cands[ci].worker)));
            }
        }
        None
    }

    fn dispatch(&mut self, world: &mut GridWorld) {
        // Jobs whose assignment bounced straight back to the queue (the
        // path to the chosen worker is severed, so the very first transfer
        // failed synchronously): skip them for the rest of this pass, or
        // the deterministic policy would pick the same pairing forever.
        let mut bounced: Vec<JobId> = Vec::new();
        loop {
            let pick = self.next_pick(&bounced);
            #[cfg(test)]
            assert_eq!(pick, self.naive_pick(&bounced), "dispatch index diverged");
            let Some((qi, wid)) = pick else {
                return;
            };
            let job_id = self.pending.remove(qi).expect("index from scan");
            self.assign(world, job_id, wid);
            if self.jobs[job_id.0 as usize].state == JobState::Pending {
                bounced.push(job_id);
            }
        }
    }

    /// Reference for [`Self::open_candidates`] plus conflict narrowing:
    /// the candidates of one job found by checking every enrolled worker.
    /// `exclude` drops one worker — the straggling primary when picking a
    /// speculative backup.
    #[cfg(test)]
    fn naive_candidates(&self, job_id: JobId, exclude: Option<WorkerId>) -> Vec<Candidate> {
        (0..self.workers.len() as u32)
            .map(WorkerId)
            .filter(|&wid| {
                let open = self.slots.is_up(wid)
                    && self.slots.active(wid) < self.slots.capacity(wid)
                    && Some(wid) != exclude;
                open && !self.worker_blacklisted(wid) && self.eligible(job_id, wid)
            })
            .map(|wid| Candidate {
                worker: wid.0,
                cpu_ghz: self.workers[wid.0 as usize].spec.cpu_ghz,
            })
            .collect()
    }

    /// Reference for [`Self::next_pick`]: the `pending × workers` scan the
    /// scheduler ran before it kept the open set as state.
    #[cfg(test)]
    fn naive_pick(&self, bounced: &[JobId]) -> Option<(usize, WorkerId)> {
        for (qi, &job_id) in self.pending.iter().enumerate() {
            if bounced.contains(&job_id) {
                continue;
            }
            let cands = self.naive_candidates(job_id, None);
            if cands.is_empty() {
                continue;
            }
            let work = self.remaining_gigacycles(job_id);
            if let Some(ci) = self.policy.choose(work, &cands, &self.profiles) {
                return Some((qi, WorkerId(cands[ci].worker)));
            }
        }
        None
    }

    /// Re-run the dispatch scan. Queue drains are normally triggered by
    /// grid events (worker churn, completions), but external connectivity
    /// repairs — e.g. a severed controller↔worker route healing — are not
    /// events the farm sees, so whoever restores the route must nudge the
    /// queue.
    pub fn kick(&mut self, world: &mut GridWorld) {
        self.dispatch(world);
        debug_assert!(self.indexes_consistent());
    }

    /// Seat a new copy of `job` on `wid`: take a slot there and file the
    /// copy with the job and the worker. The caller's next step — a module
    /// fetch or `send_input` — says what phase the copy is in.
    fn start_attempt(&mut self, job: JobId, role: Role, wid: WorkerId) {
        let gigacycles = self.remaining_gigacycles(job);
        self.slots.take(wid);
        let w = &mut self.workers[wid.0 as usize];
        w.epoch += 1;
        w.attempts.push(job);
        let j = &mut self.jobs[job.0 as usize];
        j.attempts += 1;
        *j.slot(role) = Some(Attempt {
            worker: wid,
            epoch: w.epoch,
            gigacycles,
            phase: Phase::SendingInput,
        });
    }

    /// Move `role`'s copy of `job` to `phase` and name its worker and seat
    /// epoch for the event that will end the phase; `None` if an earlier
    /// step of the same handler already lost the copy.
    fn enter(&mut self, job: JobId, role: Role, phase: Phase) -> Option<(WorkerId, u64)> {
        let a = self.jobs[job.0 as usize].slot(role).as_mut()?;
        a.phase = phase;
        Some((a.worker, a.epoch))
    }

    fn assign(&mut self, world: &mut GridWorld, job_id: JobId, wid: WorkerId) {
        let module_key = self.jobs[job_id.0 as usize].spec.module.clone();
        // `get` (not `contains`) so cache hit/miss statistics are metered.
        let needs_module = match &module_key {
            Some(key) => self.workers[wid.0 as usize].cache.get(key).is_none(),
            None => false,
        };
        if module_key.is_some() {
            self.obs.incr(if needs_module {
                "farm.module_cache_misses"
            } else {
                "farm.module_cache_hits"
            });
        }
        self.obs.incr("farm.dispatches");
        self.obs
            .event(world.sim.now().as_micros(), "farm.dispatch", || {
                format!("job={} worker={}", job_id.0, wid.0)
            });
        self.record_delta(
            world,
            Delta::Dispatch {
                job: job_id.0,
                worker: wid.0,
            },
        );
        self.jobs[job_id.0 as usize].state = JobState::Assigned;
        self.start_attempt(job_id, Role::Primary, wid);
        if self.jobs[job_id.0 as usize].attempts > 1 {
            self.obs.incr("farm.retries");
        }
        if needs_module {
            let key = module_key.expect("checked above");
            if self.cfg.swarm.is_some() {
                self.swarm_fetch(world, job_id, key);
            } else {
                self.direct_fetch(world, job_id, key);
            }
        } else {
            self.send_input(world, job_id, Role::Primary);
        }
    }

    /// Classic §3.3 module download: the controller ships the whole blob.
    /// Also the swarm's fallback when discovery finds no provider or
    /// verification rejects the assembled bytes (whatever swarm state the
    /// primary had is dropped here).
    fn direct_fetch(&mut self, world: &mut GridWorld, job_id: JobId, key: ModuleKey) {
        let Some((wid, epoch)) = self.enter(job_id, Role::Primary, Phase::Fetching(None)) else {
            return;
        };
        let bytes = self
            .library
            .fetch(&key)
            .map(|b| b.len() as u64)
            .unwrap_or(0);
        self.obs.add("farm.module_bytes_sent", bytes);
        let dst = self.workers[wid.0 as usize].host;
        let src = self.owner_host(job_id);
        match world.net.transfer(world.sim.now(), src, dst, bytes) {
            Ok(delay) => world.sim.schedule(
                delay,
                GridEvent::ModuleArrived {
                    job: job_id,
                    worker: wid,
                    key,
                    epoch,
                },
            ),
            Err(_) => self.attempt_failed(world, job_id, Role::Primary),
        }
    }

    /// Start a peer-assisted fetch: discover providers of the module's
    /// content hash over the overlay, then pull chunks in parallel once
    /// the discovery window closes.
    fn swarm_fetch(&mut self, world: &mut GridWorld, job_id: JobId, key: ModuleKey) {
        let Some((wid, epoch)) = self.enter(job_id, Role::Primary, Phase::Fetching(None)) else {
            return;
        };
        let sw = self.cfg.swarm.clone().expect("swarm fetch implies config");
        let (id, blob_len) = match self.library.fetch(&key) {
            Some(b) => (BlobId::of_blob(b), b.len() as u64),
            // Unknown module: keep the classic path's zero-byte transfer.
            None => return self.direct_fetch(world, job_id, key),
        };
        // The worker may already hold every chunk (seeded by an earlier
        // job, then evicted from the LRU cache): rebuild locally for free.
        let w = &mut self.workers[wid.0 as usize];
        if w.store.is_complete(id) {
            if let Ok(rebuilt) = w.store.assemble(id) {
                w.cache.insert(key, rebuilt);
                self.obs.incr("store.local_rebuilds");
                return self.send_input(world, job_id, Role::Primary);
            }
            // Resident chunks are corrupt: drop them and fetch afresh.
            w.store.release(id);
        }
        let layout = w.store.layout_for(blob_len);
        let origin = w.peer;
        self.obs.incr("store.swarm_fetches");
        let query = world.p2p.query(
            &mut world.sim,
            &mut world.net,
            origin,
            QueryKind::ByBlob { hash: id.0 },
            sw.query_ttl,
        );
        world.sim.schedule(
            sw.query_window,
            GridEvent::SwarmProvidersDue {
                job: job_id,
                worker: wid,
                epoch,
            },
        );
        let fetch = SwarmFetch {
            key,
            query,
            tracker: FetchTracker::new(id, layout),
        };
        self.enter(job_id, Role::Primary, Phase::Fetching(Some(fetch)));
    }

    /// Request one chunk over the simulated network. Provider failures
    /// reroute the chunk to the controller (which is always online). Does
    /// nothing once the fetch is gone: an earlier chunk of the same round
    /// may have failed and sent the job back to the queue.
    fn request_chunk(
        &mut self,
        world: &mut GridWorld,
        job: JobId,
        chunk: u32,
        source: ChunkSource,
    ) {
        let Some((wid, epoch, fetch)) = self.jobs[job.0 as usize].swarm() else {
            return;
        };
        let bytes = fetch.tracker.layout().size(chunk);
        let src_host = match source {
            ChunkSource::Controller => self.orch.owner_host(job.0),
            ChunkSource::Peer(p) => world.p2p.host_of(p),
        };
        let dst = self.workers[wid.0 as usize].host;
        match world.net.transfer(world.sim.now(), src_host, dst, bytes) {
            Ok(delay) => {
                fetch.tracker.request(chunk, world.sim.now());
                world.sim.schedule(
                    delay,
                    GridEvent::SwarmChunkArrived {
                        job,
                        worker: wid,
                        epoch,
                        chunk,
                        source,
                    },
                );
            }
            Err(_) => match source {
                // Provider went offline between discovery and pull.
                ChunkSource::Peer(_) => {
                    self.obs.incr("store.chunk_reroutes");
                    self.request_chunk(world, job, chunk, ChunkSource::Controller);
                }
                // Controller transfers only fail if the worker itself
                // vanished in this instant — treat as interrupt.
                ChunkSource::Controller => self.attempt_failed(world, job, Role::Primary),
            },
        }
    }

    /// All chunks arrived: reassemble, verify the content hash, and only
    /// then admit the blob to the worker's module cache. A verification
    /// failure discards the chunks and falls back to the controller.
    fn swarm_assembled(
        &mut self,
        world: &mut GridWorld,
        job: JobId,
        wid: WorkerId,
        blob_id: BlobId,
        key: ModuleKey,
    ) {
        let now = world.sim.now();
        let w = &mut self.workers[wid.0 as usize];
        match w.store.assemble(blob_id) {
            Ok(blob) => {
                w.cache.insert(key, blob);
                self.obs.incr("store.blobs_verified");
                self.advertise_provider(world, wid, blob_id);
                self.send_input(world, job, Role::Primary);
            }
            Err(_) => {
                // Corrupt or poisoned transfer: the blob never reaches the
                // module cache. Drop the chunks, count the rejection, and
                // fetch the authoritative copy from the controller.
                w.store.release(blob_id);
                self.obs.incr("store.verify_failures");
                self.obs.event(now.as_micros(), "store.verify_failure", || {
                    format!("job={} worker={} blob={}", job.0, wid.0, blob_id)
                });
                self.direct_fetch(world, job, key);
            }
        }
    }

    /// Publish a provider advert for a blob this worker now fully holds.
    fn advertise_provider(&mut self, world: &mut GridWorld, wid: WorkerId, blob: BlobId) {
        let Some(sw) = self.cfg.swarm.clone() else {
            return;
        };
        let w = &self.workers[wid.0 as usize];
        let Some(layout) = w.store.layout_of(blob) else {
            return;
        };
        let peer = w.peer;
        let ad = Advertisement {
            body: AdvertBody::Blob(BlobAdvert {
                blob: blob.0,
                size_bytes: layout.blob_len,
                chunks: layout.count(),
                provider: peer,
            }),
            expires: world.sim.now() + sw.advert_ttl,
        };
        world.p2p.publish(&mut world.sim, &mut world.net, peer, ad);
        self.obs.incr("store.seed_adverts");
    }

    fn send_input(&mut self, world: &mut GridWorld, job_id: JobId, role: Role) {
        let Some((wid, epoch)) = self.enter(job_id, role, Phase::SendingInput) else {
            return;
        };
        let job = &self.jobs[job_id.0 as usize];
        let mut bytes = job.spec.input_bytes;
        match role {
            // A resumed job also ships its checkpoint image.
            Role::Primary => {
                if job.fraction > 0.0 {
                    if let Some(cp) = &self.cfg.checkpoint {
                        bytes += cp.image_bytes;
                    }
                }
            }
            // Speculation is latency-critical: a module the backup lacks
            // rides along controller-direct, no fetch phase, no swarm.
            Role::Backup => {
                if let Some(key) = &job.spec.module {
                    if self.workers[wid.0 as usize].cache.get(key).is_none() {
                        let blob_len = self.library.fetch(key).map_or(0, |b| b.len() as u64);
                        self.obs.add("farm.module_bytes_sent", blob_len);
                        bytes += blob_len;
                    }
                }
            }
        }
        let dst = self.workers[wid.0 as usize].host;
        let src = self.owner_host(job_id);
        match world.net.transfer(world.sim.now(), src, dst, bytes) {
            Ok(delay) => world.sim.schedule(
                delay,
                GridEvent::InputArrived {
                    job: job_id,
                    worker: wid,
                    epoch,
                },
            ),
            Err(_) => self.attempt_failed(world, job_id, role),
        }
    }

    /// `job`'s copy on `wid` stops occupying a slot there: it finished
    /// computing or was abandoned.
    fn release_slot(&mut self, job: JobId, wid: WorkerId) {
        self.slots.free(wid);
        self.workers[wid.0 as usize].attempts.retain(|&j| j != job);
    }

    /// Compute sunk into a copy whose result nobody will use.
    fn meter_sunk(&mut self, job: JobId, sunk: Duration) {
        self.jobs[job.0 as usize].wasted += sunk;
        self.obs
            .add("trust.speculative_wasted_us", sunk.as_micros());
    }

    /// Give up `role`'s copy of `job`, if there is one: the job was
    /// requeued, the other copy won the race, or the copy's worker
    /// vanished. Frees the slot the copy still holds and meters the compute
    /// it sank; a worker that went down had its slots reset already, and
    /// what ran there is accounted by `worker_down`.
    fn abandon(&mut self, now: SimTime, job: JobId, role: Role) -> bool {
        let Some(a) = self.jobs[job.0 as usize].slot(role).take() else {
            return false;
        };
        if role == Role::Backup {
            self.obs.incr("trust.speculative_cancelled");
        }
        if self.slots.is_up(a.worker) && a.phase.holds_slot() {
            if let Phase::Running { started, .. } = a.phase {
                self.meter_sunk(job, now.since(started));
            }
            self.release_slot(job, a.worker);
        }
        true
    }

    /// Put a job back in the queue, abandoning every copy of it in flight.
    /// The only way a job returns to `Pending`, so nothing can still
    /// complete a job that is waiting to be dispatched. `counter` says
    /// why: `farm.requeues` or `farm.migrations`.
    fn requeue(&mut self, world: &mut GridWorld, job_id: JobId, counter: &'static str) {
        let now = world.sim.now();
        self.abandon(now, job_id, Role::Backup);
        self.abandon(now, job_id, Role::Primary);
        self.jobs[job_id.0 as usize].state = JobState::Pending;
        self.pending.push_back(job_id);
        self.obs.incr(counter);
        self.record_delta(world, Delta::Requeue { job: job_id.0 });
    }

    /// A transfer to or from a copy's worker failed on the spot: the
    /// worker, the owner or the route between them vanished in this very
    /// instant. A primary is interrupted like any other; a backup is just
    /// dropped — its primary is still running.
    fn attempt_failed(&mut self, world: &mut GridWorld, job: JobId, role: Role) {
        match role {
            Role::Primary => self.requeue(world, job, "farm.requeues"),
            Role::Backup => {
                self.abandon(world.sim.now(), job, role);
            }
        }
    }

    /// Main event handler. `GridEvent::P2p` must be routed to the overlay
    /// by the caller; everything else belongs here.
    pub fn handle(&mut self, world: &mut GridWorld, ev: GridEvent) {
        self.on_event(world, ev);
        debug_assert!(self.indexes_consistent());
    }

    fn on_event(&mut self, world: &mut GridWorld, ev: GridEvent) {
        match ev {
            GridEvent::WorkerUp(wid) => {
                if self.slots.is_up(wid) {
                    // Duplicate up-event for a live worker: `set_up` would
                    // empty the slots its in-flight copies hold, so it must
                    // be a no-op.
                    return;
                }
                self.slots.set_up(wid, true);
                let w = &self.workers[wid.0 as usize];
                debug_assert!(w.attempts.is_empty());
                world.net.set_online(w.host, true);
                self.profiles.mark_up(wid.0, world.sim.now());
                self.obs.incr("farm.worker_up");
                self.obs
                    .event(world.sim.now().as_micros(), "farm.worker_up", || {
                        format!("worker={}", wid.0)
                    });
                self.dispatch(world);
            }
            GridEvent::WorkerDown(wid) => {
                if !self.slots.is_up(wid) {
                    // Duplicate down-event: already handled.
                    return;
                }
                self.obs.incr("farm.worker_down");
                self.obs
                    .event(world.sim.now().as_micros(), "farm.worker_down", || {
                        format!("worker={}", wid.0)
                    });
                self.worker_down(world, wid);
                self.dispatch(world);
            }
            GridEvent::ModuleArrived {
                job,
                worker,
                key,
                epoch,
            } => {
                let live = self.jobs[job.0 as usize].live(worker, epoch);
                if !live.is_some_and(|(_, a)| matches!(a.phase, Phase::Fetching(_))) {
                    return;
                }
                if let Some(blob) = self.library.fetch(&key) {
                    let blob = blob.clone();
                    let w = &mut self.workers[worker.0 as usize];
                    w.cache.insert(key, blob.clone());
                    // With the swarm on, a controller-fed worker becomes a
                    // seed: it chunks the blob and advertises itself.
                    if self.cfg.swarm.is_some() {
                        let id = w.store.seed_blob(&blob);
                        self.advertise_provider(world, worker, id);
                    }
                }
                self.send_input(world, job, Role::Primary);
            }
            GridEvent::SwarmProvidersDue { job, worker, epoch } => {
                if self.jobs[job.0 as usize].live(worker, epoch).is_some() {
                    self.swarm_providers_due(world, job);
                }
            }
            GridEvent::SwarmChunkArrived {
                job,
                worker,
                epoch,
                chunk,
                source,
            } => {
                if self.jobs[job.0 as usize].live(worker, epoch).is_some() {
                    self.swarm_chunk_arrived(world, job, chunk, source);
                }
            }
            GridEvent::InputArrived { job, worker, epoch } => {
                self.input_arrived(world, job, worker, epoch);
            }
            GridEvent::ComputeDone { job, worker, epoch } => {
                self.compute_done(world, job, worker, epoch);
            }
            GridEvent::OutputArrived {
                job,
                worker,
                epoch,
                orch,
            } => self.output_arrived(world, job, worker, epoch, orch),
            GridEvent::ChunkArrives { .. } => {
                if let Some(spec) = self.chunk_spec.clone() {
                    self.submit(world, spec);
                }
            }
            GridEvent::OrchTick => {
                let converged =
                    self.orch
                        .anti_entropy_round(&mut world.sim, &mut world.net, &mut world.p2p);
                if (self.all_done() && converged) || self.orch.tick_exhausted() {
                    // Quiesced with every replica caught up — or the round
                    // budget is spent — stop ticking (a later submission
                    // wave re-arms via `submit`).
                    self.tick_armed = false;
                } else {
                    world
                        .sim
                        .schedule(self.orch.anti_entropy_interval(), GridEvent::OrchTick);
                }
            }
            GridEvent::StragglerCheck { job, worker, epoch } => {
                self.straggler_check(world, job, worker, epoch);
            }
            GridEvent::P2p(_)
            | GridEvent::StageComputeDone { .. }
            | GridEvent::EmitToken { .. } => {
                // Not ours.
            }
        }
    }

    /// A copy's input (and, for a backup, its module) reached the worker:
    /// start computing.
    fn input_arrived(&mut self, world: &mut GridWorld, job: JobId, wid: WorkerId, epoch: u64) {
        let j = &mut self.jobs[job.0 as usize];
        let Some((role, a)) = j.live(wid, epoch) else {
            return;
        };
        if !matches!(a.phase, Phase::SendingInput) {
            return;
        }
        let w = &mut self.workers[wid.0 as usize];
        let gigacycles = a.gigacycles;
        let exec = w.exec_time(gigacycles);
        let started = world.sim.now();
        a.phase = Phase::Running { started, exec };
        if let (Role::Backup, Some(key)) = (role, &j.spec.module) {
            if w.cache.get(key).is_none() {
                if let Some(blob) = self.library.fetch(key) {
                    w.cache.insert(key.clone(), blob.clone());
                }
            }
        }
        world.sim.schedule(
            exec,
            GridEvent::ComputeDone {
                job,
                worker: wid,
                epoch,
            },
        );
        // Only a primary is watched for straggling: one duplicate per job.
        if role == Role::Primary {
            self.arm_straggler_check(world, job, wid, epoch, gigacycles);
        }
    }

    /// A copy finished computing: bill it, give its slot back and ship the
    /// result to the job's owner.
    fn compute_done(&mut self, world: &mut GridWorld, job: JobId, wid: WorkerId, epoch: u64) {
        let stamp = self.orch.output_stamp(job.0);
        let j = &mut self.jobs[job.0 as usize];
        let Some((role, a)) = j.live(wid, epoch) else {
            return;
        };
        let Phase::Running { exec, .. } = a.phase else {
            return;
        };
        a.phase = Phase::Returning { stamp };
        let gigacycles = a.gigacycles;
        if role == Role::Primary {
            // From here the job has nothing left to compute, even if the
            // result has to be sent again; a backup's result only counts
            // once it is home.
            j.fraction = 1.0;
            j.completed_by = Some(wid);
        }
        let out_bytes = j.spec.output_bytes;
        let w = &mut self.workers[wid.0 as usize];
        w.ledger.charge(
            &self.account,
            UsageRecord {
                at: world.sim.now(),
                cpu: exec,
                bytes_in: j.spec.input_bytes,
                bytes_out: out_bytes,
                instructions: 0,
            },
        );
        w.jobs_completed += 1;
        let src = w.host;
        self.release_slot(job, wid);
        if gigacycles > 0.0 {
            self.profiles.record_completion(wid.0, gigacycles, exec);
        }
        let dst = self.owner_host(job);
        match world.net.transfer(world.sim.now(), src, dst, out_bytes) {
            Ok(delay) => world.sim.schedule(
                delay,
                GridEvent::OutputArrived {
                    job,
                    worker: wid,
                    epoch,
                    orch: stamp,
                },
            ),
            // The owner is (normally) always on; a failure means the worker
            // or owner vanished in this very instant.
            Err(_) => self.attempt_failed(world, job, role),
        }
        self.dispatch(world);
    }

    /// A result reached the job's owner. The first one home completes the
    /// job, whichever copy produced it; the other copy is abandoned.
    fn output_arrived(
        &mut self,
        world: &mut GridWorld,
        job: JobId,
        worker: WorkerId,
        epoch: u64,
        orch: u64,
    ) {
        let j = &mut self.jobs[job.0 as usize];
        let Some((role, a)) = j.live(worker, epoch) else {
            return;
        };
        let Phase::Returning { stamp } = a.phase else {
            return;
        };
        if orch != stamp || !self.orch.stamp_valid(job.0, orch) {
            // The owning orchestrator changed while the result was in
            // flight: the arrival lands on a dead (or deposed) owner. Drop
            // it — `on_orch_change` re-drives a primary's result toward the
            // new owner; a backup's is left to lose the race.
            self.obs.incr("orch.stale_outputs_dropped");
            return;
        }
        let now = world.sim.now();
        *j.slot(role) = None;
        j.state = JobState::Done;
        self.done += 1;
        j.fraction = 1.0;
        j.completed = Some(now);
        j.completed_by = Some(worker);
        let latency = now.since(j.created);
        self.obs.incr("farm.completions");
        self.obs.observe("farm.job_latency_us", latency.as_micros());
        let (kind, by) = match role {
            Role::Primary => ("farm.complete", None),
            Role::Backup => ("trust.speculative_win", Some(worker.0)),
        };
        self.obs.event(now.as_micros(), kind, || {
            let by = by.map_or(String::new(), |w| format!(" worker={w}"));
            format!("job={}{by} latency_us={}", job.0, latency.as_micros())
        });
        self.record_delta(world, Delta::Complete { job: job.0 });
        // The winner's seat is empty by now: this abandons the other copy.
        let raced = self.abandon(now, job, Role::Primary) | self.abandon(now, job, Role::Backup);
        match role {
            Role::Primary if raced => self.obs.incr("trust.speculative_losses"),
            Role::Primary => return,
            Role::Backup => {
                self.spec_wins += 1;
                self.obs.incr("trust.speculative_wins");
            }
        }
        // The loser's slot came free.
        self.dispatch(world);
    }

    /// Schedule the straggler watchdog for a freshly started run: the
    /// check fires once the run exceeds `factor ×` its profiled expected
    /// runtime (never earlier than `min_runtime`).
    fn arm_straggler_check(
        &mut self,
        world: &mut GridWorld,
        job: JobId,
        worker: WorkerId,
        epoch: u64,
        gigacycles: f64,
    ) {
        let Some(st) = self.cfg.trust.as_ref().and_then(|t| t.straggler.as_ref()) else {
            return;
        };
        let expected = self.profiles.expected_runtime(worker.0, gigacycles);
        let delay = Duration::from_secs_f64(expected.as_secs_f64() * st.factor)
            .max(st.min_runtime)
            .max(Duration::from_secs(1));
        world
            .sim
            .schedule(delay, GridEvent::StragglerCheck { job, worker, epoch });
    }

    /// The watchdog fired: if the primary is still computing and has no
    /// duplicate yet, start a backup copy on the best other idle worker.
    fn straggler_check(&mut self, world: &mut GridWorld, job: JobId, worker: WorkerId, epoch: u64) {
        let j = &self.jobs[job.0 as usize];
        let still_running = matches!(
            &j.primary,
            Some(a) if a.worker == worker && a.epoch == epoch && matches!(a.phase, Phase::Running { .. })
        );
        if !still_running || j.backup.is_some() {
            return;
        }
        self.obs.incr("trust.straggler_checks");
        let gigacycles = self.remaining_gigacycles(job);
        let mut cands = self.open_candidates();
        cands.retain(|c| c.worker != worker.0 && self.eligible(job, WorkerId(c.worker)));
        #[cfg(test)]
        assert_eq!(cands, self.naive_candidates(job, Some(worker)));
        let choice = if cands.is_empty() {
            None
        } else {
            self.policy.choose(gigacycles, &cands, &self.profiles)
        };
        let Some(ci) = choice else {
            // Nobody idle to duplicate onto: try again later, while the
            // straggler is still running.
            let retry = self
                .cfg
                .trust
                .as_ref()
                .and_then(|t| t.straggler.as_ref())
                .map_or(Duration::from_secs(5), |st| st.min_runtime)
                .max(Duration::from_secs(1));
            world
                .sim
                .schedule(retry, GridEvent::StragglerCheck { job, worker, epoch });
            return;
        };
        let backup = WorkerId(cands[ci].worker);
        self.spec_dispatches += 1;
        self.obs.incr("trust.speculative_dispatches");
        self.obs
            .event(world.sim.now().as_micros(), "trust.speculate", || {
                format!("job={} straggler={} backup={}", job.0, worker.0, backup.0)
            });
        // Unlike a primary's dispatch this replicates no `Delta::Dispatch`:
        // a takeover orchestrator re-drives the primary only.
        self.start_attempt(job, Role::Backup, backup);
        self.send_input(world, job, Role::Backup);
    }

    /// The discovery window of a swarm fetch closed: pick providers and
    /// pull missing chunks round-robin, or fall back to the controller.
    fn swarm_providers_due(&mut self, world: &mut GridWorld, job: JobId) {
        let Some((wid, _, f)) = self.jobs[job.0 as usize].swarm() else {
            return;
        };
        let (query, blob, layout, key) =
            (f.query, f.tracker.blob(), f.tracker.layout(), f.key.clone());
        let origin = self.workers[wid.0 as usize].peer;
        let sw = self.cfg.swarm.clone().expect("swarm fetch implies config");
        // Adverts whose TTL lapsed between query emission and this window
        // closing are churn, not providers: pulling from one would race the
        // provider's purge. Skip them (the controller fallback below covers
        // the all-expired case).
        let (mut providers, expired) = world
            .p2p
            .queries
            .get(&query)
            .map(|q| q.providers_live(world.sim.now()))
            .unwrap_or_default();
        if expired > 0 {
            self.obs.add("store.provider_expired", expired);
        }
        providers.retain(|p| {
            *p != origin
                && self
                    .peer_workers
                    .get(p)
                    .is_some_and(|&w| self.slots.is_up(w))
        });
        providers.truncate(sw.max_providers);
        if providers.is_empty() {
            // Nobody (reachable) holds the blob yet: controller-direct.
            self.obs.incr("store.fallback_no_provider");
            return self.direct_fetch(world, job, key);
        }
        self.obs.add("store.providers_used", providers.len() as u64);
        let missing = self.workers[wid.0 as usize]
            .store
            .missing(blob, layout.blob_len);
        if missing.is_empty() {
            // A previous attempt already left every chunk resident.
            return self.swarm_assembled(world, job, wid, blob, key);
        }
        for (chunk, si) in assign_round_robin(&missing, providers.len()) {
            self.request_chunk(world, job, chunk, ChunkSource::Peer(providers[si]));
        }
    }

    /// One swarm chunk landed: meter it, copy the payload out of its
    /// source's store (the simulated network moves byte counts, not data),
    /// and assemble once the blob is complete.
    fn swarm_chunk_arrived(
        &mut self,
        world: &mut GridWorld,
        job: JobId,
        chunk: u32,
        source: ChunkSource,
    ) {
        let now = world.sim.now();
        let Some((wid, _, fetch)) = self.jobs[job.0 as usize].swarm() else {
            return;
        };
        let Some(latency) = fetch.tracker.complete(chunk, now) else {
            return; // stale or duplicate delivery
        };
        let (blob, layout, key) = (
            fetch.tracker.blob(),
            fetch.tracker.layout(),
            fetch.key.clone(),
        );
        let bytes = layout.size(chunk);
        self.obs
            .observe("store.chunk_fetch_us", latency.as_micros());
        match source {
            ChunkSource::Controller => {
                self.obs.add("store.bytes_from_controller", bytes);
                self.obs.add("farm.module_bytes_sent", bytes);
            }
            ChunkSource::Peer(_) => self.obs.add("store.bytes_from_peers", bytes),
        }
        let piece: Option<Vec<u8>> = match source {
            ChunkSource::Controller => self
                .library
                .fetch(&key)
                .filter(|b| BlobId::of_blob(b) == blob)
                .map(|b| layout.slice(&b.bytes, chunk).to_vec()),
            ChunkSource::Peer(p) => self
                .peer_workers
                .get(&p)
                .and_then(|w| self.workers[w.0 as usize].store.chunk(blob, chunk))
                .map(<[u8]>::to_vec),
        };
        match piece {
            Some(data) => {
                self.workers[wid.0 as usize]
                    .store
                    .insert_chunk(blob, layout.blob_len, chunk, data);
                if self.workers[wid.0 as usize].store.is_complete(blob) {
                    self.swarm_assembled(world, job, wid, blob, key);
                }
            }
            // The source no longer holds the bytes (provider released
            // them, or the library republished the module mid-fetch).
            None => match source {
                ChunkSource::Peer(_) => {
                    self.obs.incr("store.chunk_reroutes");
                    self.request_chunk(world, job, chunk, ChunkSource::Controller);
                }
                ChunkSource::Controller => {
                    // The module changed under us: abandon the swarm fetch
                    // and ship the current blob whole.
                    self.workers[wid.0 as usize].store.release(blob);
                    self.direct_fetch(world, job, key);
                }
            },
        }
    }

    fn worker_down(&mut self, world: &mut GridWorld, wid: WorkerId) {
        let now = world.sim.now();
        self.profiles.mark_down(wid.0, now);
        self.slots.set_up(wid, false);
        let w = &mut self.workers[wid.0 as usize];
        world.net.set_online(w.host, false);
        // Job-id order: the migrations below requeue and replicate in it.
        let mut seated = std::mem::take(&mut w.attempts);
        seated.sort_unstable();
        for job_id in seated {
            let j = &mut self.jobs[job_id.0 as usize];
            // A backup never shares its primary's worker: one copy is here.
            let role = match &j.backup {
                Some(a) if a.worker == wid => Role::Backup,
                _ => Role::Primary,
            };
            let run = match j.slot(role).as_ref().map(|a| &a.phase) {
                Some(&Phase::Running { started, exec }) => Some((now.since(started), exec)),
                _ => None,
            };
            match role {
                // A duplicate dies with its worker, leaving nothing behind
                // but the compute it sank; the primary keeps going.
                Role::Backup => {
                    if let Some((ran_for, _)) = run {
                        self.meter_sunk(job_id, ran_for);
                    }
                    self.abandon(now, job_id, role);
                }
                // A primary in any transit state migrates at once (the
                // controller notices the peer vanish), from its last
                // checkpoint if it was computing.
                Role::Primary => {
                    if let Some((ran_for, exec)) = run {
                        let cp = Checkpoint::after(self.cfg.checkpoint.as_ref(), ran_for, exec);
                        // cp.fraction is of the *remaining* work this attempt ran.
                        let saved = (1.0 - j.fraction) * cp.fraction;
                        let saved_time = Duration::from_secs_f64(exec.as_secs_f64() * cp.fraction);
                        j.wasted += ran_for.saturating_sub(saved_time);
                        j.fraction += saved;
                        let permille = (j.fraction * 1000.0).round().min(1000.0) as u32;
                        // The peer walked away mid-run (§3.6.2 "user intervenes"):
                        // abandonment evidence against its trust score.
                        self.profiles.record_abandon(wid.0);
                        self.obs.incr("trust.abandons");
                        // Replicate the checkpoint head, so a takeover orchestrator
                        // resumes the job from here instead of from scratch.
                        self.record_delta(
                            world,
                            Delta::Head {
                                job: job_id.0,
                                permille,
                            },
                        );
                    }
                    self.requeue(world, job_id, "farm.migrations");
                }
            }
        }
        self.refresh_blacklist_gauge();
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> FarmStats {
        let mut s = FarmStats {
            jobs_total: self.jobs.len() as u64,
            spec_dispatches: self.spec_dispatches,
            spec_wins: self.spec_wins,
            ..FarmStats::default()
        };
        for j in &self.jobs {
            s.attempts += j.attempts as u64;
            s.wasted += j.wasted;
            if let Some(done) = j.completed {
                s.jobs_done += 1;
                s.makespan = s.makespan.max(done);
                let lat = done.since(j.created);
                s.total_latency += lat;
                s.max_latency = s.max_latency.max(lat);
            }
        }
        s
    }

    pub fn all_done(&self) -> bool {
        self.done == self.jobs.len()
    }

    pub fn job_latency(&self, job: JobId) -> Option<Duration> {
        let j = &self.jobs[job.0 as usize];
        j.completed.map(|c| c.since(j.created))
    }

    /// The worker whose execution produced the job's returned result.
    pub fn job_completed_by(&self, job: JobId) -> Option<WorkerId> {
        self.jobs[job.0 as usize].completed_by
    }

    pub fn worker_cache_stats(&self, wid: WorkerId) -> crate::modules::CacheStats {
        self.workers[wid.0 as usize].cache.stats()
    }

    /// Run a module resident in `wid`'s cache through the worker's reusable
    /// execution context. This is the steady-state fast path: the module was
    /// verified and flattened once at cache admission, and the context's
    /// stack/frames/locals arenas are reused across calls, so the run itself
    /// performs no heap allocation. Returns `None` if the module (or its
    /// prepared form — e.g. a corrupt blob) is not resident; the lookup is
    /// metered as a prepared-cache hit or miss either way.
    pub fn execute_resident(
        &mut self,
        wid: WorkerId,
        key: &ModuleKey,
        inputs: &[&[f64]],
        policy: &tvm::SandboxPolicy,
    ) -> Option<ResidentExec> {
        let w = &mut self.workers[wid.0 as usize];
        let prepared = w.cache.get_prepared(key)?;
        Some(prepared.execute_obs(inputs, policy, &mut w.ctx, &self.obs))
    }

    /// The worker's resident chunk store (swarm distribution state).
    pub fn worker_store(&self, wid: WorkerId) -> &ChunkStore {
        &self.workers[wid.0 as usize].store
    }

    /// Mutable access to a worker's chunk store — fault injection in
    /// tests (e.g. corrupting a seeded chunk to exercise verification).
    pub fn worker_store_mut(&mut self, wid: WorkerId) -> &mut ChunkStore {
        &mut self.workers[wid.0 as usize].store
    }

    pub fn worker_jobs_completed(&self, wid: WorkerId) -> u64 {
        self.workers[wid.0 as usize].jobs_completed
    }

    /// The billing ledger a volunteer keeps for work done here.
    pub fn worker_ledger(&self, wid: WorkerId) -> &BillingLedger {
        &self.workers[wid.0 as usize].ledger
    }

    /// Total CPU donated by all workers to this controller's account.
    pub fn total_billed_cpu(&self) -> Duration {
        self.workers
            .iter()
            .fold(Duration::ZERO, |acc, w| acc + w.ledger.total_cpu())
    }

    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Overlay identity of a worker.
    pub fn worker_peer(&self, wid: WorkerId) -> PeerId {
        self.workers[wid.0 as usize].peer
    }

    /// The active controller: the orchestrator set's current leader.
    pub fn controller(&self) -> PeerId {
        self.orch.leader_peer()
    }

    /// The orchestrator set driving this farm.
    pub fn orchestrators(&self) -> &OrchestratorHandle {
        &self.orch
    }

    /// Route a gossip delivery ([`p2p::Incoming::Orch`]) into the set.
    pub fn orch_deliver(&mut self, to: PeerId, seq: u64, count: u64, sync: bool) {
        self.orch.deliver(to, seq, count, sync);
    }

    /// The orchestrator set changed (election, crash, partition, heal) —
    /// re-drive everything the change invalidated:
    ///
    /// * in-flight results addressed to a dead or deposed owner are
    ///   re-driven toward the job's new owner (retransfer if the producing
    ///   worker still holds them, full requeue otherwise);
    /// * the pending queue is kicked, because ownership moves and healed
    ///   routes can make previously bounced dispatches placeable — without
    ///   the kick a farm whose orchestrator change lands at the same sim
    ///   instant as its last worker event would strand pending units
    ///   forever.
    pub fn on_orch_change(&mut self, world: &mut GridWorld) {
        let stale: Vec<JobId> = (0..self.jobs.len() as u64)
            .map(JobId)
            .filter(|&id| {
                matches!(
                    self.jobs[id.0 as usize].primary,
                    Some(Attempt { phase: Phase::Returning { stamp }, .. })
                        if !self.orch.stamp_valid(id.0, stamp)
                )
            })
            .collect();
        for job_id in stale {
            self.resume_returning(world, job_id);
        }
        self.arm_tick(world);
        self.kick(world);
    }

    /// A primary's result was in flight toward an owner that no longer
    /// exists: re-drive it. If the producing worker is still reachable the
    /// result is retransferred from its host to the new owner; otherwise
    /// the work is genuinely lost and the job goes back to the queue. (A
    /// backup's stranded result is not re-driven: its primary is.)
    fn resume_returning(&mut self, world: &mut GridWorld, job_id: JobId) {
        let stamp = self.orch.output_stamp(job_id.0);
        let Some((wid, epoch)) = self.enter(job_id, Role::Primary, Phase::Returning { stamp })
        else {
            return;
        };
        if self.slots.is_up(wid) {
            let src = self.workers[wid.0 as usize].host;
            let dst = self.owner_host(job_id);
            let out_bytes = self.jobs[job_id.0 as usize].spec.output_bytes;
            if let Ok(delay) = world.net.transfer(world.sim.now(), src, dst, out_bytes) {
                self.obs.incr("orch.output_retransfers");
                world.sim.schedule(
                    delay,
                    GridEvent::OutputArrived {
                        job: job_id,
                        worker: wid,
                        epoch,
                        orch: stamp,
                    },
                );
                return;
            }
        }
        // Producer gone too: recompute, from scratch — the checkpoint the
        // finished run superseded is not kept.
        let j = &mut self.jobs[job_id.0 as usize];
        j.completed_by = None;
        j.fraction = 0.0;
        self.obs.incr("orch.returning_requeued");
        self.requeue(world, job_id, "farm.requeues");
    }

    /// Does every index equal a recount from the job and slot tables, and
    /// does every worker have exactly as many slots taken as copies seated
    /// on it? Debug builds assert this after each entry point returns.
    pub(super) fn indexes_consistent(&self) -> bool {
        let mut seated = vec![Vec::new(); self.workers.len()];
        let mut done = 0;
        for (i, j) in self.jobs.iter().enumerate() {
            let copies_match_state = match j.state {
                JobState::Assigned => j.primary.is_some(),
                JobState::Pending | JobState::Done => j.copies().next().is_none(),
            };
            if !copies_match_state {
                return false;
            }
            done += usize::from(j.state == JobState::Done);
            for a in j.copies() {
                if a.phase.holds_slot() {
                    seated[a.worker.0 as usize].push(JobId(i as u64));
                }
            }
        }
        done == self.done
            && self.slots.open().eq(self.slots.recount_open())
            && self
                .workers
                .iter()
                .zip(&seated)
                .enumerate()
                .all(|(w, (worker, seated))| {
                    let mut filed = worker.attempts.clone();
                    filed.sort_unstable();
                    filed == *seated
                        && self.slots.active(WorkerId(w as u32)) as usize == seated.len()
                })
    }

    // --- invariant-checking introspection (used by the chaos harness) ---

    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The worker currently responsible for the job, if any.
    pub fn job_assignment(&self, job: JobId) -> Option<WorkerId> {
        self.jobs[job.0 as usize].primary.as_ref().map(|a| a.worker)
    }

    pub fn job_is_done(&self, job: JobId) -> bool {
        self.jobs[job.0 as usize].state == JobState::Done
    }

    pub fn job_is_pending(&self, job: JobId) -> bool {
        self.jobs[job.0 as usize].state == JobState::Pending
    }

    pub fn worker_is_up(&self, wid: WorkerId) -> bool {
        self.slots.is_up(wid)
    }

    /// Jobs currently occupying slots on the worker.
    pub fn worker_active(&self, wid: WorkerId) -> u32 {
        self.slots.active(wid)
    }

    pub fn worker_capacity(&self, wid: WorkerId) -> u32 {
        self.slots.capacity(wid)
    }

    /// The worker's module cache (chaos integrity checks walk its entries).
    pub fn worker_cache(&self, wid: WorkerId) -> &ModuleCache {
        &self.workers[wid.0 as usize].cache
    }
}

fn schedule_transitions(sim: &mut Sim<GridEvent>, wid: WorkerId, trace: &AvailabilityTrace) {
    for &(start, end) in trace.intervals() {
        if start > SimTime::ZERO {
            sim.schedule_at(start, GridEvent::WorkerUp(wid));
        }
        if end < trace.horizon() {
            sim.schedule_at(end, GridEvent::WorkerDown(wid));
        }
    }
}

/// Drive the world until all events drain (or the sim horizon), routing
/// overlay events to the overlay and everything else to the farm.
pub fn run_farm(world: &mut GridWorld, farm: &mut FarmScheduler) {
    while let Some(ev) = world.sim.step() {
        match ev {
            GridEvent::P2p(pe) => {
                for inc in world.p2p.handle(&mut world.sim, &mut world.net, pe) {
                    if let p2p::Incoming::Orch {
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
            other => farm.handle(world, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Pcg32;
    use p2p::DiscoveryMode;
    use trust::StragglerConfig;

    impl FarmScheduler {
        /// Is a speculative duplicate seated on `wid`? (`dispatch_props`
        /// uses it to see a duplicate lose its worker.)
        pub(in crate::grid) fn hosts_a_backup(&self, wid: WorkerId) -> bool {
            self.jobs
                .iter()
                .any(|j| matches!(&j.backup, Some(a) if a.worker == wid && a.phase.holds_slot()))
        }
    }

    fn lan_pc() -> HostSpec {
        HostSpec::lan_workstation()
    }

    fn world_with_workers(
        n: usize,
        cfg: FarmConfig,
        trace_of: impl Fn(usize, SimTime, &mut Pcg32) -> AvailabilityTrace,
        horizon: SimTime,
    ) -> (GridWorld, FarmScheduler) {
        let mut world = GridWorld::new(11, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(lan_pc());
        let mut farm = FarmScheduler::new(&world, ctrl, cfg);
        let mut rng = Pcg32::new(99, 0);
        for i in 0..n {
            let (peer, _) = world.add_peer(lan_pc());
            let trace = trace_of(i, horizon, &mut rng);
            farm.add_worker(
                &mut world,
                WorkerSetup {
                    peer,
                    spec: lan_pc(),
                    trace,
                    cache_bytes: 1 << 20,
                },
            );
        }
        (world, farm)
    }

    fn job(work: f64) -> JobSpec {
        JobSpec {
            work_gigacycles: work,
            input_bytes: 10_000,
            output_bytes: 1_000,
            module: None,
        }
    }

    #[test]
    fn single_job_completes_with_transfer_and_compute_time() {
        let horizon = SimTime::from_secs(10_000);
        let (mut world, mut farm) = world_with_workers(
            1,
            FarmConfig::default(),
            |_, h, _| AvailabilityTrace::always(h),
            horizon,
        );
        let id = farm.submit(&mut world, job(20.0)); // 10 s at 2 GHz
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let lat = farm.job_latency(id).unwrap();
        // 10 s compute + LAN transfers (~ms): latency in (10.0, 10.5).
        assert!((10.0..10.5).contains(&lat.as_secs_f64()), "latency {lat}");
        assert_eq!(farm.stats().attempts, 1);
    }

    #[test]
    fn jobs_spread_across_workers_for_speedup() {
        let horizon = SimTime::from_secs(100_000);
        let run_with = |k: usize| {
            let (mut world, mut farm) = world_with_workers(
                k,
                FarmConfig::default(),
                |_, h, _| AvailabilityTrace::always(h),
                horizon,
            );
            for _ in 0..8 {
                farm.submit(&mut world, job(200.0)); // 100 s each
            }
            run_farm(&mut world, &mut farm);
            assert!(farm.all_done());
            farm.stats().makespan.as_secs_f64()
        };
        let t1 = run_with(1);
        let t4 = run_with(4);
        let speedup = t1 / t4;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn module_fetched_once_then_cached() {
        let horizon = SimTime::from_secs(100_000);
        let (mut world, mut farm) = world_with_workers(
            1,
            FarmConfig::default(),
            |_, h, _| AvailabilityTrace::always(h),
            horizon,
        );
        let key = ModuleKey::new("Render", 1);
        let blob = tvm::asm::assemble(".module Render 1 0 0\n.func main 0\n halt\n")
            .unwrap()
            .to_blob();
        farm.library.publish(key.clone(), blob);
        for _ in 0..3 {
            farm.submit(
                &mut world,
                JobSpec {
                    module: Some(key.clone()),
                    ..job(2.0)
                },
            );
        }
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let cs = farm.worker_cache_stats(WorkerId(0));
        // One download despite three jobs.
        assert!(cs.bytes_fetched > 0);
        assert_eq!(cs.evictions, 0);
        assert_eq!(farm.worker_jobs_completed(WorkerId(0)), 3);
    }

    #[test]
    fn resident_modules_execute_through_the_prepared_fast_path() {
        let horizon = SimTime::from_secs(100_000);
        let (mut world, mut farm) = world_with_workers(
            1,
            FarmConfig::default(),
            |_, h, _| AvailabilityTrace::always(h),
            horizon,
        );
        let key = ModuleKey::new("Doubler", 1);
        // y[i] = 2 * x[i]
        let blob = tvm::asm::assemble(
            ".module Doubler 1 1 1\n.func main 2\n inlen 0\n store 0\n push 0\n store 1\n\
             loop:\n load 1\n load 0\n lt\n jz end\n load 1\n inget 0\n push 2\n mul\n \
             outpush 0\n load 1\n push 1\n add\n store 1\n jmp loop\n end:\n halt\n",
        )
        .unwrap()
        .to_blob();
        farm.library.publish(key.clone(), blob);
        farm.submit(
            &mut world,
            JobSpec {
                module: Some(key.clone()),
                ..job(2.0)
            },
        );
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());

        // The download admitted (and prepared) the module; repeated runs
        // reuse the same prepared form and worker context.
        let policy = tvm::SandboxPolicy::standard();
        for _ in 0..3 {
            let (out, stats) = farm
                .execute_resident(WorkerId(0), &key, &[&[1.0, 2.5]], &policy)
                .expect("module resident after the farm run")
                .expect("sandboxed execution succeeds");
            assert_eq!(out, vec![vec![2.0, 5.0]]);
            assert!(stats.instructions > 0);
        }
        let cs = farm.worker_cache_stats(WorkerId(0));
        assert_eq!(cs.prepares, 1, "verified exactly once, at admission");
        assert_eq!(cs.prepared_hits, 3);
        // A module the worker never fetched is a metered miss.
        assert!(farm
            .execute_resident(WorkerId(0), &ModuleKey::new("Nope", 1), &[], &policy)
            .is_none());
        assert_eq!(farm.worker_cache_stats(WorkerId(0)).prepared_misses, 1);
    }

    #[test]
    fn churn_migrates_job_and_counts_waste() {
        let horizon = SimTime::from_secs(100_000);
        // Worker 0: up only for the first 50 s. Worker 1: always up but
        // slower to be picked (same speed, picked second).
        let (mut world, mut farm) = world_with_workers(
            2,
            FarmConfig::default(),
            |i, h, _| {
                if i == 0 {
                    AvailabilityTrace::from_intervals(
                        vec![(SimTime::ZERO, SimTime::from_secs(50))],
                        h,
                    )
                } else {
                    AvailabilityTrace::always(h)
                }
            },
            horizon,
        );
        // One long job (100 s): lands on worker 0 or 1; submit two so both
        // workers get one, and worker 0's is interrupted at t=50.
        let a = farm.submit(&mut world, job(200.0));
        let b = farm.submit(&mut world, job(200.0));
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let s = farm.stats();
        assert_eq!(s.jobs_done, 2);
        assert!(
            s.attempts >= 3,
            "one migration expected, attempts={}",
            s.attempts
        );
        // Without checkpointing, ~50 s of work wasted.
        assert!(
            (45.0..55.0).contains(&s.wasted.as_secs_f64()),
            "wasted {}",
            s.wasted
        );
        let _ = (a, b);
    }

    #[test]
    fn checkpointing_reduces_waste_and_completion_time() {
        let horizon = SimTime::from_secs(100_000);
        let run_with = |cp: Option<CheckpointPolicy>| {
            let (mut world, mut farm) = world_with_workers(
                2,
                FarmConfig {
                    checkpoint: cp,
                    swarm: None,
                    trust: None,
                },
                |i, h, _| {
                    if i == 0 {
                        // Up 0-100 s, then gone: a 200 s job cannot finish here.
                        AvailabilityTrace::from_intervals(
                            vec![(SimTime::ZERO, SimTime::from_secs(100))],
                            h,
                        )
                    } else {
                        AvailabilityTrace::always(h)
                    }
                },
                horizon,
            );
            farm.submit(&mut world, job(400.0)); // 200 s
            farm.submit(&mut world, job(400.0));
            run_farm(&mut world, &mut farm);
            assert!(farm.all_done());
            farm.stats()
        };
        let without = run_with(None);
        let with = run_with(Some(CheckpointPolicy::every(
            Duration::from_secs(10),
            5_000,
        )));
        assert!(with.wasted < without.wasted);
        assert!(with.makespan <= without.makespan);
        // With 10 s checkpoints, waste is bounded by ~one interval.
        assert!(with.wasted.as_secs_f64() <= 11.0, "wasted {}", with.wasted);
    }

    #[test]
    fn streaming_chunks_keep_up_with_enough_workers() {
        let horizon = SimTime::from_secs(100_000);
        let (mut world, mut farm) = world_with_workers(
            4,
            FarmConfig::default(),
            |_, h, _| AvailabilityTrace::always(h),
            horizon,
        );
        // Chunks arrive every 100 s; each takes 300 s of compute: needs
        // 3 workers to keep up, we have 4.
        farm.chunk_spec = Some(job(600.0));
        farm.schedule_chunks(&mut world.sim, Duration::from_secs(100), 10);
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let s = farm.stats();
        assert_eq!(s.jobs_done, 10);
        // Bounded lag: max latency close to a single chunk's service time.
        assert!(
            s.max_latency.as_secs_f64() < 400.0,
            "max latency {}",
            s.max_latency
        );
    }

    #[test]
    fn streaming_chunks_fall_behind_with_too_few_workers() {
        let horizon = SimTime::from_secs(1_000_000);
        let (mut world, mut farm) = world_with_workers(
            1,
            FarmConfig::default(),
            |_, h, _| AvailabilityTrace::always(h),
            horizon,
        );
        farm.chunk_spec = Some(job(600.0)); // 300 s per chunk, arriving each 100 s
        farm.schedule_chunks(&mut world.sim, Duration::from_secs(100), 10);
        run_farm(&mut world, &mut farm);
        let s = farm.stats();
        assert_eq!(s.jobs_done, 10);
        // Lag grows ~200 s per chunk: the last chunk waits ~2000 s.
        assert!(
            s.max_latency.as_secs_f64() > 1_500.0,
            "max latency {}",
            s.max_latency
        );
    }

    #[test]
    fn faster_workers_preferred() {
        let mut world = GridWorld::new(13, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(lan_pc());
        let mut farm = FarmScheduler::new(&world, ctrl, FarmConfig::default());
        let horizon = SimTime::from_secs(10_000);
        let add = |ghz: f64, farm: &mut FarmScheduler, world: &mut GridWorld| {
            let mut spec = lan_pc();
            spec.cpu_ghz = ghz;
            let (peer, _) = world.add_peer(spec.clone());
            farm.add_worker(
                world,
                WorkerSetup {
                    peer,
                    spec,
                    trace: AvailabilityTrace::always(horizon),
                    cache_bytes: 1 << 20,
                },
            )
        };
        let slow = add(1.0, &mut farm, &mut world);
        let fast = add(3.0, &mut farm, &mut world);
        farm.submit(&mut world, job(30.0));
        run_farm(&mut world, &mut farm);
        assert_eq!(farm.worker_jobs_completed(fast), 1);
        assert_eq!(farm.worker_jobs_completed(slow), 0);
    }

    #[test]
    fn cluster_gateway_worker_runs_jobs_concurrently() {
        // One 4-slot gateway (a cluster behind a local RM) vs one plain PC:
        // 4 independent jobs finish ~4x sooner on the gateway.
        let horizon = SimTime::from_secs(100_000);
        let run = |capacity: u32| {
            let mut world = GridWorld::new(71, DiscoveryMode::Flooding);
            let (ctrl, _) = world.add_peer(lan_pc());
            let mut farm = FarmScheduler::new(&world, ctrl, FarmConfig::default());
            let (peer, _) = world.add_peer(lan_pc());
            farm.add_worker_with_capacity(
                &mut world,
                WorkerSetup {
                    peer,
                    spec: lan_pc(),
                    trace: AvailabilityTrace::always(horizon),
                    cache_bytes: 1 << 20,
                },
                capacity,
            );
            for _ in 0..4 {
                farm.submit(&mut world, job(200.0)); // 100 s
            }
            run_farm(&mut world, &mut farm);
            assert!(farm.all_done());
            farm.stats().makespan.as_secs_f64()
        };
        let single = run(1);
        let cluster = run(4);
        assert!(
            cluster < single / 3.0,
            "cluster {cluster}s vs single {single}s"
        );
    }

    #[test]
    fn cluster_gateway_interruption_migrates_all_slots() {
        // A 3-slot gateway dies mid-run: every in-flight job migrates to
        // the backup worker and completes.
        let horizon = SimTime::from_secs(100_000);
        let mut world = GridWorld::new(73, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(lan_pc());
        let mut farm = FarmScheduler::new(&world, ctrl, FarmConfig::default());
        let (gw, _) = world.add_peer(lan_pc());
        farm.add_worker_with_capacity(
            &mut world,
            WorkerSetup {
                peer: gw,
                spec: lan_pc(),
                trace: AvailabilityTrace::from_intervals(
                    vec![(SimTime::ZERO, SimTime::from_secs(50))],
                    horizon,
                ),
                cache_bytes: 1 << 20,
            },
            3,
        );
        let (backup, _) = world.add_peer(lan_pc());
        farm.add_worker(
            &mut world,
            WorkerSetup {
                peer: backup,
                spec: lan_pc(),
                trace: AvailabilityTrace::always(horizon),
                cache_bytes: 1 << 20,
            },
        );
        for _ in 0..3 {
            farm.submit(&mut world, job(400.0)); // 200 s each
        }
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let s = farm.stats();
        assert!(s.attempts >= 6, "3 interrupts expected: {s:?}");
        assert!(s.wasted.as_secs_f64() > 100.0, "{s:?}");
    }

    #[test]
    fn billing_meters_exact_compute_time() {
        let horizon = SimTime::from_secs(10_000);
        let (mut world, mut farm) = world_with_workers(
            2,
            FarmConfig::default(),
            |_, h, _| AvailabilityTrace::always(h),
            horizon,
        );
        // 4 jobs x 20 Gc at 2 GHz = 10 s each: 40 s of CPU total.
        for _ in 0..4 {
            farm.submit(&mut world, job(20.0));
        }
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let billed = farm.total_billed_cpu();
        assert!(
            (billed.as_secs_f64() - 40.0).abs() < 1e-6,
            "billed {billed}"
        );
        // Per-worker ledgers carry the controller's account.
        let account = farm.account.clone();
        let w0 = farm.worker_ledger(WorkerId(0)).totals(&account);
        let w1 = farm.worker_ledger(WorkerId(1)).totals(&account);
        assert_eq!(w0.jobs + w1.jobs, 4);
        assert_eq!(w0.bytes_in + w1.bytes_in, 4 * 10_000);
    }

    #[test]
    fn job_submitted_while_all_workers_down_waits_for_uptime() {
        let horizon = SimTime::from_secs(10_000);
        let (mut world, mut farm) = world_with_workers(
            1,
            FarmConfig::default(),
            |_, h, _| {
                AvailabilityTrace::from_intervals(
                    vec![(SimTime::from_secs(100), SimTime::from_secs(9_000))],
                    h,
                )
            },
            horizon,
        );
        let id = farm.submit(&mut world, job(2.0));
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let lat = farm.job_latency(id).unwrap();
        assert!(lat.as_secs_f64() >= 100.0, "waited for worker: {lat}");
    }

    fn swarm_world(n: usize) -> (GridWorld, FarmScheduler) {
        let (mut world, farm) = world_with_workers(
            n,
            FarmConfig {
                checkpoint: None,
                swarm: Some(SwarmConfig {
                    chunk_bytes: 256,
                    ..SwarmConfig::default()
                }),
                trust: None,
            },
            |_, h, _| AvailabilityTrace::always(h),
            SimTime::from_secs(100_000),
        );
        // Flooding discovery needs a wired overlay.
        let mut rng = Pcg32::new(5, 1);
        world.p2p.wire_random(4, &mut rng);
        (world, farm)
    }

    fn sized_blob(name: &str, approx: usize) -> tvm::ModuleBlob {
        // Pad with push/pop pairs (9+1 bytes each) to reach ~approx bytes.
        let mut src = format!(".module {name} 1 0 0\n.func main 0\n");
        for _ in 0..approx / 10 {
            src.push_str(" push 1\n pop\n");
        }
        src.push_str(" halt\n");
        tvm::asm::assemble(&src).unwrap().to_blob()
    }

    #[test]
    fn swarm_pulls_chunks_from_seeded_peer() {
        let (mut world, mut farm) = swarm_world(2);
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        let key = ModuleKey::new("Render", 1);
        let blob = sized_blob("Render", 2_000);
        let blob_len = blob.len() as u64;
        farm.library.publish(key.clone(), blob);
        let spec = JobSpec {
            module: Some(key.clone()),
            ..job(2.0)
        };
        // First job: no provider exists yet, so the controller seeds the
        // worker directly — the classic §3.3 download.
        let a = farm.submit(&mut world, spec.clone());
        run_farm(&mut world, &mut farm);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("store.fallback_no_provider"), 1);
        assert_eq!(reg.counter_value("farm.module_bytes_sent"), blob_len);
        // Second job is forced onto the other worker: every chunk comes
        // from the seeded peer, none from the controller uplink.
        farm.submit_with_conflicts(&mut world, spec, vec![a]);
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        assert_eq!(reg.counter_value("store.bytes_from_peers"), blob_len);
        assert_eq!(reg.counter_value("store.bytes_from_controller"), 0);
        assert_eq!(reg.counter_value("farm.module_bytes_sent"), blob_len);
        assert_eq!(reg.counter_value("store.blobs_verified"), 1);
        assert_eq!(reg.counter_value("store.seed_adverts"), 2);
    }

    #[test]
    fn routes_cut_mid_discovery_requeue_the_fetching_job_once() {
        // The chunks of a round are requested in one loop. When the first
        // fails at its provider and then at the controller too, the job
        // goes back to the queue, and the rest of the loop must find nothing
        // left to fetch for.
        let (mut world, mut farm) = swarm_world(2);
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        let key = ModuleKey::new("Render", 1);
        farm.library
            .publish(key.clone(), sized_blob("Render", 2_000));
        let spec = JobSpec {
            module: Some(key),
            ..job(2.0)
        };
        let a = farm.submit(&mut world, spec.clone());
        run_farm(&mut world, &mut farm);
        let b = farm.submit_with_conflicts(&mut world, spec, vec![a]);
        let host = |w: WorkerId| world.p2p.host_of(farm.worker_peer(w));
        let seeded = host(farm.job_completed_by(a).unwrap());
        let fetching = host(farm.job_assignment(b).unwrap());
        let ctrl = world.p2p.host_of(farm.controller());
        // Sever both of the fetching worker's sources just before its 2 s
        // discovery window closes with the seeded peer as provider.
        let window_end = world.sim.now() + Duration::from_secs(2);
        world
            .sim
            .set_horizon(window_end - Duration::from_millis(100));
        run_farm(&mut world, &mut farm);
        world.net.set_link_cut(fetching, seeded, true);
        world.net.set_link_cut(fetching, ctrl, true);
        world.sim.set_horizon(SimTime::from_secs(100_000));
        run_farm(&mut world, &mut farm);
        let reg = obs.registry().unwrap();
        assert!(farm.job_is_pending(b));
        assert_eq!(reg.counter_value("store.chunk_reroutes"), 1);
        assert_eq!(reg.counter_value("farm.requeues"), 1);
        // Routes heal: the job is placed again and completes.
        world.net.set_link_cut(fetching, seeded, false);
        world.net.set_link_cut(fetching, ctrl, false);
        farm.kick(&mut world);
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
    }

    #[test]
    fn advert_expiring_mid_discovery_window_is_treated_as_churn() {
        // Regression: a provider advert whose TTL lapses between the query
        // hit and the window closing used to be pulled from anyway; it must
        // instead count as churn and fall back to the controller.
        let (mut world, mut farm) = swarm_world(2);
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        let key = ModuleKey::new("Render", 1);
        let blob = sized_blob("Render", 2_000);
        farm.library.publish(key.clone(), blob.clone());
        // Seed worker 0's store by hand and advertise it with a TTL that
        // lapses *inside* the 2 s discovery window: the flood hit arrives
        // valid (LAN flooding takes milliseconds) but the advert is stale
        // by the time providers are picked.
        let blob_id = farm.worker_store_mut(WorkerId(0)).seed_blob(&blob);
        let layout = farm
            .worker_store(WorkerId(0))
            .layout_of(blob_id)
            .expect("seeded");
        let provider = farm.worker_peer(WorkerId(0));
        let ad = Advertisement {
            body: AdvertBody::Blob(BlobAdvert {
                blob: blob_id.0,
                size_bytes: layout.blob_len,
                chunks: layout.count(),
                provider,
            }),
            expires: SimTime::from_secs(1),
        };
        world
            .p2p
            .publish(&mut world.sim, &mut world.net, provider, ad);
        // Occupy worker 0 so the module job lands on worker 1.
        farm.submit(&mut world, job(50.0));
        let b = farm.submit(
            &mut world,
            JobSpec {
                module: Some(key.clone()),
                ..job(2.0)
            },
        );
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        assert!(farm.job_latency(b).is_some());
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("store.provider_expired"), 1);
        assert_eq!(reg.counter_value("store.fallback_no_provider"), 1);
        // Every byte of the module came over the controller's uplink; the
        // stale provider was never pulled from.
        assert_eq!(reg.counter_value("store.bytes_from_peers"), 0);
        assert_eq!(reg.counter_value("store.providers_used"), 0);
    }

    #[test]
    fn corrupted_chunk_rejected_before_cache() {
        let (mut world, mut farm) = swarm_world(2);
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        let key = ModuleKey::new("Render", 1);
        let blob = sized_blob("Render", 2_000);
        let blob_len = blob.len() as u64;
        let blob_id = BlobId::of_blob(&blob);
        farm.library.publish(key.clone(), blob);
        let spec = JobSpec {
            module: Some(key.clone()),
            ..job(2.0)
        };
        let a = farm.submit(&mut world, spec.clone());
        run_farm(&mut world, &mut farm);
        // Poison one chunk in the seed's store: the swarm copy will
        // reassemble to bytes whose hash doesn't match the content id.
        assert!(farm.worker_store_mut(WorkerId(0)).corrupt_chunk(blob_id, 1));
        farm.submit_with_conflicts(&mut world, spec, vec![a]);
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("store.verify_failures"), 1);
        assert_eq!(reg.counter_value("store.blobs_verified"), 0);
        // The corrupt assembly never reached the module cache: the only
        // bytes ever cached on worker 1 are the controller's good copy,
        // fetched by the automatic fallback.
        assert_eq!(farm.worker_cache_stats(WorkerId(1)).bytes_fetched, blob_len);
    }

    fn trust_cfg(policy: PolicyHandle) -> Option<GridTrustConfig> {
        Some(GridTrustConfig::default().with_policy(policy))
    }

    /// Two-worker world for the adaptive-scheduling tests: worker 0
    /// advertises a fast clock but delivers only `eff0` of it; worker 1 is
    /// an honest 2 GHz machine.
    fn braggart_world(cfg: FarmConfig, eff0: f64) -> (GridWorld, FarmScheduler) {
        let horizon = SimTime::from_secs(1_000_000);
        let mut world = GridWorld::new(17, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(lan_pc());
        let mut farm = FarmScheduler::new(&world, ctrl, cfg);
        let mut spec = lan_pc();
        spec.cpu_ghz = 3.0;
        let (p0, _) = world.add_peer(spec.clone());
        let w0 = farm.add_worker(
            &mut world,
            WorkerSetup {
                peer: p0,
                spec,
                trace: AvailabilityTrace::always(horizon),
                cache_bytes: 1 << 20,
            },
        );
        farm.set_worker_efficiency(w0, eff0);
        let (p1, _) = world.add_peer(lan_pc());
        farm.add_worker(
            &mut world,
            WorkerSetup {
                peer: p1,
                spec: lan_pc(),
                trace: AvailabilityTrace::always(horizon),
                cache_bytes: 1 << 20,
            },
        );
        (world, farm)
    }

    /// A watchdog that fires absurdly early, so even a healthy run gets
    /// duplicated and the duplicate has time to overtake.
    fn speculate_early() -> FarmConfig {
        FarmConfig {
            trust: Some(GridTrustConfig {
                straggler: Some(StragglerConfig {
                    factor: 0.1,
                    min_runtime: Duration::from_secs(1),
                }),
                ..GridTrustConfig::default()
            }),
            ..FarmConfig::default()
        }
    }

    fn add_always_up(spec: HostSpec, world: &mut GridWorld, farm: &mut FarmScheduler) -> WorkerId {
        let (peer, _) = world.add_peer(spec.clone());
        farm.add_worker(
            world,
            WorkerSetup {
                peer,
                spec,
                trace: AvailabilityTrace::always(SimTime::from_secs(1_000_000)),
                cache_bytes: 1 << 20,
            },
        )
    }

    #[test]
    fn profiled_policy_routes_around_overclaiming_worker() {
        // Jobs arrive far apart, so both workers are idle at every arrival
        // and the policy has a real choice each time.
        let run = |policy: PolicyHandle| {
            let (mut world, mut farm) = braggart_world(
                FarmConfig {
                    trust: trust_cfg(policy),
                    ..FarmConfig::default()
                },
                0.2, // 3 GHz advertised, 0.6 GHz delivered
            );
            farm.chunk_spec = Some(job(60.0)); // 100 s on w0, 30 s on w1
            farm.schedule_chunks(&mut world.sim, Duration::from_secs(150), 6);
            run_farm(&mut world, &mut farm);
            assert!(farm.all_done());
            (
                farm.worker_jobs_completed(WorkerId(0)),
                farm.worker_jobs_completed(WorkerId(1)),
            )
        };
        // Memoryless: the 3 GHz advert wins every time.
        assert_eq!(run(PolicyHandle::first_idle()), (6, 0));
        // Profiled: one job is enough to learn the advert is a lie.
        let (w0, w1) = run(PolicyHandle::fastest_profiled());
        assert_eq!(w0, 1, "only the cold-start job should land on the slug");
        assert_eq!(w1, 5);
    }

    #[test]
    fn straggler_speculation_bounds_latency() {
        let straggled = |straggler: Option<StragglerConfig>| {
            let (mut world, mut farm) = braggart_world(
                FarmConfig {
                    trust: Some(GridTrustConfig {
                        straggler,
                        ..GridTrustConfig::default()
                    }),
                    ..FarmConfig::default()
                },
                0.05, // 60 Gc: 20 s expected from the advert, 400 s real
            );
            let id = farm.submit(&mut world, job(60.0));
            run_farm(&mut world, &mut farm);
            assert!(farm.all_done());
            (farm.stats(), farm.job_completed_by(id).unwrap())
        };
        let (plain, by) = straggled(None);
        assert_eq!(by, WorkerId(0));
        assert!(plain.max_latency.as_secs_f64() > 390.0);
        assert_eq!(plain.spec_dispatches, 0);
        // The watchdog fires at 2 x 20 s; the honest worker recomputes the
        // job in 30 s and its copy wins.
        let (spec, by) = straggled(Some(StragglerConfig::default()));
        assert_eq!(by, WorkerId(1));
        assert_eq!(spec.spec_dispatches, 1);
        assert_eq!(spec.spec_wins, 1);
        assert!(
            spec.max_latency.as_secs_f64() < 100.0,
            "latency {}",
            spec.max_latency
        );
        // The cancelled primary's sunk compute is metered, not hidden.
        assert!(spec.wasted.as_secs_f64() > 30.0, "wasted {}", spec.wasted);
    }

    #[test]
    fn primary_win_cancels_speculative_duplicate() {
        let horizon = SimTime::from_secs(1_000_000);
        let mut world = GridWorld::new(23, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(lan_pc());
        let mut farm = FarmScheduler::new(&world, ctrl, speculate_early());
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        let add = |ghz: f64, world: &mut GridWorld, farm: &mut FarmScheduler| {
            let mut spec = lan_pc();
            spec.cpu_ghz = ghz;
            let (peer, _) = world.add_peer(spec.clone());
            farm.add_worker(
                world,
                WorkerSetup {
                    peer,
                    spec,
                    trace: AvailabilityTrace::always(horizon),
                    cache_bytes: 1 << 20,
                },
            )
        };
        let fast = add(2.0, &mut world, &mut farm);
        let slow = add(1.0, &mut world, &mut farm);
        let id = farm.submit(&mut world, job(60.0)); // 30 s primary, 60 s duplicate
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        assert_eq!(farm.job_completed_by(id), Some(fast));
        let s = farm.stats();
        assert_eq!(s.spec_dispatches, 1);
        assert_eq!(s.spec_wins, 0);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("trust.speculative_losses"), 1);
        assert!(reg.counter_value("trust.speculative_wasted_us") > 0);
        // The duplicate's slot was freed: the slow worker can still work.
        let _ = slow;
        assert!(s.wasted > Duration::ZERO);
    }

    #[test]
    fn speculative_win_over_returning_primary_keeps_the_redispatched_slot() {
        let horizon = SimTime::from_secs(1_000_000);
        let mut world = GridWorld::new(29, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(lan_pc());
        let mut farm = FarmScheduler::new(&world, ctrl, speculate_early());
        // The primary's worker advertises 3 GHz and delivers 1.2: 60 Gc
        // take 50 s. The backup is an honest 2 GHz PC behind a 10 s link,
        // so its copy computes over ~12–42 s and its output lands at ~52 s.
        let mut braggart = lan_pc();
        braggart.cpu_ghz = 3.0;
        let primary = add_always_up(braggart, &mut world, &mut farm);
        farm.set_worker_efficiency(primary, 0.4);
        let mut far = lan_pc();
        far.link.latency = Duration::from_secs(10);
        let backup = add_always_up(far, &mut world, &mut farm);

        let first = farm.submit(&mut world, job(60.0));
        world.sim.set_horizon(SimTime::from_secs(45));
        run_farm(&mut world, &mut farm);
        assert_eq!(farm.job_assignment(first), Some(primary));
        assert_eq!(
            farm.worker_active(backup),
            0,
            "duplicate finished computing"
        );
        // Two more jobs: one takes the backup's free slot, the other waits
        // for the primary's worker, which frees at ~50 s while the
        // primary's own output is still behind the duplicate's in flight.
        farm.submit(&mut world, job(60.0));
        let waiting = farm.submit(&mut world, job(60.0));
        world.sim.set_horizon(SimTime::from_secs(60));
        run_farm(&mut world, &mut farm);
        assert_eq!(farm.job_completed_by(first), Some(backup));
        assert_eq!(farm.stats().spec_wins, 1);
        assert_eq!(farm.job_assignment(waiting), Some(primary));
        assert!(
            farm.indexes_consistent(),
            "every worker must be filed with exactly the copies it holds"
        );
        assert_eq!(farm.worker_active(primary), 1);

        world.sim.set_horizon(horizon);
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
    }

    #[test]
    fn requeue_of_a_returning_primary_takes_its_duplicate_along() {
        // Regression: a job whose finished result was stranded by an owner
        // change went back to the queue with its speculative duplicate
        // still computing; the duplicate then completed the queued job,
        // which was dispatched, computed and counted a second time.
        let horizon = SimTime::from_secs(1_000_000);
        let mut world = GridWorld::new(31, DiscoveryMode::Flooding);
        let specs: Vec<orch::OrchestratorSpec> = (0..2)
            .map(|_| {
                let (peer, host) = world.add_peer(lan_pc());
                orch::OrchestratorSpec {
                    peer,
                    host,
                    eligibility: trust::orchestrator_eligibility(2.0, 1.0, 1.0),
                }
            })
            .collect();
        let set = orch::Orchestrators::new(&specs, 31, orch::OrchConfig::default());
        let mut farm =
            FarmScheduler::with_orchestrators(OrchestratorHandle::new(set), speculate_early());
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        // The primary's worker advertises 3 GHz and delivers 1.2 behind a
        // 10 s link: 60 Gc compute over ~10–60 s and the result is in
        // flight until ~70 s. The duplicate starts at ~12 s on an honest
        // 1 GHz LAN PC and computes until ~72 s.
        let mut far_braggart = lan_pc();
        far_braggart.cpu_ghz = 3.0;
        far_braggart.link.latency = Duration::from_secs(10);
        let primary = add_always_up(far_braggart, &mut world, &mut farm);
        farm.set_worker_efficiency(primary, 0.4);
        let mut slow = lan_pc();
        slow.cpu_ghz = 1.0;
        let backup = add_always_up(slow, &mut world, &mut farm);

        let first = farm.submit(&mut world, job(60.0));
        world.sim.set_horizon(SimTime::from_secs(20));
        run_farm(&mut world, &mut farm);
        assert_eq!(farm.stats().spec_dispatches, 1);
        let second = farm.submit(&mut world, job(60.0));
        assert!(farm.job_is_pending(second), "both slots are taken");
        world.sim.set_horizon(SimTime::from_secs(65));
        run_farm(&mut world, &mut farm);
        // The first job's result is on its way (its slot already went to
        // the second job); the duplicate is still computing.
        assert_eq!(farm.job_assignment(first), Some(primary));
        assert_eq!(farm.job_assignment(second), Some(primary));
        assert_eq!(farm.worker_active(primary), 1);
        assert_eq!(farm.worker_active(backup), 1);

        // The producer and the owner its result was addressed to both
        // vanish: the result is lost and the job must be recomputed.
        farm.handle(&mut world, GridEvent::WorkerDown(primary));
        let owner = farm.orchestrators().owner_index(first.0);
        let owner_host = farm.orchestrators().member_host(owner);
        world.net.set_online(owner_host, false);
        let set = farm.orchestrators().clone();
        set.set_member_down(&mut world.sim, &mut world.net, &mut world.p2p, owner);
        farm.on_orch_change(&mut world);
        world.sim.set_horizon(horizon);
        run_farm(&mut world, &mut farm);

        assert!(farm.all_done());
        assert_eq!(farm.worker_jobs_completed(backup), 2);
        let stats = farm.stats();
        assert_eq!((stats.jobs_done, stats.jobs_total), (2, 2));
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("farm.completions"), 2);
        assert_eq!(reg.counter_value("orch.returning_requeued"), 1);
    }

    #[test]
    fn events_of_an_abandoned_duplicate_cannot_finish_the_next_copy() {
        // The straggler (60 Gc: 20 s promised, 400 s real) is duplicated at
        // 40 s onto the honest worker, which would finish at ~70 s. At 50 s
        // the straggler's worker vanishes: the job migrates, its duplicate
        // is abandoned, and the new primary lands on the honest worker —
        // the seat the duplicate's `ComputeDone` is still in flight for.
        let (mut world, mut farm) = braggart_world(
            FarmConfig {
                trust: Some(GridTrustConfig {
                    straggler: Some(StragglerConfig::default()),
                    ..GridTrustConfig::default()
                }),
                ..FarmConfig::default()
            },
            0.05,
        );
        let id = farm.submit(&mut world, job(60.0));
        world.sim.set_horizon(SimTime::from_secs(50));
        run_farm(&mut world, &mut farm);
        assert_eq!(farm.stats().spec_dispatches, 1);
        farm.handle(&mut world, GridEvent::WorkerDown(WorkerId(0)));
        assert_eq!(farm.job_assignment(id), Some(WorkerId(1)));
        world.sim.set_horizon(SimTime::from_secs(1_000_000));
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        // The full 30 s from 50 s on, not cut short at 70 s.
        let lat = farm.job_latency(id).unwrap().as_secs_f64();
        assert!((80.0..81.0).contains(&lat), "latency {lat}");
        assert_eq!(farm.worker_jobs_completed(WorkerId(1)), 1);
    }

    #[test]
    fn blacklisted_worker_is_not_dispatched_to() {
        let (mut world, mut farm) = braggart_world(
            FarmConfig {
                trust: Some(GridTrustConfig::adaptive()),
                ..FarmConfig::default()
            },
            1.0,
        );
        // Worker 0 (the faster advert) keeps returning wrong results.
        for _ in 0..6 {
            farm.record_vote(WorkerId(0), false);
        }
        assert!(farm.worker_blacklisted(WorkerId(0)));
        assert!(!farm.worker_blacklisted(WorkerId(1)));
        let id = farm.submit(&mut world, job(20.0));
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        assert_eq!(farm.job_completed_by(id), Some(WorkerId(1)));
        assert_eq!(farm.worker_jobs_completed(WorkerId(0)), 0);
    }

    #[test]
    fn swarm_single_worker_falls_back_to_controller() {
        let (mut world, mut farm) = swarm_world(1);
        let obs = Obs::enabled();
        farm.set_obs(obs.clone());
        let key = ModuleKey::new("Render", 1);
        let blob = sized_blob("Render", 1_000);
        let blob_len = blob.len() as u64;
        farm.library.publish(key.clone(), blob);
        farm.submit(
            &mut world,
            JobSpec {
                module: Some(key),
                ..job(2.0)
            },
        );
        run_farm(&mut world, &mut farm);
        assert!(farm.all_done());
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("store.fallback_no_provider"), 1);
        assert_eq!(reg.counter_value("farm.module_bytes_sent"), blob_len);
        assert_eq!(reg.counter_value("store.bytes_from_peers"), 0);
    }
}
