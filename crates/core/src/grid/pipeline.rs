//! The `peer-to-peer` distribution policy: a vertically distributed group.
//!
//! §3.3: "Peer to Peer means distributing the group vertically i.e. each
//! unit in the group is distributed onto a separate resource and data is
//! passed between them." Stage links are JXTA-style named pipes, bound
//! exactly as §3.4 describes: each stage advertises an input pipe under the
//! connection's unique name and the upstream stage binds to it.
//!
//! Stages may churn: `WorkerDown`/`WorkerUp` events carrying the stage
//! index as the worker id take a stage off and back on line. Recovery is
//! end-to-end, as a stateless pipeline permits: every token carries an
//! **attempt** tag; when a stage fails, tokens at or in flight to that
//! stage are re-emitted from the controller with a bumped attempt, and any
//! stale copies still in the network are ignored on arrival.

use netsim::{Duration, HostSpec, SimTime};
use obs::{Event, Obs};
use orch::{Delta, OrchestratorHandle};
use p2p::{Incoming, PeerId, PipeId};

use crate::grid::{GridEvent, GridWorld, Scheduler, WorkerId};

/// One pipeline stage placed on a peer.
#[derive(Clone, Debug)]
pub struct StageSpec {
    pub peer: PeerId,
    pub spec: HostSpec,
    /// Compute per token, gigacycles.
    pub work_gigacycles: f64,
}

impl StageSpec {
    /// Size a stage from the admitted module it will run per token:
    /// interpreted TVM work, ~20 host cycles per source instruction per
    /// token sample (the same model the toolbox `TvmUnit` calibrates its
    /// work estimate with). Preparation is not charged here — it happened
    /// once at cache admission, not per token. The work model reads only
    /// the source instruction count.
    pub fn for_prepared_module(
        peer: PeerId,
        spec: HostSpec,
        prepared: &tvm::PreparedModule,
        token_samples: usize,
    ) -> StageSpec {
        let per_item = prepared.source_instructions().max(8) as f64;
        StageSpec {
            peer,
            spec,
            work_gigacycles: token_samples.max(1) as f64 * per_item * 20.0 / 1e9,
        }
    }
}

struct Stage {
    peer: PeerId,
    spec: HostSpec,
    work: f64,
    /// Input pipe this stage advertised.
    in_pipe: PipeId,
    /// Tokens waiting at the stage (FIFO), by full tag.
    queue: Vec<u64>,
    busy: bool,
    up: bool,
}

/// Where a token currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Position {
    /// Waiting at the controller for (re-)emission (stage 0 was down).
    Parked,
    /// On the wire toward a stage.
    InTransitTo(usize),
    /// Queued or computing at a stage.
    AtStage(usize),
    /// On the wire back to the controller.
    InTransitToResult,
    Done,
}

/// Per-token progress record.
#[derive(Clone, Copy, Debug)]
struct TokenRecord {
    emitted: Option<SimTime>,
    completed: Option<SimTime>,
    attempt: u32,
    position: Position,
    attempts_total: u32,
}

impl Default for TokenRecord {
    fn default() -> Self {
        TokenRecord {
            emitted: None,
            completed: None,
            attempt: 0,
            position: Position::Parked,
            attempts_total: 0,
        }
    }
}

fn tag(token: u64, attempt: u32) -> u64 {
    (u64::from(attempt) << 32) | token
}

fn untag(t: u64) -> (u64, u32) {
    (t & 0xFFFF_FFFF, (t >> 32) as u32)
}

/// Aggregate pipeline results.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub tokens_done: u64,
    pub first_emit: SimTime,
    pub last_done: SimTime,
    pub total_latency: Duration,
    pub max_latency: Duration,
    /// Total (re-)emissions across all tokens; equals token count when no
    /// churn occurred.
    pub emissions: u64,
}

impl PipelineStats {
    /// Completed tokens per second of pipeline wall time.
    pub fn throughput(&self) -> f64 {
        let span = self.last_done.since(self.first_emit).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.tokens_done as f64 / span
        }
    }

    pub fn mean_latency(&self) -> Duration {
        if self.tokens_done == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.tokens_done
        }
    }
}

/// Executes one group under the peer-to-peer policy.
pub struct PipelineScheduler {
    orch: OrchestratorHandle,
    tick_armed: bool,
    stages: Vec<Stage>,
    /// Pipe carrying final results back to the controller.
    result_pipe: PipeId,
    /// Bytes of a token on the wire (uniform per hop).
    token_bytes: u64,
    tokens: Vec<TokenRecord>,
    name: String,
    obs: Obs,
}

impl PipelineScheduler {
    /// Build the pipeline: advertise stage input pipes (named
    /// `<name>.stage<i>`, §3.4's unique connection labels), bind each
    /// upstream sender, and a result pipe back to the controller.
    pub fn new(
        world: &mut GridWorld,
        controller: PeerId,
        name: &str,
        stages: Vec<StageSpec>,
        token_bytes: u64,
    ) -> Self {
        let orch = OrchestratorHandle::single(controller, world.p2p.host_of(controller));
        Self::with_orchestrators(world, orch, name, stages, token_bytes)
    }

    /// Build the pipeline under a decentralised orchestrator set: the
    /// current leader emits tokens and receives results; on failover the
    /// endpoint pipes migrate to the new leader and in-flight tokens are
    /// re-emitted under a fresh attempt.
    pub fn with_orchestrators(
        world: &mut GridWorld,
        orch: OrchestratorHandle,
        name: &str,
        stages: Vec<StageSpec>,
        token_bytes: u64,
    ) -> Self {
        let controller = orch.leader_peer();
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let mut built = Vec::with_capacity(stages.len());
        let mut prev = controller;
        for (i, s) in stages.iter().enumerate() {
            let pipe_name = format!("{name}.stage{i}");
            let in_pipe = world
                .p2p
                .pipes
                .advertise(&pipe_name, s.peer)
                .expect("unique stage pipe names");
            world
                .p2p
                .pipes
                .bind(in_pipe, prev)
                .expect("fresh pipe binds");
            built.push(Stage {
                peer: s.peer,
                spec: s.spec.clone(),
                work: s.work_gigacycles,
                in_pipe,
                queue: Vec::new(),
                busy: false,
                up: true,
            });
            prev = s.peer;
        }
        let result_pipe = world
            .p2p
            .pipes
            .advertise(&format!("{name}.result"), controller)
            .expect("unique result pipe name");
        world
            .p2p
            .pipes
            .bind(result_pipe, prev)
            .expect("fresh pipe binds");
        PipelineScheduler {
            orch,
            tick_armed: false,
            stages: built,
            result_pipe,
            token_bytes,
            tokens: Vec::new(),
            name: name.to_string(),
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle; emissions, re-emissions, completed
    /// tokens and end-to-end latency are recorded through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Is the stage currently up? (Chaos invariants: a drained pipeline
    /// with every stage up must have completed all its tokens.)
    pub fn stage_is_up(&self, stage: usize) -> bool {
        self.stages[stage].up
    }

    /// Schedule emission of `count` tokens spaced `interval` apart,
    /// starting now.
    pub fn emit_tokens(&mut self, world: &mut GridWorld, count: u64, interval: Duration) {
        for t in 0..count {
            self.tokens.push(TokenRecord::default());
            world
                .sim
                .schedule(interval * t, GridEvent::EmitToken { token: t });
        }
        self.arm_tick(world);
    }

    /// Arm the anti-entropy tick of a multi-orchestrator set.
    fn arm_tick(&mut self, world: &mut GridWorld) {
        if !self.tick_armed && !self.orch.is_single() {
            self.tick_armed = true;
            world
                .sim
                .schedule(self.orch.anti_entropy_interval(), GridEvent::OrchTick);
        }
    }

    /// The orchestrator set driving this pipeline.
    pub fn orchestrators(&self) -> &OrchestratorHandle {
        &self.orch
    }

    /// The orchestrator set changed (election, crash, heal): migrate the
    /// endpoint pipes to the new leader and restart every unfinished token
    /// under a fresh attempt — copies still in flight toward the old
    /// leader (or computing under the old attempt) become stale and are
    /// dropped on arrival, so each token still completes exactly once.
    pub fn on_orch_change(&mut self, world: &mut GridWorld) {
        let leader = self.orch.leader_peer();
        // The successor re-advertises the result pipe and takes over the
        // emitter binding of stage 0 (§3.4's named-pipe rebinding, driven
        // by failover instead of group construction).
        let _ = world.p2p.pipes.rebind_receiver(self.result_pipe, leader);
        let _ = world
            .p2p
            .pipes
            .rebind_sender(self.stages[0].in_pipe, leader);
        let unfinished: Vec<u64> = self
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, r)| r.emitted.is_some() && r.position != Position::Done)
            .map(|(i, _)| i as u64)
            .collect();
        for t in unfinished {
            self.obs.incr("orch.pipeline_reemits");
            self.reemit(world, t);
        }
        self.arm_tick(world);
    }

    fn emit(&mut self, world: &mut GridWorld, token: u64) {
        let rec = &mut self.tokens[token as usize];
        if rec.position == Position::Done {
            return;
        }
        if rec.emitted.is_none() {
            rec.emitted = Some(world.sim.now());
        }
        rec.attempts_total += 1;
        let attempt = rec.attempt;
        let full = tag(token, rec.attempt);
        let pipe = self.stages[0].in_pipe;
        let emitter = self.orch.leader_peer();
        let sent = world
            .p2p
            .send_pipe(
                &mut world.sim,
                &mut world.net,
                emitter,
                pipe,
                full,
                self.token_bytes,
            )
            .unwrap_or(false);
        let rec = &mut self.tokens[token as usize];
        if sent {
            rec.position = Position::InTransitTo(0);
            self.obs.incr("pipeline.emissions");
            if attempt > 0 {
                self.obs.incr("pipeline.reemissions");
            }
            let event = Event::PipelineEmit { token, attempt };
            self.obs.event(world.sim.now().as_micros(), event);
        } else {
            // Stage 0 is offline: park until it returns.
            rec.position = Position::Parked;
            self.obs.incr("pipeline.parked");
        }
    }

    /// Re-emit a token with a bumped attempt (stale copies are ignored).
    fn reemit(&mut self, world: &mut GridWorld, token: u64) {
        self.tokens[token as usize].attempt += 1;
        self.emit(world, token);
    }

    fn start_next(&mut self, world: &mut GridWorld, stage: usize) {
        let s = &mut self.stages[stage];
        if s.busy || !s.up || s.queue.is_empty() {
            return;
        }
        let full = s.queue.remove(0);
        s.busy = true;
        let exec = s.spec.exec_time(s.work);
        world
            .sim
            .schedule(exec, GridEvent::StageComputeDone { stage, token: full });
    }

    pub fn all_done(&self) -> bool {
        !self.tokens.is_empty() && self.tokens.iter().all(|t| t.completed.is_some())
    }

    /// Emission-to-completion latency of one token, if it finished.
    pub fn token_latency(&self, token: u64) -> Option<Duration> {
        let t = self.tokens.get(token as usize)?;
        match (t.emitted, t.completed) {
            (Some(e), Some(c)) => Some(c.since(e)),
            _ => None,
        }
    }

    pub fn stats(&self) -> PipelineStats {
        let mut st = PipelineStats::default();
        let mut first: Option<SimTime> = None;
        for t in &self.tokens {
            st.emissions += u64::from(t.attempts_total);
            if let (Some(e), Some(c)) = (t.emitted, t.completed) {
                st.tokens_done += 1;
                st.last_done = st.last_done.max(c);
                first = Some(first.map_or(e, |f: SimTime| f.min(e)));
                let lat = c.since(e);
                st.total_latency += lat;
                st.max_latency = st.max_latency.max(lat);
            }
        }
        st.first_emit = first.unwrap_or(SimTime::ZERO);
        st
    }
}

impl Scheduler for PipelineScheduler {
    /// Token emissions, stage completions, stage churn and the orchestrator
    /// tick.
    fn handle(&mut self, world: &mut GridWorld, ev: GridEvent) {
        match ev {
            GridEvent::EmitToken { token } => {
                self.emit(world, token);
            }
            GridEvent::StageComputeDone { stage, token: full } => {
                let (token, attempt) = untag(full);
                if self.tokens[token as usize].attempt != attempt {
                    // A stale attempt finished computing (a failover
                    // re-emitted the token mid-compute). The result is
                    // discarded, but the compute slot still frees up —
                    // otherwise the stage stays busy forever and every
                    // queued token deadlocks behind it.
                    if self.stages[stage].up {
                        self.stages[stage].busy = false;
                        self.start_next(world, stage);
                    }
                    return;
                }
                if !self.stages[stage].up {
                    return; // completed exactly as the stage died
                }
                self.stages[stage].busy = false;
                // Forward downstream.
                let from = self.stages[stage].peer;
                let (pipe, to_result) = if stage + 1 < self.stages.len() {
                    (self.stages[stage + 1].in_pipe, false)
                } else {
                    (self.result_pipe, true)
                };
                let sent = world
                    .p2p
                    .send_pipe(
                        &mut world.sim,
                        &mut world.net,
                        from,
                        pipe,
                        full,
                        self.token_bytes,
                    )
                    .unwrap_or(false);
                if sent {
                    self.tokens[token as usize].position = if to_result {
                        Position::InTransitToResult
                    } else {
                        Position::InTransitTo(stage + 1)
                    };
                } else {
                    // The next stage is offline right now: restart the
                    // token from the controller.
                    self.reemit(world, token);
                }
                self.start_next(world, stage);
            }
            GridEvent::WorkerDown(WorkerId(s)) => {
                let s = s as usize;
                if s >= self.stages.len() {
                    return;
                }
                self.obs.incr("pipeline.stage_down");
                let event = Event::PipelineStageDown { stage: s as u32 };
                self.obs.event(world.sim.now().as_micros(), event);
                self.stages[s].up = false;
                self.stages[s].busy = false;
                self.stages[s].queue.clear();
                world
                    .net
                    .set_online(world.p2p.host_of(self.stages[s].peer), false);
                // Restart every token lost with the stage.
                let lost: Vec<u64> = self
                    .tokens
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        r.position == Position::AtStage(s) || r.position == Position::InTransitTo(s)
                    })
                    .map(|(i, _)| i as u64)
                    .collect();
                for t in lost {
                    self.reemit(world, t);
                }
            }
            GridEvent::WorkerUp(WorkerId(s)) => {
                let s = s as usize;
                if s >= self.stages.len() {
                    return;
                }
                self.stages[s].up = true;
                world
                    .net
                    .set_online(world.p2p.host_of(self.stages[s].peer), true);
                // Re-emit parked tokens (stage 0 outages park them). A
                // fresh record is also `Parked`, so require a prior
                // emission — otherwise a stage recovery before a token's
                // scheduled first emission would send it twice under the
                // same attempt tag.
                let parked: Vec<u64> = self
                    .tokens
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        r.position == Position::Parked
                            && r.completed.is_none()
                            && r.emitted.is_some()
                    })
                    .map(|(i, _)| i as u64)
                    .collect();
                for t in parked {
                    self.reemit(world, t);
                }
            }
            GridEvent::OrchTick => {
                let converged =
                    self.orch
                        .anti_entropy_round(&mut world.sim, &mut world.net, &mut world.p2p);
                if (self.all_done() && converged) || self.orch.tick_exhausted() {
                    self.tick_armed = false;
                } else {
                    world
                        .sim
                        .schedule(self.orch.anti_entropy_interval(), GridEvent::OrchTick);
                }
            }
            _ => {}
        }
    }

    /// Pipe deliveries move tokens on; gossip goes to the orchestrator set.
    fn on_incoming(&mut self, world: &mut GridWorld, inc: Incoming) {
        if let Incoming::Orch {
            to,
            seq,
            count,
            sync,
        } = inc
        {
            self.orch.deliver(to, seq, count, sync);
            return;
        }
        if let Incoming::PipeData {
            pipe, tag: full, ..
        } = inc
        {
            let (token, attempt) = untag(full);
            let Some(rec) = self.tokens.get_mut(token as usize) else {
                return;
            };
            if rec.attempt != attempt || rec.position == Position::Done {
                return; // stale copy from before a retransmission
            }
            if pipe == self.result_pipe {
                let now = world.sim.now();
                rec.completed = Some(now);
                rec.position = Position::Done;
                let latency = rec.emitted.map(|e| now.since(e));
                self.obs.incr("pipeline.tokens_done");
                if let Some(lat) = latency {
                    self.obs
                        .observe("pipeline.token_latency_us", lat.as_micros());
                }
                let event = Event::PipelineTokenDone { token, attempt };
                self.obs.event(now.as_micros(), event);
                self.orch.record(
                    &mut world.sim,
                    &mut world.net,
                    &mut world.p2p,
                    Delta::Complete { job: token },
                );
                return;
            }
            if let Some(idx) = self.stages.iter().position(|s| s.in_pipe == pipe) {
                if !self.stages[idx].up {
                    return; // arrived at a dead stage (possible same-instant race)
                }
                rec.position = Position::AtStage(idx);
                self.stages[idx].queue.push(full);
                self.start_next(world, idx);
            }
        }
    }
}

/// Drive the world to completion, routing overlay events through the
/// overlay and surfacing pipe deliveries to the pipeline.
pub fn run_pipeline(world: &mut GridWorld, pl: &mut PipelineScheduler) {
    while world.step(pl) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::avail::AvailabilityTrace;
    use netsim::HostSpec;
    use p2p::DiscoveryMode;

    #[test]
    fn stage_spec_sized_from_prepared_module() {
        let module =
            tvm::asm::assemble(".module M 1 1 1\n.func main 0\n push 1\n outpush 0\n halt\n")
                .unwrap();
        let prepared = tvm::PreparedModule::from_blob(&module.to_blob()).unwrap();
        let mut world = GridWorld::new(5, DiscoveryMode::Flooding);
        let (peer, _) = world.add_peer(HostSpec::lan_workstation());
        let small =
            StageSpec::for_prepared_module(peer, HostSpec::lan_workstation(), &prepared, 1_000);
        let big =
            StageSpec::for_prepared_module(peer, HostSpec::lan_workstation(), &prepared, 100_000);
        assert!(small.work_gigacycles > 0.0);
        assert!((big.work_gigacycles / small.work_gigacycles - 100.0).abs() < 1e-9);
    }

    fn build(n_stages: usize, work: f64, token_bytes: u64) -> (GridWorld, PipelineScheduler) {
        let mut world = GridWorld::new(21, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let mut stages = Vec::new();
        for _ in 0..n_stages {
            let spec = HostSpec::lan_workstation();
            let (peer, _) = world.add_peer(spec.clone());
            stages.push(StageSpec {
                peer,
                spec,
                work_gigacycles: work,
            });
        }
        let pl = PipelineScheduler::new(&mut world, ctrl, "test", stages, token_bytes);
        (world, pl)
    }

    #[test]
    fn tokens_flow_through_all_stages() {
        let (mut world, mut pl) = build(3, 2.0, 1_000); // 1 s/stage at 2 GHz
        pl.emit_tokens(&mut world, 5, Duration::ZERO);
        run_pipeline(&mut world, &mut pl);
        assert!(pl.all_done());
        let st = pl.stats();
        assert_eq!(st.tokens_done, 5);
        assert_eq!(st.emissions, 5, "no retransmissions without churn");
        // Latency of the first token: ~3 s of compute + small transfers.
        assert!(st.max_latency.as_secs_f64() < 20.0);
    }

    #[test]
    fn recovery_before_first_emission_does_not_duplicate_tokens() {
        // Regression (found by the chaos sweep): a WorkerUp landing while
        // later tokens still await their scheduled first emission used to
        // re-emit those fresh records (default position is Parked), and
        // the scheduled emission then sent a second copy under the same
        // attempt tag — every affected token completed twice.
        let (mut world, mut pl) = build(3, 2.0, 1_000);
        pl.emit_tokens(&mut world, 5, Duration::from_secs(1));
        world
            .sim
            .schedule(Duration::from_millis(500), GridEvent::WorkerUp(WorkerId(0)));
        run_pipeline(&mut world, &mut pl);
        assert!(pl.all_done());
        let st = pl.stats();
        assert_eq!(st.tokens_done, 5);
        assert_eq!(st.emissions, 5, "a no-op recovery must not re-emit");
    }

    #[test]
    fn pipeline_throughput_set_by_slowest_stage() {
        // 4 stages of 1 s each: steady-state throughput ~1 token/s even
        // though per-token latency is ~4 s.
        let (mut world, mut pl) = build(4, 2.0, 1_000);
        pl.emit_tokens(&mut world, 20, Duration::ZERO);
        run_pipeline(&mut world, &mut pl);
        let st = pl.stats();
        assert_eq!(st.tokens_done, 20);
        let thr = st.throughput();
        assert!((0.8..1.1).contains(&thr), "throughput {thr}");
        assert!(st.mean_latency().as_secs_f64() > 3.9);
    }

    #[test]
    fn single_stage_behaves_like_remote_call() {
        let (mut world, mut pl) = build(1, 4.0, 10_000); // 2 s at 2 GHz
        pl.emit_tokens(&mut world, 1, Duration::ZERO);
        run_pipeline(&mut world, &mut pl);
        let st = pl.stats();
        assert_eq!(st.tokens_done, 1);
        assert!(
            (2.0..2.5).contains(&st.max_latency.as_secs_f64()),
            "{}",
            st.max_latency
        );
    }

    #[test]
    fn spaced_emission_reduces_queueing() {
        let burst = {
            let (mut world, mut pl) = build(2, 2.0, 1_000);
            pl.emit_tokens(&mut world, 10, Duration::ZERO);
            run_pipeline(&mut world, &mut pl);
            pl.stats().mean_latency()
        };
        let spaced = {
            let (mut world, mut pl) = build(2, 2.0, 1_000);
            pl.emit_tokens(&mut world, 10, Duration::from_secs(2));
            run_pipeline(&mut world, &mut pl);
            pl.stats().mean_latency()
        };
        assert!(
            spaced.as_secs_f64() < burst.as_secs_f64(),
            "spaced {spaced} vs burst {burst}"
        );
    }

    #[test]
    fn stage_pipe_names_are_unique_per_pipeline() {
        let mut world = GridWorld::new(3, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let (p1, _) = world.add_peer(HostSpec::lan_workstation());
        let mk = |world: &mut GridWorld, name: &str| {
            PipelineScheduler::new(
                world,
                ctrl,
                name,
                vec![StageSpec {
                    peer: p1,
                    spec: HostSpec::lan_workstation(),
                    work_gigacycles: 1.0,
                }],
                100,
            )
        };
        let a = mk(&mut world, "jobA");
        let b = mk(&mut world, "jobB");
        assert_ne!(a.stages[0].in_pipe, b.stages[0].in_pipe);
    }

    fn build_churny(
        stage_traces: Vec<AvailabilityTrace>,
        work: f64,
    ) -> (GridWorld, PipelineScheduler) {
        let mut world = GridWorld::new(77, DiscoveryMode::Flooding);
        let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
        let mut stages = Vec::new();
        for _ in 0..stage_traces.len() {
            let spec = HostSpec::lan_workstation();
            let (peer, _) = world.add_peer(spec.clone());
            stages.push(StageSpec {
                peer,
                spec,
                work_gigacycles: work,
            });
        }
        let pl = PipelineScheduler::new(&mut world, ctrl, "churny", stages, 1_000);
        // Each trace's transitions reach the pipeline as `WorkerDown` /
        // `WorkerUp` events for its stage, the way the chaos harness churns
        // stages.
        for (i, t) in stage_traces.iter().enumerate() {
            let stage = WorkerId(i as u32);
            if !t.is_up(SimTime::ZERO) {
                world
                    .sim
                    .schedule_at(SimTime::ZERO, GridEvent::WorkerDown(stage));
            }
            for &(start, end) in t.intervals() {
                if start > SimTime::ZERO {
                    world.sim.schedule_at(start, GridEvent::WorkerUp(stage));
                }
                if end < t.horizon() {
                    world.sim.schedule_at(end, GridEvent::WorkerDown(stage));
                }
            }
        }
        (world, pl)
    }

    #[test]
    fn stage_outage_retransmits_and_all_tokens_complete() {
        let horizon = SimTime::from_secs(10_000);
        // Stage 1 is down between t=5 s and t=60 s.
        let traces = vec![
            AvailabilityTrace::always(horizon),
            AvailabilityTrace::from_intervals(
                vec![
                    (SimTime::ZERO, SimTime::from_secs(5)),
                    (SimTime::from_secs(60), horizon),
                ],
                horizon,
            ),
            AvailabilityTrace::always(horizon),
        ];
        let (mut world, mut pl) = build_churny(traces, 2.0); // 1 s/stage
        pl.emit_tokens(&mut world, 10, Duration::from_secs(1));
        run_pipeline(&mut world, &mut pl);
        assert!(pl.all_done(), "{:?}", pl.stats());
        let st = pl.stats();
        assert_eq!(st.tokens_done, 10);
        assert!(
            st.emissions > 10,
            "outage must force retransmissions: {st:?}"
        );
        // Tokens caught by the outage waited for the stage to return.
        assert!(st.max_latency.as_secs_f64() > 50.0, "{st:?}");
    }

    #[test]
    fn first_stage_outage_parks_tokens_until_recovery() {
        let horizon = SimTime::from_secs(10_000);
        let traces = vec![AvailabilityTrace::from_intervals(
            vec![(SimTime::from_secs(30), horizon)],
            horizon,
        )];
        let (mut world, mut pl) = build_churny(traces, 2.0);
        pl.emit_tokens(&mut world, 3, Duration::ZERO);
        run_pipeline(&mut world, &mut pl);
        assert!(pl.all_done());
        let st = pl.stats();
        // Everything waited for t=30 s.
        assert!(st.max_latency.as_secs_f64() >= 30.0, "{st:?}");
    }

    #[test]
    fn churn_free_traces_behave_like_plain_pipeline() {
        let horizon = SimTime::from_secs(10_000);
        let traces = vec![AvailabilityTrace::always(horizon); 3];
        let (mut world, mut pl) = build_churny(traces, 2.0);
        pl.emit_tokens(&mut world, 5, Duration::ZERO);
        run_pipeline(&mut world, &mut pl);
        let st = pl.stats();
        assert_eq!(st.tokens_done, 5);
        assert_eq!(st.emissions, 5);
    }
}
