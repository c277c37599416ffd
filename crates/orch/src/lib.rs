//! `triana-orch` — decentralised orchestration for the Consumer Grid.
//!
//! The paper's grid is fully peer-to-peer *except* for one hub: a single
//! Triana Controller owns the task graph, and when it dies the whole run
//! dies with it (ROADMAP item 2 calls it "the last hub in an otherwise P2P
//! system"). Following the decentralised-orchestration line of work
//! (Jaradat et al.; Bui et al.'s diffusion-based task management), this
//! crate replaces the hub with a small set of **peer orchestrators**:
//!
//! * the task graph is **partitioned**: every unit is owned (data-plane:
//!   inputs, module blobs, results) by the orchestrator with the best
//!   trust/locality score ([`trust::orchestrator_eligibility`] plus a
//!   per-job deterministic jitter), so no single uplink carries the farm;
//! * scheduler state — the dispatch table, completion set, and checkpoint
//!   heads — is **replicated** as an ordered [`Delta`] log: the elected
//!   leader pushes each delta to every follower as a real gossip message
//!   over the overlay, and periodic seeded **anti-entropy** rounds repair
//!   whatever crashes, cuts, or offline receivers lost;
//! * when the active orchestrator crashes or is partitioned away, a
//!   **deterministic election** ([`election::elect`]) promotes the best
//!   reachable member; in-flight results addressed to the dead leader are
//!   detected by **epoch stamps** and re-driven, giving exactly-once
//!   completion under failover.
//!
//! ### Modelling note
//!
//! As everywhere in this workspace, the network moves *byte counts*, not
//! serialized state: the authoritative log lives in [`Orchestrators`], and
//! each member's [`Replica`] applies only the entries whose gossip
//! deliveries actually reached it. Data-plane routing reads the
//! authoritative state; the chaos invariant `no-orphaned-partition` then
//! *proves* every surviving replica converged to it at quiesce, which is
//! what entitles the model to that shortcut.

pub mod election;
pub mod replica;

pub use election::{elect, Elector};
pub use replica::{Delta, Replica};

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use netsim::{Duration, HostId, Network, Sim};
use obs::{Counter, Obs};
use p2p::{Message, P2p, P2pEvent, PeerId};

/// One orchestrator member at construction time.
#[derive(Clone, Copy, Debug)]
pub struct OrchestratorSpec {
    pub peer: PeerId,
    pub host: HostId,
    /// Election/ownership score, typically from
    /// [`trust::orchestrator_eligibility`].
    pub eligibility: f64,
}

/// Tunables for the replication layer.
#[derive(Clone, Copy, Debug)]
pub struct OrchConfig {
    /// Period of the anti-entropy gossip tick.
    pub anti_entropy: Duration,
    /// Safety cap on anti-entropy rounds per run (prevents a sim from
    /// ticking forever if convergence is unreachable).
    pub max_rounds: u64,
}

impl Default for OrchConfig {
    fn default() -> Self {
        OrchConfig {
            anti_entropy: Duration::from_millis(1_500),
            max_rounds: 100_000,
        }
    }
}

/// A member of the orchestrator set.
#[derive(Clone, Copy, Debug)]
pub struct Member {
    pub peer: PeerId,
    pub host: HostId,
    pub eligibility: f64,
    /// Reachable from the grid's perspective (false while crashed *or*
    /// partitioned away).
    pub up: bool,
    /// Bumped on every up/down transition; embedded in output stamps so
    /// deliveries addressed to a previous incarnation are detectable.
    pub epoch: u64,
}

/// What a membership change did (for callers that resume schedulers).
#[derive(Clone, Debug, Default)]
pub struct MembershipChange {
    /// The change deposed the active leader (an election ran, or the set
    /// went leaderless).
    pub was_leader: bool,
    /// A revival re-established a leader after a leaderless spell.
    pub elected: bool,
    /// Jobs whose data-plane owner was moved to a reachable member.
    pub reassigned: Vec<u64>,
}

obs::handles! {
    /// The `orch.*` counters, resolved once in [`Orchestrators::set_obs`].
    struct OrchMetrics {
        deltas_broadcast: Counter = "orch.deltas_broadcast",
        delta_send_failures: Counter = "orch.delta_send_failures",
        deltas_applied: Counter = "orch.deltas_applied",
        anti_entropy_repairs: Counter = "orch.anti_entropy_repairs",
        gossip_rounds: Counter = "orch.gossip_rounds",
        owners_reassigned: Counter = "orch.owners_reassigned",
        elections: Counter = "orch.elections",
        handoffs: Counter = "orch.handoffs",
        member_down: Counter = "orch.member_down",
        member_up: Counter = "orch.member_up",
    }
}

/// The orchestrator set: membership, the elected leader, the authoritative
/// delta log, and one gossip-fed [`Replica`] per member.
pub struct Orchestrators {
    cfg: OrchConfig,
    members: Vec<Member>,
    leader: usize,
    has_leader: bool,
    /// Election epoch: bumped on every leadership change.
    epoch: u64,
    log: Vec<Delta>,
    replicas: Vec<Replica>,
    /// Fully-applied view of `log`, used for data-plane routing (see the
    /// crate-level modelling note).
    authority: Replica,
    /// Salt for the deterministic per-job locality jitter.
    seed: u64,
    rounds: u64,
    metrics: OrchMetrics,
}

impl Orchestrators {
    /// Build the set and run the bootstrap election (not counted in
    /// `orch.elections`; there is no handoff at birth).
    pub fn new(specs: &[OrchestratorSpec], seed: u64, cfg: OrchConfig) -> Self {
        assert!(!specs.is_empty(), "an orchestrator set needs members");
        let members: Vec<Member> = specs
            .iter()
            .map(|s| Member {
                peer: s.peer,
                host: s.host,
                eligibility: s.eligibility,
                up: true,
                epoch: 0,
            })
            .collect();
        let leader = elect(&view(&members)).expect("all members start up");
        let n = members.len();
        Orchestrators {
            cfg,
            members,
            leader,
            has_leader: true,
            epoch: 0,
            log: Vec::new(),
            replicas: vec![Replica::default(); n],
            authority: Replica::default(),
            seed,
            rounds: 0,
            metrics: OrchMetrics::default(),
        }
    }

    /// The classic single-controller grid, expressed as a one-member set:
    /// behaves exactly like the pre-decentralisation scheduler (no gossip,
    /// no elections, every unit owned by the controller).
    pub fn single(peer: PeerId, host: HostId) -> Self {
        Orchestrators::new(
            &[OrchestratorSpec {
                peer,
                host,
                eligibility: 1.0,
            }],
            0,
            OrchConfig::default(),
        )
    }

    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = OrchMetrics::new(&obs);
    }

    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    pub fn is_single(&self) -> bool {
        self.members.len() == 1
    }

    pub fn members(&self) -> &[Member] {
        &self.members
    }

    pub fn member_up(&self, idx: usize) -> bool {
        self.members[idx].up
    }

    /// Index of the member whose peer is `peer`, if any.
    pub fn member_index(&self, peer: PeerId) -> Option<usize> {
        self.members.iter().position(|m| m.peer == peer)
    }

    pub fn leader_index(&self) -> usize {
        self.leader
    }

    pub fn has_leader(&self) -> bool {
        self.has_leader
    }

    pub fn leader_peer(&self) -> PeerId {
        self.members[self.leader].peer
    }

    pub fn leader_host(&self) -> HostId {
        self.members[self.leader].host
    }

    /// Election epoch (leadership generation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn anti_entropy_interval(&self) -> Duration {
        self.cfg.anti_entropy
    }

    /// The anti-entropy round budget ([`OrchConfig::max_rounds`]) is spent.
    /// Schedulers use this to stop re-arming the tick when a run cannot
    /// reach quiescence — the terminating backstop against a livelocked
    /// world ticking forever.
    pub fn tick_exhausted(&self) -> bool {
        self.rounds >= self.cfg.max_rounds
    }

    /// The authoritative replicated state (fully-applied log).
    pub fn authority(&self) -> &Replica {
        &self.authority
    }

    /// Member `idx`'s gossip-fed replica.
    pub fn replica(&self, idx: usize) -> &Replica {
        &self.replicas[idx]
    }

    pub fn log_len(&self) -> u64 {
        self.log.len() as u64
    }

    pub fn log(&self) -> &[Delta] {
        &self.log
    }

    /// Every reachable member's replica has applied the full log.
    pub fn converged(&self) -> bool {
        self.members
            .iter()
            .zip(&self.replicas)
            .all(|(m, r)| !m.up || r.lag(self.log.len() as u64) == 0)
    }

    // --- ownership partitioning ---

    /// Deterministic per-(job, member) locality jitter in `[0.75, 1.25)`:
    /// spreads ownership across comparably-eligible members without an RNG
    /// draw (so ownership is a pure function of job id and seed).
    fn jitter(&self, job: u64, idx: usize) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in [job, idx as u64, self.seed] {
            for byte in b.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
        0.75 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn pick_owner(&self, job: u64) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (i, m) in self.members.iter().enumerate() {
            if !m.up {
                continue;
            }
            let score = m.eligibility * self.jitter(job, i);
            match best {
                Some((_, s)) if s >= score => {}
                _ => best = Some((i, score)),
            }
        }
        // With every member down, ownership parks on the (stale) leader;
        // the next revival reassigns orphans before work resumes.
        best.map_or(self.leader, |(i, _)| i)
    }

    /// Assign `job` a data-plane owner and replicate the decision.
    pub fn assign_owner<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        job: u64,
    ) -> usize {
        let owner = self.pick_owner(job);
        self.record(
            sim,
            net,
            p2p,
            Delta::Own {
                job,
                owner: owner as u32,
            },
        );
        owner
    }

    /// Current owner of `job` (member index). Falls back to the leader for
    /// jobs that were never assigned (e.g. streamed submissions).
    pub fn owner_index(&self, job: u64) -> usize {
        self.authority
            .owners
            .get(&job)
            .map_or(self.leader, |&o| o as usize)
    }

    pub fn owner_peer(&self, job: u64) -> PeerId {
        self.members[self.owner_index(job)].peer
    }

    /// Host whose uplink carries `job`'s data-plane transfers.
    pub fn owner_host(&self, job: u64) -> HostId {
        self.members[self.owner_index(job)].host
    }

    /// Stamp for an in-flight delivery addressed to `job`'s owner: owner
    /// index plus the owner's incarnation epoch. A membership change in
    /// between invalidates the stamp.
    pub fn output_stamp(&self, job: u64) -> u64 {
        let idx = self.owner_index(job);
        ((idx as u64) << 48) | (self.members[idx].epoch & 0xffff_ffff_ffff)
    }

    /// Is a delivery carrying `stamp` still addressed to `job`'s live
    /// owner?
    pub fn stamp_valid(&self, job: u64, stamp: u64) -> bool {
        let idx = self.owner_index(job);
        self.members[idx].up && self.output_stamp(job) == stamp
    }

    // --- replication ---

    /// Append a delta to the log, apply it to the authority and the
    /// leader's replica, and gossip it to every reachable follower.
    pub fn record<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        d: Delta,
    ) {
        let seq = self.log.len() as u64;
        self.log.push(d);
        self.authority.catch_up(&self.log, seq, 1);
        if self.is_single() {
            self.replicas[0].catch_up(&self.log, seq, 1);
            return;
        }
        if !self.has_leader {
            // Leaderless interval: the write is queued in the log (the
            // authority view) and reaches replicas via anti-entropy once a
            // leader is re-established.
            return;
        }
        self.replicas[self.leader].catch_up(&self.log, seq, 1);
        let from = self.members[self.leader].peer;
        for i in 0..self.members.len() {
            if i == self.leader || !self.members[i].up {
                continue;
            }
            self.metrics.deltas_broadcast.incr();
            let msg = Message::OrchDelta {
                seq,
                bytes: d.wire_bytes(),
            };
            if !p2p.gossip(sim, net, from, self.members[i].peer, msg) {
                self.metrics.delta_send_failures.incr();
            }
        }
    }

    /// A gossip delivery surfaced by the overlay
    /// ([`p2p::Incoming::Orch`]): apply it to the receiving member's
    /// replica. Returns how many log entries the member incorporated.
    pub fn deliver(&mut self, to: PeerId, seq: u64, count: u64, sync: bool) -> u64 {
        let Some(idx) = self.member_index(to) else {
            return 0;
        };
        let n = if sync {
            let n = self.replicas[idx].catch_up(&self.log, seq, count);
            self.metrics.anti_entropy_repairs.add(n);
            n
        } else {
            self.replicas[idx].deliver(&self.log, seq)
        };
        self.metrics.deltas_applied.add(n);
        n
    }

    /// One periodic anti-entropy round: the leader pushes a catch-up batch
    /// to every reachable lagging follower. Returns whether every
    /// reachable replica had already converged (callers keep ticking until
    /// this holds at quiesce).
    pub fn anti_entropy_round<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
    ) -> bool {
        if self.is_single() {
            return true;
        }
        self.rounds += 1;
        if self.rounds > self.cfg.max_rounds {
            return true; // safety cap: stop driving the sim
        }
        self.metrics.gossip_rounds.incr();
        if !self.has_leader {
            return false;
        }
        self.catch_up_leader();
        let log_len = self.log.len() as u64;
        let from = self.members[self.leader].peer;
        let mut converged = true;
        for i in 0..self.members.len() {
            if i == self.leader || !self.members[i].up {
                continue;
            }
            let behind = self.replicas[i].lag(log_len);
            if behind == 0 {
                continue;
            }
            converged = false;
            let from_seq = self.replicas[i].applied();
            let msg = Message::OrchSync {
                from_seq,
                count: behind,
                bytes: behind * 24,
            };
            p2p.gossip(sim, net, from, self.members[i].peer, msg);
        }
        converged && self.replicas[self.leader].lag(log_len) == 0
    }

    /// Replay any log suffix the leader's own replica is missing: the
    /// state-transfer half of a handoff. An elected member that was down
    /// while writes were logged must converge before it can resume
    /// schedules or repair anyone else — otherwise anti-entropy (which
    /// only pushes leader→follower) can never close its gap.
    fn catch_up_leader(&mut self) -> u64 {
        let log_len = self.log.len() as u64;
        let behind = self.replicas[self.leader].lag(log_len);
        if behind == 0 {
            return 0;
        }
        let from = self.replicas[self.leader].applied();
        let n = self.replicas[self.leader].catch_up(&self.log, from, behind);
        self.metrics.anti_entropy_repairs.add(n);
        self.metrics.deltas_applied.add(n);
        n
    }

    // --- membership & election ---

    fn reassign_orphans<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
    ) -> Vec<u64> {
        if !self.members.iter().any(|m| m.up) {
            return Vec::new();
        }
        let orphans: Vec<u64> = self
            .authority
            .owners
            .iter()
            .filter(|&(job, &owner)| {
                !self.members[owner as usize].up && !self.authority.done.contains(job)
            })
            .map(|(&job, _)| job)
            .collect();
        for &job in &orphans {
            let owner = self.pick_owner(job);
            self.metrics.owners_reassigned.incr();
            self.record(
                sim,
                net,
                p2p,
                Delta::Own {
                    job,
                    owner: owner as u32,
                },
            );
        }
        orphans
    }

    fn run_election(&mut self) {
        match elect(&view(&self.members)) {
            Some(idx) => {
                self.leader = idx;
                self.has_leader = true;
                self.epoch += 1;
                self.metrics.elections.incr();
                self.metrics.handoffs.incr();
                self.catch_up_leader();
            }
            None => {
                self.has_leader = false;
                self.epoch += 1;
            }
        }
    }

    /// Member `idx` became unreachable (crash or partition). Runs the
    /// election if it was the leader and moves its orphaned units to
    /// reachable owners.
    pub fn set_member_down<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        idx: usize,
    ) -> MembershipChange {
        if !self.members[idx].up {
            return MembershipChange::default();
        }
        self.members[idx].up = false;
        self.members[idx].epoch += 1;
        self.metrics.member_down.incr();
        let was_leader = self.has_leader && idx == self.leader;
        if was_leader {
            self.run_election();
        }
        let reassigned = self.reassign_orphans(sim, net, p2p);
        MembershipChange {
            was_leader,
            elected: false,
            reassigned,
        }
    }

    /// Member `idx` became reachable again (restart or partition heal). If
    /// the set was leaderless this runs the deferred election; either way
    /// units stranded on still-down members are re-owned. The revived
    /// member's replica catches up through the next anti-entropy rounds.
    pub fn set_member_up<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        idx: usize,
    ) -> MembershipChange {
        if self.members[idx].up {
            return MembershipChange::default();
        }
        self.members[idx].up = true;
        self.members[idx].epoch += 1;
        self.metrics.member_up.incr();
        let mut elected = false;
        if !self.has_leader {
            self.run_election();
            elected = self.has_leader;
        }
        let reassigned = self.reassign_orphans(sim, net, p2p);
        MembershipChange {
            was_leader: false,
            elected,
            reassigned,
        }
    }
}

fn view(members: &[Member]) -> Vec<Elector> {
    members
        .iter()
        .map(|m| Elector {
            peer: m.peer,
            eligibility: m.eligibility,
            up: m.up,
        })
        .collect()
}

/// Cheap cloneable handle to a shared [`Orchestrators`] set, threaded
/// through schedulers and harnesses the way [`obs::Obs`] is.
#[derive(Clone)]
pub struct OrchestratorHandle {
    inner: Rc<RefCell<Orchestrators>>,
}

impl OrchestratorHandle {
    pub fn new(orch: Orchestrators) -> Self {
        OrchestratorHandle {
            inner: Rc::new(RefCell::new(orch)),
        }
    }

    /// The classic single-controller handle (compatibility shim).
    pub fn single(peer: PeerId, host: HostId) -> Self {
        OrchestratorHandle::new(Orchestrators::single(peer, host))
    }

    /// Immutable view of the set (for invariants and reports).
    pub fn inner(&self) -> Ref<'_, Orchestrators> {
        self.inner.borrow()
    }

    pub fn set_obs(&self, obs: Obs) {
        self.inner.borrow_mut().set_obs(obs);
    }

    pub fn is_single(&self) -> bool {
        self.inner.borrow().is_single()
    }

    pub fn n_members(&self) -> usize {
        self.inner.borrow().n_members()
    }

    pub fn member_up(&self, idx: usize) -> bool {
        self.inner.borrow().member_up(idx)
    }

    pub fn member_host(&self, idx: usize) -> HostId {
        self.inner.borrow().members()[idx].host
    }

    pub fn member_peer(&self, idx: usize) -> PeerId {
        self.inner.borrow().members()[idx].peer
    }

    pub fn has_leader(&self) -> bool {
        self.inner.borrow().has_leader()
    }

    pub fn leader_peer(&self) -> PeerId {
        self.inner.borrow().leader_peer()
    }

    pub fn leader_host(&self) -> HostId {
        self.inner.borrow().leader_host()
    }

    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch()
    }

    pub fn anti_entropy_interval(&self) -> Duration {
        self.inner.borrow().anti_entropy_interval()
    }

    pub fn tick_exhausted(&self) -> bool {
        self.inner.borrow().tick_exhausted()
    }

    pub fn owner_host(&self, job: u64) -> HostId {
        self.inner.borrow().owner_host(job)
    }

    pub fn owner_index(&self, job: u64) -> usize {
        self.inner.borrow().owner_index(job)
    }

    pub fn output_stamp(&self, job: u64) -> u64 {
        self.inner.borrow().output_stamp(job)
    }

    pub fn stamp_valid(&self, job: u64, stamp: u64) -> bool {
        self.inner.borrow().stamp_valid(job, stamp)
    }

    pub fn converged(&self) -> bool {
        self.inner.borrow().converged()
    }

    pub fn assign_owner<E: From<P2pEvent>>(
        &self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        job: u64,
    ) -> usize {
        self.inner.borrow_mut().assign_owner(sim, net, p2p, job)
    }

    pub fn record<E: From<P2pEvent>>(
        &self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        d: Delta,
    ) {
        self.inner.borrow_mut().record(sim, net, p2p, d);
    }

    pub fn deliver(&self, to: PeerId, seq: u64, count: u64, sync: bool) -> u64 {
        self.inner.borrow_mut().deliver(to, seq, count, sync)
    }

    pub fn anti_entropy_round<E: From<P2pEvent>>(
        &self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
    ) -> bool {
        self.inner.borrow_mut().anti_entropy_round(sim, net, p2p)
    }

    pub fn set_member_down<E: From<P2pEvent>>(
        &self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        idx: usize,
    ) -> MembershipChange {
        self.inner.borrow_mut().set_member_down(sim, net, p2p, idx)
    }

    pub fn set_member_up<E: From<P2pEvent>>(
        &self,
        sim: &mut Sim<E>,
        net: &mut Network,
        p2p: &mut P2p,
        idx: usize,
    ) -> MembershipChange {
        self.inner.borrow_mut().set_member_up(sim, net, p2p, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::HostSpec;
    use p2p::{DiscoveryMode, Incoming};

    type Ev = P2pEvent;

    struct World {
        sim: Sim<Ev>,
        net: Network,
        p2p: P2p,
    }

    fn world(n: usize) -> (World, Vec<OrchestratorSpec>) {
        let mut w = World {
            sim: Sim::new(42),
            net: Network::new(),
            p2p: P2p::new(DiscoveryMode::Flooding),
        };
        let specs: Vec<OrchestratorSpec> = (0..n)
            .map(|i| {
                let host = w.net.add_host(HostSpec::lan_workstation());
                let peer = w.p2p.add_peer(host);
                OrchestratorSpec {
                    peer,
                    host,
                    eligibility: 1.0 - i as f64 * 0.1,
                }
            })
            .collect();
        (w, specs)
    }

    /// Drain the sim, feeding gossip deliveries back into the set.
    fn run(w: &mut World, orch: &OrchestratorHandle) {
        while let Some(ev) = w.sim.step() {
            for inc in w.p2p.handle(&mut w.sim, &mut w.net, ev) {
                if let Incoming::Orch {
                    to,
                    seq,
                    count,
                    sync,
                } = inc
                {
                    orch.deliver(to, seq, count, sync);
                }
            }
        }
    }

    #[test]
    fn single_member_set_needs_no_gossip() {
        let (mut w, specs) = world(1);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 1, OrchConfig::default()));
        orch.assign_owner(&mut w.sim, &mut w.net, &mut w.p2p, 0);
        orch.record(
            &mut w.sim,
            &mut w.net,
            &mut w.p2p,
            Delta::Complete { job: 0 },
        );
        assert!(orch.converged());
        assert_eq!(orch.owner_index(0), 0);
        assert!(w.sim.step().is_none(), "no messages in single mode");
    }

    #[test]
    fn deltas_gossip_to_every_follower() {
        let (mut w, specs) = world(3);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 1, OrchConfig::default()));
        for job in 0..4 {
            orch.assign_owner(&mut w.sim, &mut w.net, &mut w.p2p, job);
        }
        run(&mut w, &orch);
        assert!(orch.converged());
        let inner = orch.inner();
        for i in 0..3 {
            assert_eq!(inner.replica(i).applied(), 4);
            assert_eq!(inner.replica(i).owners.len(), 4);
        }
    }

    #[test]
    fn ownership_spreads_across_members() {
        let (mut w, specs) = world(3);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 7, OrchConfig::default()));
        let mut seen = std::collections::BTreeSet::new();
        for job in 0..32 {
            seen.insert(orch.assign_owner(&mut w.sim, &mut w.net, &mut w.p2p, job));
        }
        assert!(seen.len() > 1, "all 32 units landed on one orchestrator");
    }

    #[test]
    fn leader_crash_elects_next_best_and_reassigns_orphans() {
        let (mut w, specs) = world(3);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 1, OrchConfig::default()));
        let observer = Obs::enabled();
        orch.set_obs(observer.clone());
        assert_eq!(orch.inner().leader_index(), 0); // highest eligibility
        let jobs: Vec<u64> = (0..8).collect();
        for &j in &jobs {
            orch.assign_owner(&mut w.sim, &mut w.net, &mut w.p2p, j);
        }
        let stamp = orch.output_stamp(0);
        let change = orch.set_member_down(&mut w.sim, &mut w.net, &mut w.p2p, 0);
        assert!(change.was_leader);
        assert_eq!(orch.inner().leader_index(), 1);
        let reg = observer.registry().expect("obs enabled");
        assert_eq!(reg.counter_value("orch.elections"), 1);
        // Every unit the dead member owned moved to a live owner, and any
        // stamp minted before the change is now stale for those units.
        for &j in &jobs {
            assert!(orch.member_up(orch.owner_index(j)));
        }
        if change.reassigned.contains(&0) {
            assert!(!orch.stamp_valid(0, stamp));
        }
        run(&mut w, &orch);
    }

    #[test]
    fn anti_entropy_repairs_a_revived_member() {
        let (mut w, specs) = world(3);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 1, OrchConfig::default()));
        let observer = Obs::enabled();
        orch.set_obs(observer.clone());
        orch.set_member_down(&mut w.sim, &mut w.net, &mut w.p2p, 2);
        w.net.set_online(specs[2].host, false);
        for job in 0..6 {
            orch.assign_owner(&mut w.sim, &mut w.net, &mut w.p2p, job);
        }
        run(&mut w, &orch);
        assert!(!orch.converged() || orch.inner().replica(2).applied() == 0);
        w.net.set_online(specs[2].host, true);
        orch.set_member_up(&mut w.sim, &mut w.net, &mut w.p2p, 2);
        let mut rounds = 0;
        while !orch.converged() && rounds < 10 {
            orch.anti_entropy_round(&mut w.sim, &mut w.net, &mut w.p2p);
            run(&mut w, &orch);
            rounds += 1;
        }
        assert!(orch.converged());
        let reg = observer.registry().expect("obs enabled");
        assert!(reg.counter_value("orch.anti_entropy_repairs") >= 6);
    }

    #[test]
    fn leaderless_interval_defers_election_until_revival() {
        let (mut w, specs) = world(2);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 1, OrchConfig::default()));
        orch.assign_owner(&mut w.sim, &mut w.net, &mut w.p2p, 0);
        orch.set_member_down(&mut w.sim, &mut w.net, &mut w.p2p, 1);
        let change = orch.set_member_down(&mut w.sim, &mut w.net, &mut w.p2p, 0);
        assert!(change.was_leader);
        assert!(!orch.has_leader());
        let change = orch.set_member_up(&mut w.sim, &mut w.net, &mut w.p2p, 1);
        assert!(change.elected);
        assert!(orch.has_leader());
        assert_eq!(orch.inner().leader_index(), 1);
        assert_eq!(orch.owner_index(0), 1);
        run(&mut w, &orch);
    }

    #[test]
    fn duplicate_membership_transitions_are_noops() {
        let (mut w, specs) = world(3);
        let orch = OrchestratorHandle::new(Orchestrators::new(&specs, 1, OrchConfig::default()));
        orch.set_member_down(&mut w.sim, &mut w.net, &mut w.p2p, 1);
        let before = orch.inner().members()[1].epoch;
        let change = orch.set_member_down(&mut w.sim, &mut w.net, &mut w.p2p, 1);
        assert!(change.reassigned.is_empty());
        assert_eq!(orch.inner().members()[1].epoch, before);
    }
}
