//! The Consumer Grid runtime: distributed execution of task-graph groups
//! over simulated volunteer peers.
//!
//! The pieces mirror the paper's architecture (Figures 3/4):
//!
//! * [`GridWorld`] — the shared substrate: event loop, network, overlay;
//! * [`farm`] — the `parallel` distribution policy: a Triana Controller
//!   farms group clones out to peers ("a farming out mechanism and
//!   generally involves no communication between hosts"), with on-demand
//!   module download, churn, checkpointing and migration;
//! * [`pipeline`] — the `peer-to-peer` policy: "each unit in the group is
//!   distributed onto a separate resource and data is passed between them",
//!   bound together with named pipes;
//! * [`service`] — Triana Service / Controller actors and discovery-driven
//!   worker enrolment.

#[cfg(test)]
mod dispatch_props;
pub mod exec;
pub mod farm;
pub mod pipeline;
pub mod redundancy;
pub mod service;
mod slots;

use netsim::avail::AvailabilityTrace;
use netsim::{HostId, HostSpec, Network, Sim, SimTime};
use p2p::{DiscoveryMode, P2p, P2pEvent, PeerId};

use crate::modules::ModuleKey;

/// Identifier of a farm job (one unit of distributable work).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Identifier of a worker within a scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

/// Every event the Consumer Grid runtime reacts to.
///
/// The farm's per-copy events carry `(job, worker, epoch)`: `epoch` is the
/// worker's seat counter when that copy of the job was placed on it, so the
/// triple names one copy — the primary or a speculative duplicate — and an
/// event outliving its copy matches nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum GridEvent {
    /// Overlay traffic (discovery, publishes, pipe data).
    P2p(P2pEvent),
    /// A worker's availability trace transitions to up.
    WorkerUp(WorkerId),
    /// …or down.
    WorkerDown(WorkerId),
    /// A job copy's input data (plus the module, for a speculative
    /// duplicate that lacked it) finished arriving at its worker.
    InputArrived {
        job: JobId,
        worker: WorkerId,
        epoch: u64,
    },
    /// A module blob finished arriving at a worker (for `job`).
    ModuleArrived {
        job: JobId,
        worker: WorkerId,
        key: ModuleKey,
        epoch: u64,
    },
    /// A job copy's computation finished on its worker.
    ComputeDone {
        job: JobId,
        worker: WorkerId,
        epoch: u64,
    },
    /// The results `worker` computed for a job arrived back at the job's
    /// owning orchestrator; the first copy home completes the job. `orch`
    /// is the owner stamp minted when the transfer left the worker; an
    /// orchestrator change in flight makes the stamp stale and the arrival
    /// is dropped (the failover path re-drives the result).
    OutputArrived {
        job: JobId,
        worker: WorkerId,
        epoch: u64,
        orch: u64,
    },
    /// A streaming work chunk arrives at the controller (Case 2).
    ChunkArrives { seq: u64 },
    /// The provider-discovery window of a swarm module fetch closed; time
    /// to pick providers (or fall back to the controller).
    SwarmProvidersDue {
        job: JobId,
        worker: WorkerId,
        epoch: u64,
    },
    /// One chunk of a swarm module fetch finished arriving at its worker.
    SwarmChunkArrived {
        job: JobId,
        worker: WorkerId,
        epoch: u64,
        chunk: u32,
        source: ChunkSource,
    },
    /// A pipeline stage finished computing a token.
    StageComputeDone { stage: usize, token: u64 },
    /// The pipeline source emits its next token.
    EmitToken { token: u64 },
    /// Straggler watchdog: the job has now been computing on `worker` for
    /// its profiled expected runtime times the configured factor; if it is
    /// still running, speculatively re-dispatch it.
    StragglerCheck {
        job: JobId,
        worker: WorkerId,
        epoch: u64,
    },
    /// Periodic orchestrator anti-entropy tick (multi-orchestrator sets
    /// only): runs one gossip repair round and re-arms until the scheduler
    /// quiesces with every replica converged.
    OrchTick,
}

/// Where a swarm chunk transfer originated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkSource {
    /// Controller-direct (seeding the first copy, or per-chunk fallback).
    Controller,
    /// Pulled from a providing peer.
    Peer(PeerId),
}

impl From<P2pEvent> for GridEvent {
    fn from(e: P2pEvent) -> Self {
        GridEvent::P2p(e)
    }
}

/// Shared simulation substrate for grid experiments.
pub struct GridWorld {
    pub sim: Sim<GridEvent>,
    pub net: Network,
    pub p2p: P2p,
}

impl GridWorld {
    pub fn new(seed: u64, mode: DiscoveryMode) -> Self {
        GridWorld {
            sim: Sim::new(seed),
            net: Network::new(),
            p2p: P2p::new(mode),
        }
    }

    /// Add a host and enrol it as a peer.
    pub fn add_peer(&mut self, spec: HostSpec) -> (PeerId, HostId) {
        let h = self.net.add_host(spec);
        let p = self.p2p.add_peer(h);
        (p, h)
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

/// A volunteer worker as seen by a scheduler: its peer identity, hardware,
/// availability trace, and module cache.
pub struct WorkerSetup {
    pub peer: PeerId,
    pub spec: HostSpec,
    pub trace: AvailabilityTrace,
    /// Module cache capacity in bytes.
    pub cache_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkClass;

    #[test]
    fn world_wires_peers_to_hosts() {
        let mut w = GridWorld::new(1, DiscoveryMode::Flooding);
        let mut spec = HostSpec::reference_pc();
        spec.link = LinkClass::Cable.spec();
        let (p, h) = w.add_peer(spec.clone());
        assert_eq!(w.p2p.host_of(p), h);
        assert_eq!(w.net.spec(h), &spec);
    }

    #[test]
    fn grid_event_wraps_p2p() {
        let ev: GridEvent = P2pEvent::Delivered {
            to: PeerId(0),
            msg: p2p::Message::PipeData {
                pipe: p2p::PipeId(0),
                tag: 0,
                bytes: 1,
            },
        }
        .into();
        assert!(matches!(ev, GridEvent::P2p(_)));
    }
}
