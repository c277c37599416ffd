//! `triana-transport` — one grid code path over the deterministic netsim
//! or real UDP sockets, with durable peer state.
//!
//! The paper's consumer grid runs over real consumer connections; the
//! reproduction so far ran everything inside the discrete-event simulator.
//! This crate closes that gap with a small transport abstraction:
//!
//! * [`Transport`] — endpoint addressing ([`Endpoint`]), framed datagram
//!   send, polled delivery events, cancellable timers, and a monotonic
//!   microsecond clock;
//! * [`sim::SimNet`] / [`sim::SimEndpoint`] — the trait over the existing
//!   netsim calendar-queue loop, so runs stay deterministic and every
//!   chaos fault still applies;
//! * [`socket::SocketTransport`] — real nonblocking UDP (`std::net`, no
//!   async runtime exists in this offline workspace) with the same frame
//!   codec;
//! * [`reliab::PeerChannel`] — the shared reliability layer (per-peer
//!   sequence numbers, in-order delivery, a fixed send window,
//!   ack/retransmit with exponential backoff, liveness probing) used
//!   identically by both backends;
//! * [`node`] / [`proto`] — a worker/orchestrator node runtime speaking a
//!   small grid protocol over the trait, reusing the p2p wire codec, the
//!   chunked swarm store, and the TVM prepared-execution cache;
//! * [`harness`] — drives the same node code over either backend and is
//!   the basis of the sim-vs-socket parity test.
//!
//! Durable peer state (write-ahead manifest + hash-verified chunk files)
//! lives in `store::durable`; the node runtime admits fetched chunks
//! there so a restarted peer recovers its module cache from disk.

pub mod frame;
pub mod harness;
pub mod node;
pub mod proto;
pub mod reliab;
pub mod sim;
pub mod socket;

pub use frame::{Endpoint, Frame, FrameError, FrameKind};
pub use reliab::{ChanOut, ChannelConfig, PeerChannel};

use netsim::{Duration, SimTime};

/// Identifier of a pending timer, unique within one transport instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Why a send was refused outright (losses and timeouts surface later as
/// retransmits or [`TransportEvent::PeerDead`], not here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// No route/address registered for this endpoint.
    UnknownPeer(Endpoint),
    /// Payload exceeds [`frame::MAX_PAYLOAD`].
    PayloadTooLarge { len: usize },
    /// Socket-level failure (socket backend only).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(ep) => write!(f, "unknown peer {ep}"),
            TransportError::PayloadTooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds frame maximum")
            }
            TransportError::Io(e) => write!(f, "transport io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Something the transport surfaced to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportEvent {
    /// A reliable, in-order datagram payload from a peer.
    Delivered { from: Endpoint, payload: Vec<u8> },
    /// A timer set with [`Transport::set_timer`] expired (and was not
    /// cancelled first). Carries the caller's token.
    Timer { token: u64 },
    /// The reliability layer gave up on this peer (retransmits exhausted
    /// or liveness silence). Emitted once per peer.
    PeerDead { peer: Endpoint },
}

/// The one surface the grid node runtime is written against. Implemented
/// by the deterministic sim backend and the UDP socket backend; the node
/// code cannot tell which one it is running on.
pub trait Transport {
    /// This transport's own address.
    fn local(&self) -> Endpoint;

    /// Monotonic microsecond clock: virtual time on the sim backend,
    /// `Instant`-anchored wall time on sockets. Only *differences* are
    /// meaningful across backends.
    fn now(&self) -> SimTime;

    /// Queue a payload for reliable, in-order delivery to `dst`. It goes
    /// on the wire as soon as the per-peer send window has room, and is
    /// retransmitted from then until acked. A payload for a peer already
    /// declared dead is dropped (`transport.sends_to_dead`).
    fn send(&mut self, dst: Endpoint, payload: Vec<u8>) -> Result<(), TransportError>;

    /// Arm a one-shot timer `delay` from now; the `token` comes back in
    /// the [`TransportEvent::Timer`].
    fn set_timer(&mut self, delay: Duration, token: u64) -> TimerId;

    /// Cancel a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    fn cancel_timer(&mut self, timer: TimerId);

    /// Drain everything ready right now — delivered payloads, expired
    /// timers, peer-death notices — into `events`, in a deterministic
    /// order for a given history. Never blocks.
    fn poll(&mut self, events: &mut Vec<TransportEvent>);

    /// Payloads accepted but not yet acknowledged — on the wire or still
    /// waiting for the window — across all peers. Zero means every send
    /// has landed or its peer was declared dead: the clean-exit condition.
    fn pending(&self) -> usize;
}

/// Lifetime counters every backend maintains, mirrored into the shared
/// obs registry under `transport.*` when an observer is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    pub frames_sent: u64,
    pub frames_recv: u64,
    pub retransmits: u64,
    pub acks: u64,
}

impl TransportCounters {
    pub(crate) fn frame_sent(&mut self, obs: &obs::Obs) {
        self.frames_sent += 1;
        obs.incr("transport.frames_sent");
    }

    pub(crate) fn frame_recv(&mut self, obs: &obs::Obs) {
        self.frames_recv += 1;
        obs.incr("transport.frames_recv");
    }

    pub(crate) fn retransmit(&mut self, obs: &obs::Obs) {
        self.retransmits += 1;
        obs.incr("transport.retransmits");
    }

    pub(crate) fn ack(&mut self, obs: &obs::Obs) {
        self.acks += 1;
        obs.incr("transport.acks");
    }
}
