//! `triana-transport` — one grid code path over the deterministic netsim
//! or real UDP sockets, with durable peer state.
//!
//! The paper's consumer grid runs over real consumer connections; the
//! reproduction so far ran everything inside the discrete-event simulator.
//! This crate closes that gap with a small transport abstraction:
//!
//! * [`Transport`] — endpoint addressing ([`Endpoint`]), framed datagram
//!   send, polled delivery events, and a monotonic microsecond clock;
//! * [`sim::SimNet`] / [`sim::SimEndpoint`] — the trait over the existing
//!   netsim calendar-queue loop, so runs stay deterministic and every
//!   chaos fault still applies;
//! * [`socket::SocketTransport`] — real nonblocking UDP (`std::net`, no
//!   async runtime exists in this offline workspace) with the same frame
//!   codec;
//! * [`reliab::PeerChannel`] — the shared reliability layer (per-peer
//!   sequence numbers, in-order delivery, a fixed send window,
//!   ack/retransmit with exponential backoff, liveness probing), one per
//!   peer in each endpoint's channel set (`reliab::ChannelSet`), which
//!   both backends drive over their own wire;
//! * [`node`] / [`proto`] — a worker/orchestrator node runtime speaking a
//!   small grid protocol over the trait, reusing the p2p wire codec, the
//!   chunked swarm store, and the TVM prepared-execution cache;
//! * [`harness`] — drives the same node code over either backend and is
//!   the basis of the sim-vs-socket parity test.
//!
//! Durable peer state (write-ahead manifest + hash-verified chunk files)
//! lives in `store::durable`; the node runtime admits fetched chunks
//! there so a restarted peer recovers its module cache from disk.
//!
//! # Payload ownership along one hop
//!
//! A payload is copied four times between two nodes: the proto encode
//! ([`proto::GridMsg::encode_dispatch`] and
//! [`proto::GridMsg::encode_job_result`] write from borrowed job inputs
//! and execution outputs), the wire encode ([`Frame::encode_into`] into a
//! recycled buffer), the wire decode ([`Frame::decode`] copies out of the
//! datagram) and the proto decode. Nothing else copies it:
//! [`PeerChannel::send_data`] shares the data frame's [`frame::Payload`]
//! with its retransmit entry until the ack, a decoded payload reaches
//! [`TransportEvent::Delivered`] as the buffer the decoder filled, and
//! the harness lends its job list to the orchestrator and moves the
//! results out. The `reliab` test
//! `a_payload_is_held_once_from_send_to_delivery` follows one payload's
//! buffers through both wire copies by address.

pub mod frame;
pub mod harness;
pub mod node;
pub mod proto;
pub mod reliab;
pub mod sim;
pub mod socket;

pub use frame::{Endpoint, Frame, FrameError, FrameKind};
pub use reliab::{ChanDrop, ChanOut, ChannelConfig, PeerChannel};

use netsim::SimTime;

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

    /// Drain everything ready right now — delivered payloads and
    /// peer-death notices — into `events`, in a deterministic order for a
    /// given history. Never blocks.
    fn poll(&mut self, events: &mut Vec<TransportEvent>);

    /// Payloads accepted but not yet acknowledged — on the wire or still
    /// waiting for the window — across all peers. Zero means every send
    /// has landed or its peer was declared dead: the clean-exit condition.
    fn pending(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::HostSpec;

    /// Both backends refuse, through the one check their channel sets
    /// share, a payload no frame can carry and a peer with no address.
    #[test]
    fn oversized_payloads_and_unknown_peers_are_refused_on_both_backends() {
        fn refuses(t: &mut impl Transport) {
            let len = frame::MAX_PAYLOAD + 1;
            let err = t.send(Endpoint(2), vec![0; len]).unwrap_err();
            assert_eq!(err, TransportError::PayloadTooLarge { len });
            let err = t.send(Endpoint(99), vec![1]).unwrap_err();
            assert_eq!(err, TransportError::UnknownPeer(Endpoint(99)));
            assert_eq!(t.pending(), 0);
        }
        let net = sim::SimNet::new(7);
        let mut a = net.add_endpoint(Endpoint(1), HostSpec::reference_pc());
        net.add_endpoint(Endpoint(2), HostSpec::reference_pc());
        refuses(&mut a);
        assert!(!net.step(), "a refused send schedules nothing");
        let mut s = socket::SocketTransport::bind_loopback(Endpoint(1)).unwrap();
        let observer = obs::Obs::enabled();
        s.set_obs(observer.clone());
        s.register_peer(Endpoint(2), "127.0.0.1:9".parse().unwrap());
        refuses(&mut s);
        let untouched = obs::Obs::enabled().snapshot_json();
        assert_eq!(observer.snapshot_json(), untouched, "nothing was counted");
    }
}
