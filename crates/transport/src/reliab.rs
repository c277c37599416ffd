//! Per-peer reliability: sequence numbers, in-order delivery, a send
//! window, ack / retransmit with exponential backoff, and liveness
//! probing.
//!
//! One [`PeerChannel`] instance manages one direction-pair between two
//! endpoints. The state machine is pure — it consumes `(now, frame)` and
//! emits [`ChanOut`] actions — so the **same code** runs over the
//! deterministic sim backend and the UDP socket backend; only the clock
//! and the wire underneath differ.
//!
//! Flow control: a payload handed to [`PeerChannel::offer`] goes on the
//! wire only while the frames from the oldest unacked one to the newest
//! sent one span at most [`SEND_WINDOW`] wire bytes; the rest wait in
//! send order inside the channel and each ack lets the next ones out. A
//! frame's retransmit clock therefore starts when it is transmitted, so
//! it fires because the frame was lost, not because it sat in a queue
//! behind its own burst. The span (rather than a sum over unacked
//! frames) is what bounds the receiver: everything it may have to hold
//! out of order lies inside it, which is why [`REORDER_CAP`] can refuse
//! anything beyond.
//!
//! One `ChannelSet` holds an endpoint's channels, one per peer, with
//! the inbox and counters they feed. It is sans-IO like the channels: a
//! backend hands it the clock, a `Wire` and a scratch buffer, and keeps
//! only how frames reach peers and how they arrive.

use crate::frame::{Endpoint, Frame, FrameKind, HEADER_LEN, MAX_PAYLOAD};
use crate::{TransportError, TransportEvent};
use netsim::{Duration, SimTime};
use obs::Counter;
use std::collections::{BTreeMap, VecDeque};

/// Wire bytes ([`Frame::wire_len`]) a channel keeps between its oldest
/// unacked frame and its newest sent one. A lone larger frame may always
/// go. Fixed, not configured: 2 loopback workers × 64 KiB stay under the
/// 208 KiB default socket buffer, and 8 DSL peers × 64 KiB are ≈ 16 s of
/// uplink queue, under the simulator's 30 s RTO (DESIGN.md, "Flow
/// control").
pub const SEND_WINDOW: usize = 64 * 1024;

/// Wire bytes a receiver buffers out of order before it refuses more: an
/// honest sender's window plus one maximum frame of slack.
pub const REORDER_CAP: usize = SEND_WINDOW + HEADER_LEN + MAX_PAYLOAD;

/// Tunables for one channel.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Initial retransmit timeout; doubles per attempt.
    pub rto: Duration,
    /// Backoff ceiling.
    pub rto_max: Duration,
    /// Retransmit attempts before the peer is declared dead.
    pub max_attempts: u32,
    /// Probe an idle channel after this long without traffic. `None`
    /// disables probing — the right choice on the sim backend, where an
    /// eternal ping loop would keep the event queue from draining.
    pub ping_after: Option<Duration>,
    /// Declare the peer dead after this much silence (only meaningful
    /// with probing or in-flight data).
    pub liveness: Duration,
}

impl ChannelConfig {
    /// Sim backend: netsim delivers reliably while hosts are online, so
    /// generous timeouts and no idle probing (the queue must drain).
    pub fn sim_default() -> Self {
        ChannelConfig {
            rto: Duration::from_secs(30),
            rto_max: Duration::from_secs(240),
            max_attempts: 5,
            ping_after: None,
            liveness: Duration::from_secs(3_600),
        }
    }

    /// Socket backend: loopback/LAN wall-clock timings.
    pub fn socket_default() -> Self {
        ChannelConfig {
            rto: Duration::from_millis(40),
            rto_max: Duration::from_secs(2),
            max_attempts: 25,
            ping_after: Some(Duration::from_secs(2)),
            liveness: Duration::from_secs(15),
        }
    }
}

struct Pending {
    frame: Frame,
    /// Wire bytes this channel had sent before this frame: the frame's
    /// offset in the send stream, which the window is measured from.
    start: u64,
    attempts: u32,
    next_retry: SimTime,
}

/// Actions the channel asks its transport to perform.
#[derive(Debug, PartialEq, Eq)]
pub enum ChanOut {
    /// Put this frame on the wire.
    Transmit(Frame),
    /// Re-put a timed-out data frame on the wire (metered separately).
    Retransmit(Frame),
    /// Hand this payload to the application (frames arrive here in
    /// sender order, exactly once).
    Deliver(Vec<u8>),
    /// The peer stopped acking/answering; emitted once.
    Dead,
    /// The channel dropped something; the transport counts it.
    Count(ChanDrop),
}

/// What a channel dropped, counted as `transport.sends_to_dead` and
/// `transport.reorder_refused`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanDrop {
    /// A payload offered to a channel whose peer is already dead.
    SendToDead,
    /// A data frame beyond the reorder buffer's cap; unacked, it is
    /// retransmitted later like any lost frame.
    ReorderRefused,
}

/// Reliable, ordered, deduplicated, flow-controlled channel state towards
/// one peer.
pub struct PeerChannel {
    local: Endpoint,
    peer: Endpoint,
    cfg: ChannelConfig,
    next_seq: u64,
    unacked: BTreeMap<u64, Pending>,
    /// Wire bytes of every data frame sequenced so far.
    sent_bytes: u64,
    /// Offered payloads the window has not let out yet, in send order.
    backlog: VecDeque<Vec<u8>>,
    /// Next incoming sequence number to deliver.
    recv_next: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    reorder: BTreeMap<u64, Vec<u8>>,
    /// Wire bytes held in `reorder`; never above [`REORDER_CAP`].
    reorder_bytes: usize,
    last_heard: SimTime,
    ping_nonce: u64,
    ping_sent_at: Option<SimTime>,
    dead: bool,
}

impl PeerChannel {
    pub fn new(local: Endpoint, peer: Endpoint, cfg: ChannelConfig, now: SimTime) -> Self {
        PeerChannel {
            local,
            peer,
            cfg,
            next_seq: 0,
            unacked: BTreeMap::new(),
            sent_bytes: 0,
            backlog: VecDeque::new(),
            recv_next: 0,
            reorder: BTreeMap::new(),
            reorder_bytes: 0,
            last_heard: now,
            ping_nonce: 0,
            ping_sent_at: None,
            dead: false,
        }
    }

    /// Payloads accepted but not yet acknowledged: on the wire or still
    /// waiting for the window.
    pub fn in_flight(&self) -> usize {
        self.unacked.len() + self.backlog.len()
    }

    /// Wire bytes from the oldest unacked frame to the newest sent one —
    /// what the window limits, and an upper bound on what the peer may be
    /// holding out of order.
    pub fn window_used(&self) -> usize {
        self.unacked
            .values()
            .next()
            .map_or(0, |oldest| (self.sent_bytes - oldest.start) as usize)
    }

    /// Accept a payload for reliable delivery: it is transmitted now if
    /// the window has room and otherwise waits, in send order, for acks
    /// to make room. A dead channel accepts nothing.
    pub fn offer(&mut self, now: SimTime, payload: Vec<u8>, out: &mut Vec<ChanOut>) {
        if self.dead {
            out.push(ChanOut::Count(ChanDrop::SendToDead));
            return;
        }
        self.backlog.push_back(payload);
        self.fill_window(now, out);
    }

    /// Transmit from the front of the backlog while the window allows.
    fn fill_window(&mut self, now: SimTime, out: &mut Vec<ChanOut>) {
        while let Some(next) = self.backlog.front() {
            let fits = self.unacked.is_empty()
                || self.window_used() + HEADER_LEN + next.len() <= SEND_WINDOW;
            if !fits {
                break;
            }
            let payload = self.backlog.pop_front().expect("front exists");
            out.push(ChanOut::Transmit(self.send_data(now, payload)));
        }
    }

    /// Sequence, register for retransmission from `now`, and return the
    /// data frame to transmit now. [`PeerChannel::offer`] is this behind
    /// the window.
    pub fn send_data(&mut self, now: SimTime, payload: Vec<u8>) -> Frame {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut frame = Frame::data(self.local, self.peer, seq, payload);
        // The retransmit entry and the frame returned share one buffer.
        frame.payload.share();
        self.unacked.insert(
            seq,
            Pending {
                frame: frame.clone(),
                start: self.sent_bytes,
                attempts: 0,
                next_retry: now + self.cfg.rto,
            },
        );
        self.sent_bytes += frame.wire_len() as u64;
        frame
    }

    /// React to a frame arriving from this peer.
    pub fn on_frame(&mut self, now: SimTime, frame: Frame, out: &mut Vec<ChanOut>) {
        self.last_heard = now;
        self.ping_sent_at = None;
        match frame.kind {
            FrameKind::Data => {
                let wire_len = frame.wire_len();
                let buffers = frame.seq > self.recv_next && !self.reorder.contains_key(&frame.seq);
                if buffers && self.reorder_bytes + wire_len > REORDER_CAP {
                    // Beyond any honest sender's window. Unacked, it comes
                    // back later like any lost frame.
                    out.push(ChanOut::Count(ChanDrop::ReorderRefused));
                    return;
                }
                // Always ack — duplicates mean the previous ack was lost.
                out.push(ChanOut::Transmit(Frame::control(
                    FrameKind::Ack,
                    self.local,
                    self.peer,
                    frame.seq,
                )));
                if buffers {
                    self.reorder_bytes += wire_len;
                    self.reorder.insert(frame.seq, frame.payload.into_vec());
                } else if frame.seq == self.recv_next {
                    self.recv_next += 1;
                    out.push(ChanOut::Deliver(frame.payload.into_vec()));
                    // Drain the contiguous run behind it.
                    while let Some(payload) = self.reorder.remove(&self.recv_next) {
                        self.recv_next += 1;
                        self.reorder_bytes -= HEADER_LEN + payload.len();
                        out.push(ChanOut::Deliver(payload));
                    }
                }
            }
            FrameKind::Ack => {
                if self.unacked.remove(&frame.seq).is_some() {
                    self.fill_window(now, out);
                }
            }
            FrameKind::Ping => {
                out.push(ChanOut::Transmit(Frame::control(
                    FrameKind::Pong,
                    self.local,
                    self.peer,
                    frame.seq,
                )));
            }
            FrameKind::Pong => {}
        }
    }

    /// Run timers: retransmit overdue frames (exponential backoff), probe
    /// idle channels, declare death on sustained silence.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<ChanOut>) {
        if self.dead {
            return;
        }
        let mut died = false;
        for p in self.unacked.values_mut() {
            if p.next_retry <= now {
                p.attempts += 1;
                if p.attempts >= self.cfg.max_attempts {
                    died = true;
                    break;
                }
                let backoff =
                    Duration((self.cfg.rto.0 << p.attempts.min(16)).min(self.cfg.rto_max.0));
                p.next_retry = now + backoff;
                out.push(ChanOut::Retransmit(p.frame.clone()));
            }
        }
        if let Some(ping_after) = self.cfg.ping_after {
            let silence = now.since(self.last_heard);
            if silence >= self.cfg.liveness {
                died = true;
            } else if silence >= ping_after && self.ping_sent_at.is_none() {
                self.ping_nonce += 1;
                self.ping_sent_at = Some(now);
                out.push(ChanOut::Transmit(Frame::control(
                    FrameKind::Ping,
                    self.local,
                    self.peer,
                    self.ping_nonce,
                )));
            }
        }
        if died {
            // A dead channel holds nothing: what it still owed is dropped
            // with the peer, so `in_flight` reads 0 and nodes can exit.
            self.dead = true;
            self.unacked.clear();
            self.backlog.clear();
            out.push(ChanOut::Dead);
        }
    }

    /// Earliest instant `on_tick` has something to do, or `None` if the
    /// channel is fully quiescent (lets the sim backend drain).
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.dead {
            return None;
        }
        let mut deadline: Option<SimTime> = self.unacked.values().map(|p| p.next_retry).min();
        if let Some(ping_after) = self.cfg.ping_after {
            let probe = if self.ping_sent_at.is_some() {
                self.last_heard + self.cfg.liveness
            } else {
                self.last_heard + ping_after
            };
            deadline = Some(deadline.map_or(probe, |d| d.min(probe)));
        }
        deadline
    }
}

/// How one endpoint's frames reach their peers: the part of a send that
/// differs between backends.
pub(crate) trait Wire {
    /// Whether `peer` has an address on this wire; a send to any other
    /// peer is refused.
    fn knows(&self, peer: Endpoint) -> bool;

    /// Encode `frame` and put it on the wire. Loss is silent: the channel
    /// retransmits.
    fn transmit(&mut self, frame: &Frame);
}

/// One endpoint's side of every conversation: a [`PeerChannel`] per peer,
/// opened on first contact either way, plus the inbox
/// [`crate::Transport::poll`] drains and the endpoint's counters. Every
/// call takes the caller's clock, a scratch buffer for channel outputs
/// (handed back empty) and the [`Wire`] those outputs go out on.
pub(crate) struct ChannelSet {
    local: Endpoint,
    pub(crate) cfg: ChannelConfig,
    channels: BTreeMap<Endpoint, PeerChannel>,
    sink: Sink,
}

obs::handles! {
    /// The per-frame `transport.*` counters of a [`ChannelSet`], resolved
    /// once in [`ChannelSet::set_obs`].
    struct FrameMetrics {
        frames_sent: Counter = "transport.frames_sent",
        frames_recv: Counter = "transport.frames_recv",
        retransmits: Counter = "transport.retransmits",
        acks: Counter = "transport.acks",
        decode_errors: Counter = "transport.decode_errors",
        sends_to_dead: Counter = "transport.sends_to_dead",
        reorder_refused: Counter = "transport.reorder_refused",
    }
}

/// Where channel outputs land: the inbox and the counters.
struct Sink {
    inbox: VecDeque<TransportEvent>,
    metrics: FrameMetrics,
}

impl Sink {
    /// Carry out (and drain) the outputs of the channel towards `peer`.
    fn apply(&mut self, peer: Endpoint, out: &mut Vec<ChanOut>, wire: &mut impl Wire) {
        for o in out.drain(..) {
            match o {
                ChanOut::Transmit(f) => self.transmit(&f, wire),
                ChanOut::Retransmit(f) => {
                    self.metrics.retransmits.incr();
                    self.transmit(&f, wire);
                }
                ChanOut::Deliver(payload) => self.inbox.push_back(TransportEvent::Delivered {
                    from: peer,
                    payload,
                }),
                ChanOut::Dead => self.inbox.push_back(TransportEvent::PeerDead { peer }),
                ChanOut::Count(ChanDrop::SendToDead) => self.metrics.sends_to_dead.incr(),
                ChanOut::Count(ChanDrop::ReorderRefused) => self.metrics.reorder_refused.incr(),
            }
        }
    }

    fn transmit(&mut self, frame: &Frame, wire: &mut impl Wire) {
        self.metrics.frames_sent.incr();
        if frame.kind == FrameKind::Ack {
            self.metrics.acks.incr();
        }
        wire.transmit(frame);
    }
}

impl ChannelSet {
    pub(crate) fn new(local: Endpoint, cfg: ChannelConfig) -> Self {
        ChannelSet {
            local,
            cfg,
            channels: BTreeMap::new(),
            sink: Sink {
                inbox: VecDeque::new(),
                metrics: FrameMetrics::default(),
            },
        }
    }

    /// Feed the `transport.*` counters to `observer`'s registry.
    pub(crate) fn set_obs(&mut self, observer: &obs::Obs) {
        self.sink.metrics = FrameMetrics::new(observer);
    }

    fn channel(&mut self, peer: Endpoint, now: SimTime) -> &mut PeerChannel {
        let (local, cfg) = (self.local, self.cfg);
        self.channels
            .entry(peer)
            .or_insert_with(|| PeerChannel::new(local, peer, cfg, now))
    }

    /// [`crate::Transport::send`]: refuse a payload no frame can carry or
    /// a peer the wire cannot address, else offer it to `dst`'s channel.
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        dst: Endpoint,
        payload: Vec<u8>,
        out: &mut Vec<ChanOut>,
        wire: &mut impl Wire,
    ) -> Result<(), TransportError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(TransportError::PayloadTooLarge { len: payload.len() });
        }
        if !wire.knows(dst) {
            return Err(TransportError::UnknownPeer(dst));
        }
        self.channel(dst, now).offer(now, payload, out);
        self.sink.apply(dst, out, wire);
        Ok(())
    }

    /// Decode one datagram off the wire; a malformed one is counted as a
    /// decode error.
    pub(crate) fn decode(&mut self, datagram: &[u8]) -> Option<Frame> {
        let frame = Frame::decode(datagram).ok();
        if frame.is_none() {
            self.sink.metrics.decode_errors.incr();
        }
        frame
    }

    /// React to a decoded frame addressed to this endpoint.
    pub(crate) fn on_frame(
        &mut self,
        now: SimTime,
        frame: Frame,
        out: &mut Vec<ChanOut>,
        wire: &mut impl Wire,
    ) {
        self.sink.metrics.frames_recv.incr();
        let peer = frame.src;
        self.channel(peer, now).on_frame(now, frame, out);
        self.sink.apply(peer, out, wire);
    }

    /// Run every channel's timers, in peer order.
    pub(crate) fn on_tick(&mut self, now: SimTime, out: &mut Vec<ChanOut>, wire: &mut impl Wire) {
        for (&peer, chan) in &mut self.channels {
            chan.on_tick(now, out);
            self.sink.apply(peer, out, wire);
        }
    }

    /// Move everything delivered or declared dead so far into `events`.
    pub(crate) fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        events.extend(self.sink.inbox.drain(..));
    }

    /// [`crate::Transport::pending`]: payloads in flight to any peer.
    pub(crate) fn pending(&self) -> usize {
        self.channels.values().map(PeerChannel::in_flight).sum()
    }

    /// Earliest instant [`ChannelSet::on_tick`] has something to do, or
    /// `None` while every channel is quiescent.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.channels
            .values()
            .filter_map(PeerChannel::next_deadline)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg: ChannelConfig) -> (PeerChannel, PeerChannel) {
        (
            PeerChannel::new(Endpoint(0), Endpoint(1), cfg, SimTime::ZERO),
            PeerChannel::new(Endpoint(1), Endpoint(0), cfg, SimTime::ZERO),
        )
    }

    /// Feed every Transmit/Retransmit of `from` into `to`, returning
    /// payloads `to` delivered and frames `to` wants transmitted back.
    fn shuttle(
        now: SimTime,
        outs: Vec<ChanOut>,
        to: &mut PeerChannel,
    ) -> (Vec<Vec<u8>>, Vec<ChanOut>) {
        let mut delivered = Vec::new();
        let mut back = Vec::new();
        for o in outs {
            match o {
                ChanOut::Transmit(f) | ChanOut::Retransmit(f) => {
                    let mut outs2 = Vec::new();
                    to.on_frame(now, f, &mut outs2);
                    for o2 in outs2 {
                        match o2 {
                            ChanOut::Deliver(p) => delivered.push(p),
                            other => back.push(other),
                        }
                    }
                }
                _ => {}
            }
        }
        (delivered, back)
    }

    #[test]
    fn in_order_delivery_and_ack_clears_unacked() {
        let (mut a, mut b) = pair(ChannelConfig::sim_default());
        let f1 = a.send_data(SimTime(0), vec![1]);
        let f2 = a.send_data(SimTime(0), vec![2]);
        assert_eq!(a.in_flight(), 2);
        let (got, acks) = shuttle(
            SimTime(10),
            vec![ChanOut::Transmit(f1.clone()), ChanOut::Transmit(f2.clone())],
            &mut b,
        );
        assert_eq!(got, vec![vec![1], vec![2]]);
        // One ack per frame, and nothing else.
        assert_eq!(
            acks,
            vec![ChanOut::Transmit(ack(&f1)), ChanOut::Transmit(ack(&f2))]
        );
        // Feed the acks back.
        for ack in acks {
            if let ChanOut::Transmit(f) = ack {
                a.on_frame(SimTime(20), f, &mut Vec::new());
            }
        }
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn reordered_frames_deliver_in_sender_order() {
        let (mut a, mut b) = pair(ChannelConfig::sim_default());
        let f1 = a.send_data(SimTime(0), vec![1]);
        let f2 = a.send_data(SimTime(0), vec![2]);
        let f3 = a.send_data(SimTime(0), vec![3]);
        let mut out = Vec::new();
        b.on_frame(SimTime(1), f3, &mut out);
        b.on_frame(SimTime(2), f2, &mut out);
        b.on_frame(SimTime(3), f1, &mut out);
        let delivered: Vec<_> = out
            .into_iter()
            .filter_map(|o| match o {
                ChanOut::Deliver(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn duplicates_are_acked_but_delivered_once() {
        let (mut a, mut b) = pair(ChannelConfig::sim_default());
        let f1 = a.send_data(SimTime(0), vec![7]);
        let mut out = Vec::new();
        b.on_frame(SimTime(1), f1.clone(), &mut out);
        b.on_frame(SimTime(2), f1, &mut out);
        let delivered = out
            .iter()
            .filter(|o| matches!(o, ChanOut::Deliver(_)))
            .count();
        let acked = out
            .iter()
            .filter(|o| matches!(o, ChanOut::Transmit(f) if f.kind == FrameKind::Ack))
            .count();
        assert_eq!((delivered, acked), (1, 2));
    }

    #[test]
    fn unacked_frames_retransmit_with_backoff_then_die() {
        let cfg = ChannelConfig {
            rto: Duration(100),
            rto_max: Duration(100_000),
            max_attempts: 3,
            ping_after: None,
            liveness: Duration::from_secs(3_600),
        };
        let mut a = PeerChannel::new(Endpoint(0), Endpoint(1), cfg, SimTime::ZERO);
        let sent = a.send_data(SimTime(0), vec![1]);
        let mut out = Vec::new();
        // First retry due at t=100.
        a.on_tick(SimTime(100), &mut out);
        assert_eq!(out, vec![ChanOut::Retransmit(sent.clone())]);
        // Backoff doubled: next at 100 + 200.
        assert_eq!(a.next_deadline(), Some(SimTime(300)));
        out.clear();
        a.on_tick(SimTime(300), &mut out);
        assert_eq!(out, vec![ChanOut::Retransmit(sent)]);
        out.clear();
        // Third expiry exhausts max_attempts: no third retransmit.
        a.on_tick(SimTime(1_000), &mut out);
        assert_eq!(out, vec![ChanOut::Dead]);
        assert!(a.dead);
        assert_eq!(a.next_deadline(), None);
    }

    fn unacked_wire_bytes(c: &PeerChannel) -> usize {
        c.unacked.values().map(|p| p.frame.wire_len()).sum()
    }

    fn transmits(outs: &[ChanOut]) -> Vec<Frame> {
        outs.iter()
            .filter_map(|o| match o {
                ChanOut::Transmit(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }

    fn ack(of: &Frame) -> Frame {
        Frame::control(FrameKind::Ack, of.dst, of.src, of.seq)
    }

    #[test]
    fn a_payload_is_held_once_from_send_to_delivery() {
        let cfg = ChannelConfig {
            rto: Duration(100),
            ..ChannelConfig::sim_default()
        };
        let (mut a, mut b) = pair(cfg);
        let sent = a.send_data(SimTime(0), vec![7; 4096]);
        let buf = sent.payload.as_ptr();
        assert_eq!(
            a.unacked[&0].frame.payload.as_ptr(),
            buf,
            "kept, not copied"
        );
        let mut out = Vec::new();
        a.on_tick(SimTime(100), &mut out);
        match &out[..] {
            [ChanOut::Retransmit(again)] => assert_eq!(again.payload.as_ptr(), buf),
            other => panic!("expected one retransmit, got {other:?}"),
        }
        out.clear();
        // The ack drops the kept handle: the sent frame holds the buffer
        // alone again and gives it up without a copy.
        a.on_frame(SimTime(150), ack(&sent), &mut out);
        assert_eq!(a.in_flight(), 0);
        let wire = sent.encode();
        let bytes = sent.payload.into_vec();
        assert_eq!(bytes.as_ptr(), buf);
        // A decoded frame owns its bytes and hands them on as they are.
        let decoded = Frame::decode(&wire).expect("own encoding decodes");
        let wire_copy = decoded.payload.as_ptr();
        assert_ne!(wire_copy, buf);
        b.on_frame(SimTime(200), decoded, &mut out);
        match &out[..] {
            [ChanOut::Transmit(_), ChanOut::Deliver(got)] => {
                assert_eq!((got.as_ptr(), got.len()), (wire_copy, 4096));
            }
            other => panic!("expected an ack and a delivery, got {other:?}"),
        }
    }

    #[test]
    fn window_holds_a_burst_back_and_acks_release_it_in_send_order() {
        let (mut a, _) = pair(ChannelConfig::sim_default());
        let mut out = Vec::new();
        // Twelve 20 KiB payloads: three fit in 64 KiB, nine wait.
        for i in 0..12u8 {
            a.offer(SimTime(0), vec![i; 20 * 1024], &mut out);
            assert!(unacked_wire_bytes(&a) <= SEND_WINDOW);
        }
        let first = transmits(&out);
        assert_eq!(first.iter().map(|f| f.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(a.in_flight(), 12, "backlog counts as in flight");
        // Each ack lets exactly the next payload out, in the order offered.
        let mut sent = first;
        let mut next = 0;
        while next < sent.len() {
            let mut out = Vec::new();
            a.on_frame(SimTime(1), ack(&sent[next]), &mut out);
            assert!(unacked_wire_bytes(&a) <= SEND_WINDOW);
            assert_eq!(a.window_used(), unacked_wire_bytes(&a), "no holes here");
            sent.extend(transmits(&out));
            next += 1;
        }
        let order: Vec<(u64, u8)> = sent.iter().map(|f| (f.seq, f.payload[0])).collect();
        assert_eq!(order, (0..12).map(|i| (i as u64, i)).collect::<Vec<_>>());
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn a_lone_oversized_frame_may_always_go() {
        let (mut a, _) = pair(ChannelConfig::sim_default());
        let mut out = Vec::new();
        a.offer(SimTime(0), vec![1; 10], &mut out);
        a.offer(SimTime(0), vec![2; SEND_WINDOW + 1], &mut out);
        a.offer(SimTime(0), vec![3; 10], &mut out);
        let sent = transmits(&out);
        assert_eq!(sent.len(), 1, "the big one waits for an empty window");
        out.clear();
        a.on_frame(SimTime(1), ack(&sent[0]), &mut out);
        let sent = transmits(&out);
        assert_eq!(sent.len(), 1, "alone it goes; nothing may join it");
        assert_eq!(sent[0].payload.len(), SEND_WINDOW + 1);
        assert!(unacked_wire_bytes(&a) > SEND_WINDOW && a.unacked.len() == 1);
        out.clear();
        a.on_frame(SimTime(2), ack(&sent[0]), &mut out);
        assert_eq!(transmits(&out).len(), 1);
    }

    #[test]
    fn duplicate_and_unknown_acks_change_nothing() {
        let (mut a, _) = pair(ChannelConfig::sim_default());
        let mut out = Vec::new();
        for i in 0..4u8 {
            a.offer(SimTime(0), vec![i; 30 * 1024], &mut out);
        }
        let sent = transmits(&out);
        assert_eq!(sent.len(), 2);
        out.clear();
        a.on_frame(SimTime(1), ack(&sent[0]), &mut out);
        assert_eq!(transmits(&out).len(), 1, "one ack, one release");
        let (used, in_flight) = (a.window_used(), a.in_flight());
        out.clear();
        // The same ack again, and one for a sequence never sent.
        a.on_frame(SimTime(2), ack(&sent[0]), &mut out);
        let mut stray = ack(&sent[0]);
        stray.seq = 999;
        a.on_frame(SimTime(2), stray, &mut out);
        assert_eq!(out, vec![], "nothing transmitted twice");
        assert_eq!((a.window_used(), a.in_flight()), (used, in_flight));
    }

    #[test]
    fn an_acked_frame_above_a_hole_still_occupies_the_window() {
        // The window spans oldest-unacked to newest-sent, so acks for
        // later frames do not let the sender run ahead of a lost one —
        // which is what keeps the receiver's reorder buffer bounded.
        let (mut a, _) = pair(ChannelConfig::sim_default());
        let mut out = Vec::new();
        for i in 0..4u8 {
            a.offer(SimTime(0), vec![i; 30 * 1024], &mut out);
        }
        let sent = transmits(&out);
        out.clear();
        a.on_frame(SimTime(1), ack(&sent[1]), &mut out);
        assert_eq!(out, vec![], "frame 0 still holds the window");
        assert!(a.window_used() > unacked_wire_bytes(&a));
        a.on_frame(SimTime(2), ack(&sent[0]), &mut out);
        assert_eq!(
            transmits(&out).len(),
            2,
            "the hole closed: both wait no more"
        );
    }

    #[test]
    fn rto_of_a_backlogged_frame_starts_at_its_transmit() {
        let cfg = ChannelConfig {
            rto: Duration(100),
            ..ChannelConfig::sim_default()
        };
        let mut a = PeerChannel::new(Endpoint(0), Endpoint(1), cfg, SimTime::ZERO);
        let mut out = Vec::new();
        a.offer(SimTime(0), vec![1; 40 * 1024], &mut out);
        a.offer(SimTime(0), vec![2; 40 * 1024], &mut out);
        let first = transmits(&out).remove(0);
        assert_eq!(a.next_deadline(), Some(SimTime(100)));
        // The ack arrives at t=90; the second frame goes out then and is
        // not due at t=100, where a clock started at the offer would fire.
        out.clear();
        a.on_frame(SimTime(90), ack(&first), &mut out);
        assert_eq!(transmits(&out).len(), 1);
        assert_eq!(a.next_deadline(), Some(SimTime(190)));
        out.clear();
        a.on_tick(SimTime(100), &mut out);
        assert_eq!(out, vec![]);
        a.on_tick(SimTime(190), &mut out);
        assert!(matches!(out[0], ChanOut::Retransmit(_)));
    }

    #[test]
    fn a_dead_channel_holds_nothing_and_takes_nothing() {
        let cfg = ChannelConfig {
            rto: Duration(100),
            max_attempts: 1,
            ..ChannelConfig::sim_default()
        };
        let mut a = PeerChannel::new(Endpoint(0), Endpoint(1), cfg, SimTime::ZERO);
        let mut out = Vec::new();
        for i in 0..5u8 {
            a.offer(SimTime(0), vec![i; 30 * 1024], &mut out);
        }
        assert_eq!(a.in_flight(), 5);
        out.clear();
        a.on_tick(SimTime(100), &mut out);
        assert_eq!(out, vec![ChanOut::Dead]);
        assert_eq!((a.in_flight(), a.window_used()), (0, 0));
        out.clear();
        a.offer(SimTime(200), vec![9], &mut out);
        assert_eq!(out, vec![ChanOut::Count(ChanDrop::SendToDead)]);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn reorder_buffer_refuses_past_its_cap_but_never_the_missing_frame() {
        let (_, mut b) = pair(ChannelConfig::sim_default());
        let data =
            |seq: u64| Frame::data(Endpoint(0), Endpoint(1), seq, vec![seq as u8; 50 * 1024]);
        let fits = REORDER_CAP / data(1).wire_len();
        let mut out = Vec::new();
        // A sender with no window: frame 0 missing, everything after it
        // arriving. The buffer takes what the cap allows, acks exactly
        // that, and refuses the rest without acking.
        for seq in 1..=fits as u64 + 3 {
            b.on_frame(SimTime(1), data(seq), &mut out);
            assert!(b.reorder_bytes <= REORDER_CAP);
        }
        let refused = out
            .iter()
            .filter(|o| **o == ChanOut::Count(ChanDrop::ReorderRefused))
            .count();
        assert_eq!((transmits(&out).len(), refused), (fits, 3));
        // A duplicate of a buffered frame is acked, not counted twice.
        out.clear();
        let held = b.reorder_bytes;
        b.on_frame(SimTime(2), data(1), &mut out);
        assert_eq!((transmits(&out).len(), b.reorder_bytes), (1, held));
        // The missing frame is never refused, and drains the run.
        out.clear();
        b.on_frame(SimTime(3), data(0), &mut out);
        let delivered = out
            .iter()
            .filter(|o| matches!(o, ChanOut::Deliver(_)))
            .count();
        assert_eq!((delivered, b.reorder_bytes), (fits + 1, 0));
        // The refused frames come back as retransmits and are taken now.
        out.clear();
        b.on_frame(SimTime(4), data(fits as u64 + 1), &mut out);
        assert!(matches!(
            out[..],
            [ChanOut::Transmit(_), ChanOut::Deliver(_)]
        ));
    }

    #[test]
    fn idle_channel_pings_then_declares_death_on_silence() {
        let cfg = ChannelConfig {
            rto: Duration(100),
            rto_max: Duration(1_000),
            max_attempts: 5,
            ping_after: Some(Duration(1_000)),
            liveness: Duration(5_000),
        };
        let (mut a, mut b) = pair(cfg);
        let mut out = Vec::new();
        a.on_tick(SimTime(1_000), &mut out);
        let ping = match out.remove(0) {
            ChanOut::Transmit(f) => {
                assert_eq!(f.kind, FrameKind::Ping);
                f
            }
            other => panic!("expected ping, got {other:?}"),
        };
        // The peer answers; feeding the pong back keeps the channel alive.
        let mut bout = Vec::new();
        b.on_frame(SimTime(1_100), ping, &mut bout);
        if let ChanOut::Transmit(pong) = bout.remove(0) {
            assert_eq!(pong.kind, FrameKind::Pong);
            a.on_frame(SimTime(1_200), pong, &mut out);
        }
        assert!(!a.dead);
        // Silence past the liveness bound kills it.
        a.on_tick(SimTime(1_200 + 5_000), &mut out);
        assert_eq!(out, vec![ChanOut::Dead]);
    }

    #[test]
    fn quiescent_channel_has_no_deadline_without_probing() {
        let (a, _) = pair(ChannelConfig::sim_default());
        assert_eq!(a.next_deadline(), None, "sim backend must drain");
    }
}
