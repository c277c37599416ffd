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

use crate::frame::{Endpoint, Frame, FrameKind, HEADER_LEN, MAX_PAYLOAD};
use netsim::{Duration, SimTime};
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
    /// The channel dropped something; bump this `transport.*` counter.
    Count(&'static str),
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
    /// Lifetime stats for the transport's counters.
    pub retransmits: u64,
    pub acks_sent: u64,
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
            retransmits: 0,
            acks_sent: 0,
        }
    }

    pub fn peer(&self) -> Endpoint {
        self.peer
    }

    pub fn is_dead(&self) -> bool {
        self.dead
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
            out.push(ChanOut::Count("transport.sends_to_dead"));
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
        let frame = Frame::data(self.local, self.peer, seq, payload);
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
                    out.push(ChanOut::Count("transport.reorder_refused"));
                    return;
                }
                // Always ack — duplicates mean the previous ack was lost.
                self.acks_sent += 1;
                out.push(ChanOut::Transmit(Frame::control(
                    FrameKind::Ack,
                    self.local,
                    self.peer,
                    frame.seq,
                )));
                if buffers {
                    self.reorder_bytes += wire_len;
                    self.reorder.insert(frame.seq, frame.payload);
                } else if frame.seq == self.recv_next {
                    self.recv_next += 1;
                    out.push(ChanOut::Deliver(frame.payload));
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
                self.retransmits += 1;
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
            vec![ChanOut::Transmit(f1), ChanOut::Transmit(f2)],
            &mut b,
        );
        assert_eq!(got, vec![vec![1], vec![2]]);
        // Feed the acks back.
        for ack in acks {
            if let ChanOut::Transmit(f) = ack {
                a.on_frame(SimTime(20), f, &mut Vec::new());
            }
        }
        assert_eq!(a.in_flight(), 0);
        assert_eq!(b.acks_sent, 2);
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
        a.send_data(SimTime(0), vec![1]);
        let mut out = Vec::new();
        // First retry due at t=100.
        a.on_tick(SimTime(100), &mut out);
        assert!(matches!(out[0], ChanOut::Retransmit(_)));
        // Backoff doubled: next at 100 + 200.
        assert_eq!(a.next_deadline(), Some(SimTime(300)));
        out.clear();
        a.on_tick(SimTime(300), &mut out);
        assert!(matches!(out[0], ChanOut::Retransmit(_)));
        out.clear();
        // Third expiry exhausts max_attempts.
        a.on_tick(SimTime(1_000), &mut out);
        assert_eq!(out, vec![ChanOut::Dead]);
        assert!(a.is_dead());
        assert_eq!(a.retransmits, 2);
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
        assert_eq!(out, vec![ChanOut::Count("transport.sends_to_dead")]);
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
            .filter(|o| **o == ChanOut::Count("transport.reorder_refused"))
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
        assert!(!a.is_dead());
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
