//! The real-network backend: [`Transport`] over nonblocking UDP sockets.
//!
//! This offline workspace has no async runtime (no tokio), so the
//! backend is a poll-driven state machine over `std::net::UdpSocket` in
//! nonblocking mode — one socket per node, one frame per datagram,
//! driven by the same [`Transport::poll`] loop the sim backend uses. The
//! reliability layer on top is byte-for-byte the same [`PeerChannel`]
//! code: UDP loss, duplication and reordering are exactly the faults the
//! channel already absorbs under chaos testing in the simulator.
//!
//! The clock is a monotonic `Instant` anchored at construction and
//! reported as microseconds in [`SimTime`] — same type, different
//! substance — so node code written against the trait needs no
//! wall-clock special cases.

use crate::frame::{Endpoint, Frame, FrameKind, MAX_PAYLOAD};
use crate::reliab::{ChanOut, ChannelConfig, PeerChannel};
use crate::{TimerId, Transport, TransportCounters, TransportError, TransportEvent};
use netsim::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;

/// Receive buffer: one full frame plus header.
const RECV_BUF: usize = MAX_PAYLOAD + 512;

/// [`Transport`] over one nonblocking UDP socket.
pub struct SocketTransport {
    sock: UdpSocket,
    local: Endpoint,
    /// Endpoint → address directory. Learned from inbound frames when
    /// not pre-registered, so only one side of a link needs static
    /// configuration.
    peers: BTreeMap<Endpoint, SocketAddr>,
    channels: BTreeMap<Endpoint, PeerChannel>,
    cfg: ChannelConfig,
    /// timer id → (deadline, token); scanned on every poll (timer
    /// populations here are tiny).
    timers: BTreeMap<u64, (SimTime, u64)>,
    next_timer: u64,
    epoch: Instant,
    counters: TransportCounters,
    obs: obs::Obs,
    inbox: VecDeque<TransportEvent>,
    buf: Box<[u8; RECV_BUF]>,
}

impl SocketTransport {
    /// Bind a fresh socket on the loopback interface (ephemeral port).
    pub fn bind_loopback(local: Endpoint) -> Result<Self, TransportError> {
        Self::bind(local, "127.0.0.1:0")
    }

    pub fn bind(local: Endpoint, addr: &str) -> Result<Self, TransportError> {
        let sock = UdpSocket::bind(addr).map_err(|e| TransportError::Io(e.to_string()))?;
        sock.set_nonblocking(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(SocketTransport {
            sock,
            local,
            peers: BTreeMap::new(),
            channels: BTreeMap::new(),
            cfg: ChannelConfig::socket_default(),
            timers: BTreeMap::new(),
            next_timer: 0,
            epoch: Instant::now(),
            counters: TransportCounters::default(),
            obs: obs::Obs::disabled(),
            inbox: VecDeque::new(),
            buf: Box::new([0u8; RECV_BUF]),
        })
    }

    /// Attach a metrics observer (`transport.*` counters).
    pub fn set_obs(&mut self, observer: obs::Obs) {
        self.obs = observer;
    }

    /// Override the channel tunables (e.g. tighter timeouts in tests).
    pub fn set_channel_config(&mut self, cfg: ChannelConfig) {
        self.cfg = cfg;
    }

    /// The socket's bound address, for handing to peers out of band.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.sock
            .local_addr()
            .map_err(|e| TransportError::Io(e.to_string()))
    }

    /// Teach this transport where an endpoint lives.
    pub fn register_peer(&mut self, ep: Endpoint, addr: SocketAddr) {
        self.peers.insert(ep, addr);
    }

    pub fn counters(&self) -> TransportCounters {
        self.counters
    }

    fn transmit(&mut self, frame: &Frame) {
        let Some(&addr) = self.peers.get(&frame.dst) else {
            return;
        };
        self.counters.frame_sent(&self.obs);
        if frame.kind == FrameKind::Ack {
            self.counters.ack(&self.obs);
        }
        // UDP send failures (e.g. transient ENOBUFS) are treated as loss:
        // the reliability layer retransmits.
        p2p::wire::with_buf(|buf| {
            frame.encode_into(buf);
            let _ = self.sock.send_to(buf, addr);
        });
    }

    fn apply(&mut self, peer: Endpoint, outs: Vec<ChanOut>) {
        for out in outs {
            match out {
                ChanOut::Transmit(f) => self.transmit(&f),
                ChanOut::Retransmit(f) => {
                    self.counters.retransmit(&self.obs);
                    self.transmit(&f);
                }
                ChanOut::Deliver(payload) => self.inbox.push_back(TransportEvent::Delivered {
                    from: peer,
                    payload,
                }),
                ChanOut::Dead => self.inbox.push_back(TransportEvent::PeerDead { peer }),
                ChanOut::Count(counter) => self.obs.incr(counter),
            }
        }
    }

    /// Drain the socket until it would block.
    fn pump_socket(&mut self) {
        loop {
            match self.sock.recv_from(&mut self.buf[..]) {
                Ok((n, addr)) => {
                    let Ok(frame) = Frame::decode(&self.buf[..n]) else {
                        self.obs.incr("transport.decode_errors");
                        continue;
                    };
                    if frame.dst != self.local {
                        continue;
                    }
                    self.counters.frame_recv(&self.obs);
                    let peer = frame.src;
                    // Learn the return address from the packet itself.
                    self.peers.entry(peer).or_insert(addr);
                    let now = self.now();
                    let cfg = self.cfg;
                    let local = self.local;
                    let chan = self
                        .channels
                        .entry(peer)
                        .or_insert_with(|| PeerChannel::new(local, peer, cfg, now));
                    let mut outs = Vec::new();
                    chan.on_frame(now, frame, &mut outs);
                    self.apply(peer, outs);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Connection-refused noise from a peer that is not up
                // yet surfaces here on some platforms; loss is handled
                // by retransmission either way.
                Err(_) => break,
            }
        }
    }

    fn fire_timers(&mut self, now: SimTime) {
        let due: Vec<u64> = self
            .timers
            .iter()
            .filter(|(_, &(at, _))| at <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let (_, token) = self.timers.remove(&id).expect("collected above");
            self.inbox.push_back(TransportEvent::Timer { token });
        }
    }

    fn tick_channels(&mut self, now: SimTime) {
        let mut all: Vec<(Endpoint, Vec<ChanOut>)> = Vec::new();
        for (peer, chan) in self.channels.iter_mut() {
            let mut outs = Vec::new();
            chan.on_tick(now, &mut outs);
            if !outs.is_empty() {
                all.push((*peer, outs));
            }
        }
        for (peer, outs) in all {
            self.apply(peer, outs);
        }
    }
}

impl Transport for SocketTransport {
    fn local(&self) -> Endpoint {
        self.local
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn send(&mut self, dst: Endpoint, payload: Vec<u8>) -> Result<(), TransportError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(TransportError::PayloadTooLarge { len: payload.len() });
        }
        if !self.peers.contains_key(&dst) {
            return Err(TransportError::UnknownPeer(dst));
        }
        let now = self.now();
        let cfg = self.cfg;
        let local = self.local;
        let chan = self
            .channels
            .entry(dst)
            .or_insert_with(|| PeerChannel::new(local, dst, cfg, now));
        let mut outs = Vec::new();
        chan.offer(now, payload, &mut outs);
        self.apply(dst, outs);
        Ok(())
    }

    fn set_timer(&mut self, delay: Duration, token: u64) -> TimerId {
        let id = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(id, (self.now() + delay, token));
        TimerId(id)
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.remove(&timer.0);
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        self.pump_socket();
        let now = self.now();
        self.fire_timers(now);
        self.tick_channels(now);
        events.extend(self.inbox.drain(..));
    }

    fn pending(&self) -> usize {
        self.channels.values().map(PeerChannel::in_flight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linked_pair() -> (SocketTransport, SocketTransport) {
        let mut a = SocketTransport::bind_loopback(Endpoint(1)).unwrap();
        let mut b = SocketTransport::bind_loopback(Endpoint(2)).unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        a.register_peer(Endpoint(2), ba);
        b.register_peer(Endpoint(1), aa);
        (a, b)
    }

    /// Poll both transports until `want` deliveries reached `b` or the
    /// wall-clock budget runs out.
    fn pump_until(
        a: &mut SocketTransport,
        b: &mut SocketTransport,
        want: usize,
        budget_ms: u64,
    ) -> Vec<TransportEvent> {
        let start = Instant::now();
        let mut got = Vec::new();
        while got
            .iter()
            .filter(|e| matches!(e, TransportEvent::Delivered { .. }))
            .count()
            < want
        {
            a.poll(&mut Vec::new());
            b.poll(&mut got);
            if start.elapsed().as_millis() as u64 > budget_ms {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        got
    }

    #[test]
    fn loopback_delivery_in_order() {
        let (mut a, mut b) = linked_pair();
        for i in 0..10u8 {
            a.send(Endpoint(2), vec![i]).unwrap();
        }
        let evs = pump_until(&mut a, &mut b, 10, 5_000);
        let got: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                TransportEvent::Delivered { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
        assert!(a.counters().frames_sent >= 10);
        assert!(b.counters().acks >= 10);
    }

    #[test]
    fn timers_fire_and_cancel_on_wall_clock() {
        let mut a = SocketTransport::bind_loopback(Endpoint(9)).unwrap();
        a.set_timer(Duration::from_millis(5), 42);
        let doomed = a.set_timer(Duration::from_millis(5), 43);
        a.cancel_timer(doomed);
        let start = Instant::now();
        let mut evs = Vec::new();
        while evs.is_empty() && start.elapsed().as_millis() < 2_000 {
            a.poll(&mut evs);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(evs, vec![TransportEvent::Timer { token: 42 }]);
    }

    #[test]
    fn unreachable_peer_eventually_reported_dead() {
        let mut a = SocketTransport::bind_loopback(Endpoint(1)).unwrap();
        // Register a peer address nobody is listening on.
        a.register_peer(Endpoint(2), "127.0.0.1:9".parse().unwrap());
        a.set_channel_config(ChannelConfig {
            rto: Duration::from_millis(2),
            rto_max: Duration::from_millis(4),
            max_attempts: 3,
            ping_after: None,
            liveness: Duration::from_secs(60),
        });
        a.send(Endpoint(2), vec![1]).unwrap();
        let start = Instant::now();
        let mut evs = Vec::new();
        while !evs
            .iter()
            .any(|e| matches!(e, TransportEvent::PeerDead { .. }))
            && start.elapsed().as_millis() < 5_000
        {
            a.poll(&mut evs);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(evs.contains(&TransportEvent::PeerDead { peer: Endpoint(2) }));
        assert_eq!(a.pending(), 0, "nothing is owed to a dead peer");
    }
}
