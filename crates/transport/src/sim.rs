//! The deterministic backend: [`Transport`] over the netsim calendar
//! queue and star-topology link model.
//!
//! One [`SimNet`] is a whole simulated internet: it owns the `Sim` event
//! loop and the `Network`, and hands out [`SimEndpoint`] handles that
//! implement [`Transport`]. Frames cost their encoded bytes through the
//! same uplink/downlink queueing every other experiment uses, deliveries
//! pop in `(time, insertion-seq)` order, and the whole run is
//! byte-reproducible from the seed. Hosts can be knocked offline with
//! [`SimNet::set_online`] — frames are then lost and the shared
//! reliability layer's retransmit/liveness machinery takes over, exactly
//! as it would on a real socket.

use crate::frame::{Endpoint, Frame, FrameKind, MAX_PAYLOAD};
use crate::reliab::{ChanOut, ChannelConfig, PeerChannel};
use crate::{TimerId, Transport, TransportCounters, TransportError, TransportEvent};
use netsim::{Duration, HostId, HostSpec, Network, PayloadArena, PayloadId, Sim, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

enum NetEv {
    /// An encoded frame arriving at `dst` (already paid its link delay).
    /// The bytes live in the world's payload arena; the event carries only
    /// the slot id, released back for reuse at delivery.
    Frame { dst: Endpoint, payload: PayloadId },
    /// A one-shot application timer.
    Timer { ep: Endpoint, id: u64, token: u64 },
    /// Channel maintenance (retransmit / liveness) for one endpoint.
    Tick { ep: Endpoint, at: SimTime },
}

struct EpState {
    host: HostId,
    channels: BTreeMap<Endpoint, PeerChannel>,
    inbox: VecDeque<TransportEvent>,
    cancelled: BTreeSet<u64>,
    next_timer: u64,
    counters: TransportCounters,
    /// Instant of the currently-scheduled maintenance tick, if any.
    tick_at: Option<SimTime>,
}

struct World {
    sim: Sim<NetEv>,
    net: Network,
    eps: BTreeMap<Endpoint, EpState>,
    cfg: ChannelConfig,
    /// Recycled storage for in-flight encoded frames: in steady state a
    /// frame encodes into a buffer some earlier frame already paid for.
    arena: PayloadArena<Vec<u8>>,
    obs: obs::Obs,
}

impl World {
    /// Put an encoded frame on the simulated wire. Loss (offline host,
    /// cut link) is silent here — the reliability layer notices.
    fn transmit(&mut self, frame: &Frame) {
        let Some(src) = self.eps.get_mut(&frame.src) else {
            return;
        };
        src.counters.frame_sent(&self.obs);
        if frame.kind == FrameKind::Ack {
            src.counters.ack(&self.obs);
        }
        let src_host = src.host;
        let Some(dst) = self.eps.get(&frame.dst) else {
            return;
        };
        let dst_host = dst.host;
        let (id, buf) = self.arena.acquire();
        buf.clear();
        frame.encode_into(buf);
        let wire_bytes = buf.len() as u64;
        let now = self.sim.now();
        match self.net.transfer(now, src_host, dst_host, wire_bytes) {
            Ok(delay) => self.sim.schedule(
                delay,
                NetEv::Frame {
                    dst: frame.dst,
                    payload: id,
                },
            ),
            // Lost on the wire (offline host, cut link): the slot frees
            // immediately instead of riding a phantom delivery.
            Err(_) => self.arena.release(id),
        }
    }

    /// Apply channel outputs for endpoint `ep`, given the peer they
    /// concern.
    fn apply(&mut self, ep: Endpoint, peer: Endpoint, outs: Vec<ChanOut>) {
        for out in outs {
            match out {
                ChanOut::Transmit(f) => self.transmit(&f),
                ChanOut::Retransmit(f) => {
                    if let Some(s) = self.eps.get_mut(&ep) {
                        s.counters.retransmit(&self.obs);
                    }
                    self.transmit(&f);
                }
                ChanOut::Deliver(payload) => {
                    if let Some(s) = self.eps.get_mut(&ep) {
                        s.inbox.push_back(TransportEvent::Delivered {
                            from: peer,
                            payload,
                        });
                    }
                }
                ChanOut::Dead => {
                    if let Some(s) = self.eps.get_mut(&ep) {
                        s.inbox.push_back(TransportEvent::PeerDead { peer });
                    }
                }
                ChanOut::Count(counter) => self.obs.incr(counter),
            }
        }
    }

    /// (Re)arm the maintenance tick for `ep` at the earliest channel
    /// deadline, if it is sooner than whatever is already scheduled.
    fn arm_tick(&mut self, ep: Endpoint) {
        let Some(s) = self.eps.get_mut(&ep) else {
            return;
        };
        let deadline = s.channels.values().filter_map(|c| c.next_deadline()).min();
        let Some(d) = deadline else {
            return;
        };
        if s.tick_at.is_some_and(|t| t <= d) {
            return;
        }
        s.tick_at = Some(d);
        self.sim.schedule_at(d, NetEv::Tick { ep, at: d });
    }

    fn on_event(&mut self, ev: NetEv) {
        match ev {
            NetEv::Frame { dst, payload } => {
                let frame = Frame::decode(self.arena.get(payload));
                self.arena.release(payload);
                let Some(s) = self.eps.get_mut(&dst) else {
                    return;
                };
                let frame = match frame {
                    Ok(f) => f,
                    Err(_) => {
                        self.obs.incr("transport.decode_errors");
                        return;
                    }
                };
                s.counters.frame_recv(&self.obs);
                let now = self.sim.now();
                let peer = frame.src;
                let cfg = self.cfg;
                let chan = s
                    .channels
                    .entry(peer)
                    .or_insert_with(|| PeerChannel::new(dst, peer, cfg, now));
                let mut outs = Vec::new();
                chan.on_frame(now, frame, &mut outs);
                self.apply(dst, peer, outs);
                self.arm_tick(dst);
            }
            NetEv::Timer { ep, id, token } => {
                if let Some(s) = self.eps.get_mut(&ep) {
                    if !s.cancelled.remove(&id) {
                        s.inbox.push_back(TransportEvent::Timer { token });
                    }
                }
            }
            NetEv::Tick { ep, at } => {
                let Some(s) = self.eps.get_mut(&ep) else {
                    return;
                };
                if s.tick_at != Some(at) {
                    return; // superseded by an earlier re-arm
                }
                s.tick_at = None;
                let now = self.sim.now();
                let mut all: Vec<(Endpoint, Vec<ChanOut>)> = Vec::new();
                for (peer, chan) in s.channels.iter_mut() {
                    let mut outs = Vec::new();
                    chan.on_tick(now, &mut outs);
                    if !outs.is_empty() {
                        all.push((*peer, outs));
                    }
                }
                for (peer, outs) in all {
                    self.apply(ep, peer, outs);
                }
                self.arm_tick(ep);
            }
        }
    }
}

/// One simulated internet hosting any number of transport endpoints.
#[derive(Clone)]
pub struct SimNet {
    world: Rc<RefCell<World>>,
}

impl SimNet {
    pub fn new(seed: u64) -> Self {
        SimNet {
            world: Rc::new(RefCell::new(World {
                sim: Sim::new(seed),
                net: Network::new(),
                eps: BTreeMap::new(),
                cfg: ChannelConfig::sim_default(),
                arena: PayloadArena::new(),
                obs: obs::Obs::disabled(),
            })),
        }
    }

    /// Attach a metrics observer; `transport.*` counters then feed the
    /// shared registry.
    pub fn set_obs(&self, observer: obs::Obs) {
        self.world.borrow_mut().obs = observer;
    }

    /// Register an endpoint backed by a simulated host. Panics if the
    /// endpoint id is already taken.
    pub fn add_endpoint(&self, ep: Endpoint, spec: HostSpec) -> SimEndpoint {
        let mut w = self.world.borrow_mut();
        let host = w.net.add_host(spec);
        let prev = w.eps.insert(
            ep,
            EpState {
                host,
                channels: BTreeMap::new(),
                inbox: VecDeque::new(),
                cancelled: BTreeSet::new(),
                next_timer: 0,
                counters: TransportCounters::default(),
                tick_at: None,
            },
        );
        assert!(prev.is_none(), "endpoint {ep} registered twice");
        SimEndpoint {
            world: Rc::clone(&self.world),
            ep,
        }
    }

    /// Knock a host off the simulated network (or bring it back). While
    /// offline, frames to and from it are lost.
    pub fn set_online(&self, ep: Endpoint, online: bool) {
        let mut w = self.world.borrow_mut();
        if let Some(host) = w.eps.get(&ep).map(|s| s.host) {
            w.net.set_online(host, online);
        }
    }

    /// Dispatch the next simulated event. Returns `false` when the queue
    /// has drained (the network is quiescent).
    pub fn step(&self) -> bool {
        let mut w = self.world.borrow_mut();
        match w.sim.step() {
            Some(ev) => {
                w.on_event(ev);
                true
            }
            None => false,
        }
    }

    pub fn now(&self) -> SimTime {
        self.world.borrow().sim.now()
    }

    /// Arena traffic so far (allocs = slots created, reuses = recycled).
    pub fn arena_stats(&self) -> netsim::PayloadStats {
        self.world.borrow().arena.stats()
    }

    /// Fold the arena counters into the observer as monotonic counters
    /// (`netsim.payload_allocs` / `netsim.payload_reuses`). Called at run
    /// boundaries so the per-frame hot path never touches the registry.
    pub fn publish_arena_stats(&self) {
        let w = self.world.borrow();
        let stats = w.arena.stats();
        w.obs.add("netsim.payload_allocs", stats.allocs);
        w.obs.add("netsim.payload_reuses", stats.reuses);
    }

    /// Lifetime counters for one endpoint.
    pub fn counters(&self, ep: Endpoint) -> TransportCounters {
        self.world
            .borrow()
            .eps
            .get(&ep)
            .map(|s| s.counters)
            .unwrap_or_default()
    }
}

/// A [`Transport`] handle onto one endpoint of a [`SimNet`].
pub struct SimEndpoint {
    world: Rc<RefCell<World>>,
    ep: Endpoint,
}

impl Transport for SimEndpoint {
    fn local(&self) -> Endpoint {
        self.ep
    }

    fn now(&self) -> SimTime {
        self.world.borrow().sim.now()
    }

    fn send(&mut self, dst: Endpoint, payload: Vec<u8>) -> Result<(), TransportError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(TransportError::PayloadTooLarge { len: payload.len() });
        }
        let mut w = self.world.borrow_mut();
        if !w.eps.contains_key(&dst) {
            return Err(TransportError::UnknownPeer(dst));
        }
        let now = w.sim.now();
        let cfg = w.cfg;
        let ep = self.ep;
        let s = w.eps.get_mut(&ep).expect("own endpoint registered");
        let chan = s
            .channels
            .entry(dst)
            .or_insert_with(|| PeerChannel::new(ep, dst, cfg, now));
        let mut outs = Vec::new();
        chan.offer(now, payload, &mut outs);
        w.apply(ep, dst, outs);
        w.arm_tick(ep);
        Ok(())
    }

    fn set_timer(&mut self, delay: Duration, token: u64) -> TimerId {
        let mut w = self.world.borrow_mut();
        let ep = self.ep;
        let s = w.eps.get_mut(&ep).expect("own endpoint registered");
        let id = s.next_timer;
        s.next_timer += 1;
        w.sim.schedule(delay, NetEv::Timer { ep, id, token });
        TimerId(id)
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        let mut w = self.world.borrow_mut();
        if let Some(s) = w.eps.get_mut(&self.ep) {
            s.cancelled.insert(timer.0);
        }
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        let mut w = self.world.borrow_mut();
        if let Some(s) = w.eps.get_mut(&self.ep) {
            events.extend(s.inbox.drain(..));
        }
    }

    fn pending(&self) -> usize {
        let w = self.world.borrow();
        w.eps
            .get(&self.ep)
            .map(|s| s.channels.values().map(PeerChannel::in_flight).sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_pair() -> (SimNet, SimEndpoint, SimEndpoint) {
        let net = SimNet::new(7);
        let a = net.add_endpoint(Endpoint(1), HostSpec::reference_pc());
        let b = net.add_endpoint(Endpoint(2), HostSpec::reference_pc());
        (net, a, b)
    }

    fn drain(net: &SimNet) {
        let mut guard = 0;
        while net.step() {
            guard += 1;
            assert!(guard < 100_000, "sim did not quiesce");
        }
    }

    #[test]
    fn payload_travels_and_acks_flow() {
        let (net, mut a, mut b) = world_pair();
        a.send(Endpoint(2), b"hello grid".to_vec()).unwrap();
        drain(&net);
        let mut evs = Vec::new();
        b.poll(&mut evs);
        assert_eq!(
            evs,
            vec![TransportEvent::Delivered {
                from: Endpoint(1),
                payload: b"hello grid".to_vec()
            }]
        );
        let ca = net.counters(Endpoint(1));
        let cb = net.counters(Endpoint(2));
        // a sent one data frame, b acked it; nothing retransmitted.
        assert_eq!((ca.frames_sent, ca.retransmits), (1, 0));
        assert_eq!((cb.frames_recv, cb.acks), (1, 1));
        assert_eq!(ca.frames_recv, 1, "a received the ack");
    }

    #[test]
    fn many_messages_arrive_in_order() {
        let (net, mut a, mut b) = world_pair();
        for i in 0..20u8 {
            a.send(Endpoint(2), vec![i]).unwrap();
        }
        drain(&net);
        let mut evs = Vec::new();
        b.poll(&mut evs);
        let got: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                TransportEvent::Delivered { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn timers_fire_and_cancel() {
        let (net, mut a, _b) = world_pair();
        a.set_timer(Duration::from_millis(5), 111);
        let doomed = a.set_timer(Duration::from_millis(6), 222);
        a.cancel_timer(doomed);
        drain(&net);
        let mut evs = Vec::new();
        a.poll(&mut evs);
        assert_eq!(evs, vec![TransportEvent::Timer { token: 111 }]);
    }

    #[test]
    fn offline_peer_is_declared_dead_after_retries() {
        let (net, mut a, mut b) = world_pair();
        let observer = obs::Obs::enabled();
        net.set_obs(observer.clone());
        net.set_online(Endpoint(2), false);
        // More than one window, so part of it is still backlogged when
        // the peer is given up on.
        for i in 0..4u8 {
            a.send(Endpoint(2), vec![i; 30 * 1024]).unwrap();
        }
        assert_eq!(a.pending(), 4);
        drain(&net);
        let mut evs = Vec::new();
        a.poll(&mut evs);
        assert_eq!(evs, vec![TransportEvent::PeerDead { peer: Endpoint(2) }]);
        let mut bev = Vec::new();
        b.poll(&mut bev);
        assert!(bev.is_empty());
        assert!(net.counters(Endpoint(1)).retransmits > 0);
        // A dead channel holds nothing, and drops what it is offered next.
        assert_eq!(a.pending(), 0);
        a.send(Endpoint(2), vec![9]).unwrap();
        assert_eq!(a.pending(), 0);
        assert!(!net.step(), "a dropped send schedules nothing");
        let reg = observer.registry().expect("obs enabled");
        assert_eq!(reg.counter_value("transport.sends_to_dead"), 1);
    }

    /// The `simnet_bulk` shape at transport level: an orchestrator hands
    /// 8 DSL workers 32 × 32 KiB each in one burst and every delivery is
    /// answered with 32 KiB. The uplink needs ≈ 1 s per frame, so without
    /// a send window most of the burst outlives the 30 s RTO in the queue.
    #[test]
    fn bulk_burst_over_dsl_needs_no_retransmits() {
        let net = SimNet::new(1);
        let mut orch = net.add_endpoint(Endpoint(0), HostSpec::reference_pc());
        let mut workers: Vec<SimEndpoint> = (1..=8)
            .map(|i| net.add_endpoint(Endpoint(i), HostSpec::reference_pc()))
            .collect();
        for job in 0..256u64 {
            let to = Endpoint(1 + job % 8);
            orch.send(to, vec![job as u8; 32 * 1024]).unwrap();
        }
        let (mut dispatched, mut results) = (0, 0);
        let mut evs = Vec::new();
        loop {
            for w in &mut workers {
                w.poll(&mut evs);
                for ev in evs.drain(..) {
                    if let TransportEvent::Delivered { payload, .. } = ev {
                        dispatched += 1;
                        w.send(Endpoint(0), payload).unwrap();
                    }
                }
            }
            orch.poll(&mut evs);
            results += evs.drain(..).count();
            if !net.step() {
                break;
            }
        }
        assert_eq!((dispatched, results), (256, 256));
        for ep in 0..=8 {
            let c = net.counters(Endpoint(ep));
            assert_eq!(c.retransmits, 0, "ep{ep} retransmitted");
        }
        // One data frame and one ack per payload, nothing else.
        assert_eq!(net.counters(Endpoint(0)).frames_sent, 256 + 256);
        assert_eq!(orch.pending(), 0);
    }

    #[test]
    fn identical_seeds_give_identical_histories() {
        let run = || {
            let (net, mut a, mut b) = world_pair();
            for i in 0..10u8 {
                a.send(Endpoint(2), vec![i; (i as usize % 5) + 1]).unwrap();
            }
            drain(&net);
            let mut evs = Vec::new();
            b.poll(&mut evs);
            (format!("{evs:?}"), net.counters(Endpoint(1)), net.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oversized_payload_refused() {
        let (_net, mut a, _b) = world_pair();
        let err = a.send(Endpoint(2), vec![0; MAX_PAYLOAD + 1]).unwrap_err();
        assert!(matches!(err, TransportError::PayloadTooLarge { .. }));
    }

    #[test]
    fn unknown_peer_refused() {
        let (_net, mut a, _b) = world_pair();
        let err = a.send(Endpoint(99), vec![1]).unwrap_err();
        assert_eq!(err, TransportError::UnknownPeer(Endpoint(99)));
    }
}
