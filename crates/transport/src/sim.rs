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

use crate::frame::{Endpoint, Frame};
use crate::reliab::{ChanOut, ChannelConfig, ChannelSet, Wire};
use crate::{Transport, TransportError, TransportEvent};
use netsim::{HostId, HostSpec, Network, PayloadArena, PayloadId, Sim, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

enum NetEv {
    /// An encoded frame arriving at `dst` (already paid its link delay).
    /// The bytes live in the world's payload arena; the event carries only
    /// the slot id, released back for reuse at delivery.
    Frame { dst: Endpoint, payload: PayloadId },
    /// Channel maintenance (retransmit / liveness) for one endpoint.
    Tick { ep: Endpoint, at: SimTime },
}

/// The event loop and link model every endpoint shares.
struct Link {
    sim: Sim<NetEv>,
    net: Network,
    /// Recycled storage for in-flight encoded frames: in steady state a
    /// frame encodes into a buffer some earlier frame already paid for.
    arena: PayloadArena<Vec<u8>>,
}

/// The simulated wire under one endpoint's channel-set call: the link,
/// and every endpoint's host to address frames by.
struct SimWire<'a> {
    link: &'a mut Link,
    eps: &'a BTreeMap<Endpoint, EpState>,
}

impl Wire for SimWire<'_> {
    fn knows(&self, peer: Endpoint) -> bool {
        self.eps.contains_key(&peer)
    }

    fn transmit(&mut self, frame: &Frame) {
        let (Some(src), Some(dst)) = (self.eps.get(&frame.src), self.eps.get(&frame.dst)) else {
            return;
        };
        let link = &mut *self.link;
        let (id, buf) = link.arena.acquire();
        buf.clear();
        frame.encode_into(buf);
        let wire_bytes = buf.len() as u64;
        let now = link.sim.now();
        match link.net.transfer(now, src.host, dst.host, wire_bytes) {
            Ok(delay) => link.sim.schedule(
                delay,
                NetEv::Frame {
                    dst: frame.dst,
                    payload: id,
                },
            ),
            // Lost on the wire (offline host, cut link): the slot frees
            // immediately instead of riding a phantom delivery.
            Err(_) => link.arena.release(id),
        }
    }
}

struct EpState {
    host: HostId,
    /// In a cell so that while one endpoint's channels run, the wire can
    /// still read every endpoint's `host`.
    set: RefCell<ChannelSet>,
    /// Instant of the currently-scheduled maintenance tick, if any.
    tick_at: Option<SimTime>,
}

struct World {
    link: Link,
    eps: BTreeMap<Endpoint, EpState>,
    /// Scratch for channel outputs, handed back empty by every channel
    /// set call, so a delivered frame, a send or a tick allocates no
    /// buffer.
    outs: Vec<ChanOut>,
    /// Every endpoint's channel set feeds its per-frame counters here;
    /// the arena counters land here at run boundaries.
    obs: obs::Obs,
}

impl World {
    /// (Re)arm the maintenance tick for `ep` at its channels' next
    /// deadline, if it is sooner than whatever is already scheduled.
    fn arm_tick(&mut self, ep: Endpoint) {
        let s = self.eps.get_mut(&ep).expect("endpoint registered");
        let Some(d) = s.set.get_mut().next_deadline() else {
            return;
        };
        if s.tick_at.is_some_and(|t| t <= d) {
            return;
        }
        s.tick_at = Some(d);
        self.link.sim.schedule_at(d, NetEv::Tick { ep, at: d });
    }

    fn on_event(&mut self, ev: NetEv) {
        let now = self.link.sim.now();
        let ep = match ev {
            NetEv::Frame { dst, .. } => dst,
            NetEv::Tick { ep, at } => {
                let s = self.eps.get_mut(&ep).expect("ticks reach endpoints");
                if s.tick_at != Some(at) {
                    return; // superseded by an earlier re-arm
                }
                s.tick_at = None;
                ep
            }
        };
        let mut wire = SimWire {
            link: &mut self.link,
            eps: &self.eps,
        };
        let mut set = self.eps[&ep].set.borrow_mut();
        match ev {
            NetEv::Frame { payload, .. } => {
                let frame = set.decode(wire.link.arena.get(payload));
                wire.link.arena.release(payload);
                if let Some(frame) = frame {
                    set.on_frame(now, frame, &mut self.outs, &mut wire);
                }
            }
            NetEv::Tick { .. } => set.on_tick(now, &mut self.outs, &mut wire),
        }
        drop(set);
        self.arm_tick(ep);
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
                link: Link {
                    sim: Sim::new(seed),
                    net: Network::new(),
                    arena: PayloadArena::new(),
                },
                eps: BTreeMap::new(),
                outs: Vec::new(),
                obs: obs::Obs::disabled(),
            })),
        }
    }

    /// Attach a metrics observer; `transport.*` counters then feed the
    /// shared registry.
    pub fn set_obs(&self, observer: obs::Obs) {
        let mut w = self.world.borrow_mut();
        for s in w.eps.values_mut() {
            s.set.get_mut().set_obs(&observer);
        }
        w.obs = observer;
    }

    /// Register an endpoint backed by a simulated host. Panics if the
    /// endpoint id is already taken.
    pub fn add_endpoint(&self, ep: Endpoint, spec: HostSpec) -> SimEndpoint {
        let mut w = self.world.borrow_mut();
        let host = w.link.net.add_host(spec);
        let mut set = ChannelSet::new(ep, ChannelConfig::sim_default());
        set.set_obs(&w.obs);
        let state = EpState {
            host,
            set: RefCell::new(set),
            tick_at: None,
        };
        let prev = w.eps.insert(ep, state);
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
            w.link.net.set_online(host, online);
        }
    }

    /// Dispatch the next simulated event. Returns `false` when the queue
    /// has drained (the network is quiescent).
    pub fn step(&self) -> bool {
        let mut w = self.world.borrow_mut();
        match w.link.sim.step() {
            Some(ev) => {
                w.on_event(ev);
                true
            }
            None => false,
        }
    }

    /// Fold the arena counters into the observer as monotonic counters
    /// (`netsim.payload_allocs` / `netsim.payload_reuses`). Called at run
    /// boundaries so the per-frame hot path never touches the registry.
    pub fn publish_arena_stats(&self) {
        let w = self.world.borrow();
        let stats = w.link.arena.stats();
        w.obs.add("netsim.payload_allocs", stats.allocs);
        w.obs.add("netsim.payload_reuses", stats.reuses);
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
        self.world.borrow().link.sim.now()
    }

    fn send(&mut self, dst: Endpoint, payload: Vec<u8>) -> Result<(), TransportError> {
        let mut w = self.world.borrow_mut();
        let w = &mut *w;
        let now = w.link.sim.now();
        let mut wire = SimWire {
            link: &mut w.link,
            eps: &w.eps,
        };
        let sent = w.eps[&self.ep]
            .set
            .borrow_mut()
            .send(now, dst, payload, &mut w.outs, &mut wire);
        w.arm_tick(self.ep);
        sent
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        self.world.borrow().eps[&self.ep]
            .set
            .borrow_mut()
            .poll(events);
    }

    fn pending(&self) -> usize {
        self.world.borrow().eps[&self.ep].set.borrow().pending()
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

    /// An enabled observer attached to `net`, read back by [`count`].
    fn observed(net: &SimNet) -> obs::Obs {
        let observer = obs::Obs::enabled();
        net.set_obs(observer.clone());
        observer
    }

    /// The net-wide value of the `transport.<name>` counter.
    fn count(observer: &obs::Obs, name: &str) -> u64 {
        let reg = observer.registry().expect("obs enabled");
        reg.counter_value(&format!("transport.{name}"))
    }

    fn drain(net: &SimNet) {
        let mut guard = 0;
        while net.step() {
            guard += 1;
            assert!(guard < 100_000, "sim did not quiesce");
        }
    }

    /// Each frame fact is counted once: one data frame and its ack, each
    /// sent and received once.
    #[test]
    fn payload_travels_and_acks_flow() {
        let (net, mut a, mut b) = world_pair();
        let observer = observed(&net);
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
        let c = |name| count(&observer, name);
        assert_eq!(c("frames_sent"), 2, "a data frame and its ack");
        assert_eq!(c("frames_recv"), 2);
        assert_eq!((c("acks"), c("retransmits")), (1, 0));
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
    fn offline_peer_is_declared_dead_after_retries() {
        let (net, mut a, mut b) = world_pair();
        let observer = observed(&net);
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
        assert!(count(&observer, "retransmits") > 0);
        // A dead channel holds nothing, and drops what it is offered next.
        assert_eq!(a.pending(), 0);
        a.send(Endpoint(2), vec![9]).unwrap();
        assert_eq!(a.pending(), 0);
        assert!(!net.step(), "a dropped send schedules nothing");
        assert_eq!(count(&observer, "sends_to_dead"), 1);
    }

    /// The `simnet_bulk` shape at transport level: an orchestrator hands
    /// 8 DSL workers 32 × 32 KiB each in one burst and every delivery is
    /// answered with 32 KiB. The uplink needs ≈ 1 s per frame, so without
    /// a send window most of the burst outlives the 30 s RTO in the queue.
    #[test]
    fn bulk_burst_over_dsl_needs_no_retransmits() {
        let net = SimNet::new(1);
        let observer = observed(&net);
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
        // One data frame and one ack per payload each way, nothing else.
        assert_eq!(count(&observer, "retransmits"), 0);
        assert_eq!(count(&observer, "frames_sent"), 4 * 256);
        assert_eq!(count(&observer, "acks"), 2 * 256);
        assert_eq!(orch.pending(), 0);
    }

    #[test]
    fn identical_seeds_give_identical_histories() {
        let run = || {
            let (net, mut a, mut b) = world_pair();
            let observer = observed(&net);
            for i in 0..10u8 {
                a.send(Endpoint(2), vec![i; (i as usize % 5) + 1]).unwrap();
            }
            drain(&net);
            let mut evs = Vec::new();
            b.poll(&mut evs);
            (format!("{evs:?}"), observer.snapshot_json(), b.now())
        };
        assert_eq!(run(), run());
    }
}
