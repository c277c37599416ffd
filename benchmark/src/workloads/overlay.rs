//! `overlay_lookup` and `overlay_publish`: the routed (Kademlia + super-
//! peer) discovery mode over 10⁵ consumer peers, 5 % of them providers of
//! one service, 10 % offline. `p2p::routed`, `overlay` and `netsim` only.
//!
//! * lookup — round = 1500 `query(ByService)` from random online origins,
//!   drained: the E15 read path at the scale on the way to 10⁶.
//! * publish — round = 250 `routed_republish` from provider peers,
//!   drained, with the offline set swapped every 10 rounds: the write side
//!   of the same layer, where a lookup gain bought with a slower or fatter
//!   provider store shows.
//!
//! The two offline sets are drawn from peers that are neither providers
//! nor hot super-peers: a super-peer is one because its availability
//! profile is high, and a provider that is down publishes nothing.

use super::{add_counters, count, per, round_seed, timed, Counts, Recorder, Round, Workload};
use crate::report::Metrics;
use crate::trace::{span, Tracer};
use netsim::{HostSpec, Network, Pcg32, Sim, SimTime};
use obs::Obs;
use p2p::advert::{AdvertBody, PeerAdvert};
use p2p::{Advertisement, DiscoveryMode, P2p, P2pEvent, PeerId, QueryId, QueryKind};

const PEERS: usize = 100_000;
const PROVIDERS: usize = PEERS / 20;
const OFFLINE: usize = PEERS / 10;
const LOOKUPS_PER_ROUND: usize = 1_500;
const REPUBLISHES_PER_ROUND: usize = 250;
const SWAP_EVERY_ROUNDS: u64 = 10;
const SERVICE: &str = "triana";
const WORLD_SEED: u64 = 0x0E15;
/// `repro e15 --million` asserts the same floor on its lookup phase.
const FOUND_FLOOR_PERCENT: u64 = 97;

const OBS_COUNTERS: &[&str] = &[
    "p2p.messages_sent",
    "p2p.lookups_started",
    "p2p.lookups_converged",
    "p2p.lookups_abandoned",
    "p2p.lookup_hops",
];

struct World {
    sim: Sim<P2pEvent>,
    net: Network,
    p2p: P2p,
    obs: Obs,
    providers: Vec<PeerId>,
    /// Two disjoint sets of peers; exactly one is offline at any time.
    churn: [Vec<PeerId>; 2],
    offline: usize,
}

impl World {
    /// Bootstrap the overlay, publish every provider, take set 0 offline,
    /// republish. The world is the same for every `--seed` — the seed
    /// drives the load, not the fixture — because peak memory and set-up
    /// time differ by a quarter between worlds (283–354 MiB over ten
    /// seeds) and would drown any change to them.
    fn build() -> Self {
        let seed = WORLD_SEED;
        let obs = Obs::enabled();
        let mut sim: Sim<P2pEvent> = Sim::new(seed);
        let mut net = Network::new();
        net.set_obs(obs.clone());
        let mut p2p = P2p::new(DiscoveryMode::Routed);
        p2p.set_obs(obs.clone());
        let mut rng = Pcg32::new(seed, 0x0E);
        let mut profiles = Vec::with_capacity(PEERS);
        for _ in 0..PEERS {
            let host = net.add_host(HostSpec::sample_consumer(&mut rng));
            p2p.add_peer(host);
            // (availability, speed) as the trust layer would report them:
            // most peers warm, a hot core, a cold fringe.
            profiles.push((rng.range_f64(0.2, 1.0), rng.range_f64(0.4, 1.5)));
        }
        p2p.enable_routed(&profiles, &mut rng);
        let mut order: Vec<u32> = (0..PEERS as u32).collect();
        rng.shuffle(&mut order);
        let (providers, rest) = order.split_at(PROVIDERS);
        let providers: Vec<PeerId> = providers.iter().map(|&i| PeerId(i)).collect();
        let mut churners = rest
            .iter()
            .map(|&i| PeerId(i))
            .filter(|&p| !p2p.is_rendezvous(p));
        let churn = [
            churners.by_ref().take(OFFLINE).collect::<Vec<_>>(),
            churners.by_ref().take(OFFLINE).collect::<Vec<_>>(),
        ];
        assert_eq!(churn[1].len(), OFFLINE, "not enough peers to churn");
        for &peer in &providers {
            let spec = net.spec(p2p.host_of(peer)).clone();
            let advert = Advertisement {
                body: AdvertBody::Peer(PeerAdvert {
                    peer,
                    cpu_ghz: spec.cpu_ghz,
                    free_ram_mib: spec.ram_mib,
                    services: vec![SERVICE.into()],
                }),
                // Far beyond any run: records never expire mid-benchmark.
                expires: SimTime::from_secs(10 * 365 * 86_400),
            };
            p2p.publish(&mut sim, &mut net, peer, advert);
        }
        let mut world = World {
            sim,
            net,
            p2p,
            obs,
            providers,
            churn,
            offline: 0,
        };
        world.drain(None);
        world.set_online(0, false);
        // One republish pass, as owners run before their records lapse:
        // the first publish placed records through sparse routing tables,
        // and without this pass the share of lookups that find a provider
        // decays round by round (to 93 % in some worlds) as tables fill
        // and lookups converge on closer nodes that hold nothing.
        for i in 0..world.providers.len() {
            let owner = world.providers[i];
            world
                .p2p
                .routed_republish(&mut world.sim, &mut world.net, owner);
        }
        world.drain(None);
        world
    }

    fn set_online(&mut self, set: usize, online: bool) {
        for &p in &self.churn[set] {
            self.net.set_online(self.p2p.host_of(p), online);
        }
    }

    fn swap_offline_set(&mut self) {
        self.set_online(self.offline, true);
        self.offline = 1 - self.offline;
        self.set_online(self.offline, false);
    }

    /// Run the simulator until the event queue is empty — under spans
    /// when traced.
    fn drain(&mut self, tracer: Option<&mut Tracer>) {
        let Some(tr) = tracer else {
            while let Some(ev) = self.sim.step() {
                self.p2p.handle(&mut self.sim, &mut self.net, ev);
            }
            return;
        };
        loop {
            let s = tr.enter("netsim.step");
            let ev = self.sim.step();
            tr.exit(s);
            let Some(ev) = ev else { break };
            let s = tr.enter("p2p.handle");
            self.p2p.handle(&mut self.sim, &mut self.net, ev);
            tr.exit(s);
        }
    }

    /// Counter values now.
    fn snapshot(&self) -> Counts {
        let mut c = Counts::new();
        add_counters(&mut c, &self.obs, OBS_COUNTERS);
        c.insert("netsim.events", self.sim.processed());
        c
    }

    /// What the counters gained since `before` was taken.
    fn counts_since(&self, before: &Counts) -> Counts {
        let mut now = self.snapshot();
        for (name, v) in &mut now {
            *v -= count(before, name);
        }
        now
    }
}

fn shared_metrics(c: &Counts, ops: u64, tr: &Tracer, out: &mut Metrics) {
    out.set("netsim.events_per_op", per(c, "netsim.events", ops));
    out.set("p2p.msgs_per_op", per(c, "p2p.messages_sent", ops));
    for (metric, span) in [
        ("netsim.step_share", "netsim.step"),
        ("p2p.handle_share", "p2p.handle"),
        ("p2p.issue_share", "p2p.issue"),
    ] {
        out.set(metric, tr.self_share(span, "round"));
    }
}

pub struct Lookup {
    seed: u64,
    world: World,
}

impl Workload for Lookup {
    const NAME: &'static str = "overlay_lookup";
    const DETERMINISTIC: bool = true;

    fn setup(seed: u64) -> Self {
        Lookup {
            seed,
            world: World::build(),
        }
    }

    fn round(&mut self, r: u64, recorder: Option<Recorder<'_>>) -> Round {
        let w = &mut self.world;
        let mut rng = Pcg32::new(round_seed(self.seed, r), 0x10);
        let origins: Vec<PeerId> = (0..LOOKUPS_PER_ROUND)
            .map(|_| loop {
                let origin = PeerId(rng.below(PEERS as u64) as u32);
                if w.net.is_online(w.p2p.host_of(origin)) {
                    break origin;
                }
            })
            .collect();
        let before = w.snapshot();
        let (tracer, counts) = Recorder::split(recorder);
        let (ids, ns) = timed(tracer, |mut tr| {
            let ids: Vec<QueryId> = origins
                .iter()
                .map(|&origin| {
                    span(&mut tr, "p2p.issue", || {
                        let kind = QueryKind::ByService(SERVICE.into());
                        w.p2p.query(&mut w.sim, &mut w.net, origin, kind, 0)
                    })
                })
                .collect();
            w.drain(tr);
            ids
        });
        let ops = ids.len() as u64;
        let (mut found, mut hops_sum, mut hops_max) = (0, 0, 0);
        for id in &ids {
            let status = &w.p2p.queries[id];
            found += u64::from(!status.hits.is_empty());
            hops_sum += status.hops;
            hops_max = hops_max.max(status.hops);
        }
        // A lookup that converges without a record is the simulated DHT's
        // answer under churn, not a malfunction: it is counted
        // (`p2p.lookup_found_share`, exact) and the round fails only below
        // the floor the product's own E15 run asserts. A lookup still
        // open after the drain is a malfunction.
        let mut failed = 0;
        if found * 100 < ops * FOUND_FLOOR_PERCENT {
            eprintln!("overlay_lookup: only {found} of {ops} lookups found a provider");
            failed = ops;
        }
        if w.p2p.active_lookups() != 0 {
            eprintln!(
                "overlay_lookup: {} lookups open after the drain",
                w.p2p.active_lookups()
            );
            failed = ops;
        }
        // Statuses are read; keep the table from growing with the run.
        w.p2p.queries.clear();
        if let Some(counts) = counts {
            counts.extend(w.counts_since(&before));
            counts.insert("p2p.queries_found", found);
            counts.insert("p2p.query_hops", hops_sum);
            counts.insert("p2p.query_hops_max", hops_max);
        }
        Round { ops, failed, ns }
    }

    fn layer_metrics(&self, c: &Counts, ops: u64, tr: &Tracer, out: &mut Metrics) {
        shared_metrics(c, ops, tr, out);
        out.set("p2p.hops_mean", per(c, "p2p.query_hops", ops));
        out.set("p2p.hops_max", count(c, "p2p.query_hops_max") as f64);
        out.set("p2p.lookup_found_share", per(c, "p2p.queries_found", ops));
    }
}

pub struct Publish {
    seed: u64,
    world: World,
    rounds_run: u64,
}

impl Workload for Publish {
    const NAME: &'static str = "overlay_publish";
    const DETERMINISTIC: bool = true;

    fn setup(seed: u64) -> Self {
        Publish {
            seed,
            world: World::build(),
            rounds_run: 0,
        }
    }

    fn round(&mut self, r: u64, recorder: Option<Recorder<'_>>) -> Round {
        let w = &mut self.world;
        if self.rounds_run > 0 && self.rounds_run.is_multiple_of(SWAP_EVERY_ROUNDS) {
            w.swap_offline_set();
        }
        self.rounds_run += 1;
        let mut rng = Pcg32::new(round_seed(self.seed, r), 0x11);
        let owners: Vec<PeerId> = (0..REPUBLISHES_PER_ROUND)
            .map(|_| w.providers[rng.below(PROVIDERS as u64) as usize])
            .collect();
        let before = w.snapshot();
        let (tracer, counts) = Recorder::split(recorder);
        let ((), ns) = timed(tracer, |mut tr| {
            for &owner in &owners {
                span(&mut tr, "p2p.issue", || {
                    w.p2p.routed_republish(&mut w.sim, &mut w.net, owner);
                });
            }
            w.drain(tr);
        });
        let delta = w.counts_since(&before);
        // A peer advert is stored under two keys (service and capability
        // index), so a republish that reached its executor starts two
        // lookups; one that started fewer, or whose lookup was abandoned
        // or is still open after the drain, did not get done.
        let ops = owners.len() as u64;
        let started = count(&delta, "p2p.lookups_started");
        let unfinished = started - count(&delta, "p2p.lookups_converged").min(started);
        let mut failed = (2 * ops).saturating_sub(started).div_ceil(2) + unfinished;
        if w.p2p.active_lookups() != 0 {
            eprintln!(
                "overlay_publish: {} lookups open after the drain",
                w.p2p.active_lookups()
            );
            failed = ops;
        }
        if let Some(counts) = counts {
            counts.extend(delta);
        }
        Round {
            ops,
            failed: failed.min(ops),
            ns,
        }
    }

    fn layer_metrics(&self, c: &Counts, ops: u64, tr: &Tracer, out: &mut Metrics) {
        shared_metrics(c, ops, tr, out);
        out.set(
            "p2p.hops_mean",
            per(c, "p2p.lookup_hops", count(c, "p2p.lookups_converged")),
        );
    }
}
