//! The overlay: peer table, neighbour graph, discovery, and message routing.
//!
//! Two discovery modes are implemented behind one API so experiments can
//! compare them on identical topologies (paper §3.7):
//!
//! * [`DiscoveryMode::Flooding`] — Gnutella-style TTL-limited flooding with
//!   duplicate suppression. "A number of P2P application utilise a
//!   'flooding' mechanism to forward messages to maximise reachability.
//!   This severely restricts the scalability of such approaches."
//! * [`DiscoveryMode::Rendezvous`] — JXTA-style super-peers: edge peers
//!   publish advertisements to an assigned rendezvous; queries visit the
//!   rendezvous tier only.
//! * [`DiscoveryMode::Routed`] — Kademlia-style structured discovery over
//!   the `triana-overlay` crate: XOR-routed iterative lookups against a
//!   provider-record DHT, with a super-peer tier carrying flaky peers'
//!   traffic (see `crate::routed`).

use crate::advert::Advertisement;
use crate::message::{IdMap, LookupId, Message, P2pEvent, QueryId, QueryKind};
use crate::pipe::{PipeError, PipeId, PipeTable};
use crate::routed::{ActiveLookup, RoutedConfig, RoutedNode};
use netsim::{HostId, Network, Pcg32, Sim, SimTime};
use obs::{Counter, Event, Obs};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Index of a peer within the overlay.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// How discovery queries propagate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiscoveryMode {
    /// TTL-limited flooding over the neighbour graph.
    Flooding,
    /// Publish/lookup via rendezvous super-peers.
    Rendezvous,
    /// Kademlia-routed iterative lookups over the structured overlay.
    Routed,
}

/// Per-peer bound on the flood duplicate-suppression cache: old query IDs
/// are forgotten FIFO past this many, so a long-lived peer's memory does
/// not grow with the total number of queries ever flooded.
pub const SEEN_CACHE_CAP: usize = 4096;

/// Bounded duplicate-suppression cache: a FIFO window over the most
/// recent query IDs a peer has processed. `insert` returns `false` for a
/// duplicate within the window.
pub(crate) struct SeenCache {
    set: HashSet<QueryId>,
    order: VecDeque<QueryId>,
    cap: usize,
}

impl SeenCache {
    pub(crate) fn new(cap: usize) -> Self {
        SeenCache {
            set: HashSet::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Record a query ID; `false` means it was already in the window
    /// (a duplicate to suppress).
    pub(crate) fn insert(&mut self, id: QueryId) -> bool {
        if !self.set.insert(id) {
            return false;
        }
        self.order.push_back(id);
        while self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn clear(&mut self) {
        self.set.clear();
        self.order.clear();
    }
}

pub(crate) struct PeerState {
    pub(crate) host: HostId,
    pub(crate) neighbors: Vec<PeerId>,
    /// Locally published advertisements.
    pub(crate) ads: Vec<Advertisement>,
    /// Assigned rendezvous (edge peers in rendezvous mode; cold peers in
    /// routed mode).
    pub(crate) rendezvous: Option<PeerId>,
    pub(crate) is_rendezvous: bool,
    /// Advertisement cache (rendezvous peers only).
    pub(crate) cache: Vec<Advertisement>,
    /// Flood duplicate suppression (bounded FIFO window); `None` until the
    /// peer first processes a query, which most routed peers never do.
    pub(crate) seen: Option<Box<SeenCache>>,
    /// Structured-overlay state (routed mode; `None` until bootstrap).
    pub(crate) routed: Option<RoutedNode>,
}

impl PeerState {
    /// The duplicate-suppression window, created on first use.
    fn seen(&mut self) -> &mut SeenCache {
        self.seen
            .get_or_insert_with(|| Box::new(SeenCache::new(SEEN_CACHE_CAP)))
    }
}

/// Progress record of one discovery query.
#[derive(Clone, Debug)]
pub struct QueryStatus {
    pub kind: QueryKind,
    pub origin: PeerId,
    pub sent_at: SimTime,
    /// (arrival time, advert) per hit, in arrival order. May contain the
    /// same provider twice if it is reachable via several paths.
    pub hits: Vec<(SimTime, Advertisement)>,
    /// Overlay messages attributed to this query (queries + hits).
    pub messages: u64,
    /// Distinct peers that processed the query.
    pub peers_visited: u64,
    /// Routed mode only: the longest referral chain the iterative lookup
    /// followed (the structured analogue of flood TTL consumption). Zero
    /// in flooding/rendezvous mode and until the lookup resolves.
    pub hops: u64,
}

impl QueryStatus {
    /// Distinct providers among the hits.
    pub fn providers(&self) -> Vec<PeerId> {
        let mut seen = HashSet::new();
        self.hits
            .iter()
            .map(|(_, ad)| ad.peer())
            .filter(|p| seen.insert(*p))
            .collect()
    }

    /// Like [`QueryStatus::providers`], but drops hits whose advertisement
    /// has expired by `now` — between query emission and the end of the
    /// discovery window the TTL may lapse, and an expired advert carries no
    /// promise that the provider still holds the content. Returns the live
    /// providers plus the number of hits skipped as expired.
    pub fn providers_live(&self, now: SimTime) -> (Vec<PeerId>, u64) {
        let mut seen = HashSet::new();
        let mut expired = 0u64;
        let mut live = Vec::new();
        for (_, ad) in &self.hits {
            if ad.is_expired(now) {
                expired += 1;
                continue;
            }
            let p = ad.peer();
            if seen.insert(p) {
                live.push(p);
            }
        }
        (live, expired)
    }

    /// Latency from query emission to first hit.
    pub fn first_hit_latency(&self) -> Option<netsim::Duration> {
        self.hits.first().map(|(t, _)| t.since(self.sent_at))
    }
}

/// A notification surfaced to the embedding layer by [`P2p::handle`].
#[derive(Clone, Debug, PartialEq)]
pub enum Incoming {
    /// A query hit arrived at the origin; the advert itself is in
    /// [`QueryStatus::hits`].
    QueryHit { id: QueryId, provider: PeerId },
    /// Application data arrived on a pipe.
    PipeData {
        to: PeerId,
        pipe: PipeId,
        tag: u64,
        bytes: u64,
    },
    /// Replicated-scheduler gossip arrived: either one delta (`count == 1`,
    /// `sync == false`) or an anti-entropy batch covering log entries
    /// `[seq, seq + count)`. The embedding layer applies the entries out of
    /// its shared delta log.
    Orch {
        to: PeerId,
        seq: u64,
        count: u64,
        sync: bool,
    },
}

/// What one [`P2p::handle`] call surfaced, in order: the first
/// notification inline, later ones (only a routed reply's second and
/// further hits) in a `Vec`, so surfacing at most one allocates nothing.
#[derive(Debug, Default)]
pub struct Surfaced(Option<Incoming>, Vec<Incoming>);

impl Surfaced {
    pub(crate) fn push(&mut self, inc: Incoming) {
        match self.0 {
            None => self.0 = Some(inc),
            Some(_) => self.1.push(inc),
        }
    }
}

impl IntoIterator for Surfaced {
    type Item = Incoming;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Incoming>, std::vec::IntoIter<Incoming>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().chain(self.1)
    }
}

obs::handles! {
    /// The overlay's counters, resolved once in [`P2p::set_obs`]. The
    /// per-kind sent counters are [`P2p::sent`]; events and once-per-run
    /// counters (bootstrap, purge, poisoning) go through [`P2p::obs`] by name.
    pub(crate) struct P2pMetrics {
        messages_sent: Counter = "p2p.messages_sent",
        bytes_sent: Counter = "p2p.bytes_sent",
        messages_filtered: Counter = "p2p.messages_filtered",
        send_failures: Counter = "p2p.send_failures",
        messages_received: Counter = "p2p.messages_received",
        messages_lost: Counter = "p2p.messages_lost",
        flood_duplicates: Counter = "p2p.flood_duplicates",
        publishes: Counter = "p2p.publishes",
        queries: Counter = "p2p.queries",
        advert_cache_inserts: Counter = "p2p.advert_cache_inserts",
        advert_cache_hits: Counter = "p2p.advert_cache_hits",
        query_hits: Counter = "p2p.query_hits",
        overlay_pings: Counter = "p2p.overlay_pings",
        cold_delegated_publishes: Counter = "p2p.cold_delegated_publishes",
        cold_delegated_queries: Counter = "p2p.cold_delegated_queries",
        republishes: Counter = "p2p.republishes",
        lookup_local_hits: Counter = "p2p.lookup_local_hits",
        lookups_started: Counter = "p2p.lookups_started",
        lookups_converged: Counter = "p2p.lookups_converged",
        lookups_abandoned: Counter = "p2p.lookups_abandoned",
        lookup_timeouts: Counter = "p2p.lookup_timeouts",
        lookup_hops: Counter = "p2p.lookup_hops",
        provider_record_hits: Counter = "p2p.provider_record_hits",
        provider_records_stored: Counter = "p2p.provider_records_stored",
        reply_contacts_refused: Counter = "p2p.reply_contacts_refused",
        reply_providers_refused: Counter = "p2p.reply_providers_refused",
    }
}

/// The overlay network state.
pub struct P2p {
    pub mode: DiscoveryMode,
    pub(crate) peers: Vec<PeerState>,
    pub pipes: PipeTable,
    pub queries: IdMap<QueryId, QueryStatus>,
    next_query: u64,
    pub(crate) rendezvous_peers: Vec<PeerId>,
    pub(crate) metrics: P2pMetrics,
    /// `p2p.sent.<kind>`, indexed by [`Message::kind`].
    pub(crate) sent: [Counter; 11],
    pub(crate) obs: Obs,
    /// Tuning for routed mode (read at bootstrap and per lookup).
    pub routed_cfg: RoutedConfig,
    /// In-progress iterative lookups, keyed by wire lookup ID.
    pub(crate) lookups: IdMap<LookupId, ActiveLookup>,
    pub(crate) next_lookup: u64,
    /// How many peers had routed state at the last bootstrap (lazy
    /// re-bootstrap trigger when peers are added afterwards).
    pub(crate) routed_peers: usize,
    /// Fault-injection hook: consulted before every overlay send with
    /// `(now, from, to, &msg)`; returning `false` silently discards the
    /// message before it touches the network (metered as
    /// `p2p.messages_filtered`, *not* as sent).
    #[allow(clippy::type_complexity)]
    send_filter: Option<Box<dyn FnMut(SimTime, PeerId, PeerId, &Message) -> bool>>,
    /// Recycled `closer` buffers for FIND reply messages: serving a
    /// lookup step fills one, the reply handler drains it and hands the
    /// capacity back, so steady-state lookup traffic builds replies
    /// without allocating.
    pub(crate) reply_contact_pool: Vec<Vec<(u64, PeerId)>>,
    /// Recycled `providers` buffers, same lifecycle as the contact pool.
    pub(crate) reply_advert_pool: Vec<Vec<Advertisement>>,
    /// Scratch for contact lists that live within one call: the table's
    /// `closest_into` on the serve path and for a new lookup's seeds, and
    /// each batch a lookup step issues.
    pub(crate) contact_scratch: Vec<::overlay::Contact>,
}

impl P2p {
    pub fn new(mode: DiscoveryMode) -> Self {
        P2p {
            mode,
            peers: Vec::new(),
            pipes: PipeTable::new(),
            queries: IdMap::default(),
            next_query: 0,
            rendezvous_peers: Vec::new(),
            metrics: P2pMetrics::default(),
            sent: Default::default(),
            obs: Obs::disabled(),
            routed_cfg: RoutedConfig::default(),
            lookups: IdMap::default(),
            next_lookup: 0,
            routed_peers: 0,
            send_filter: None,
            reply_contact_pool: Vec::new(),
            reply_advert_pool: Vec::new(),
            contact_scratch: Vec::new(),
        }
    }

    /// Cap on each reply-buffer pool: enough for any realistic number of
    /// concurrently in-flight replies; beyond it, returned buffers are
    /// simply dropped.
    const REPLY_POOL_CAP: usize = 256;

    pub(crate) fn take_contact_buf(&mut self) -> Vec<(u64, PeerId)> {
        self.reply_contact_pool.pop().unwrap_or_default()
    }

    pub(crate) fn recycle_contact_buf(&mut self, mut buf: Vec<(u64, PeerId)>) {
        if self.reply_contact_pool.len() < Self::REPLY_POOL_CAP {
            buf.clear();
            self.reply_contact_pool.push(buf);
        }
    }

    pub(crate) fn take_advert_buf(&mut self) -> Vec<Advertisement> {
        self.reply_advert_pool.pop().unwrap_or_default()
    }

    pub(crate) fn recycle_advert_buf(&mut self, mut buf: Vec<Advertisement>) {
        if self.reply_advert_pool.len() < Self::REPLY_POOL_CAP {
            buf.clear();
            self.reply_advert_pool.push(buf);
        }
    }

    /// Install a fault-injection send filter (see the `send_filter` field
    /// docs). Replaces any previous filter.
    #[allow(clippy::type_complexity)]
    pub fn set_send_filter(
        &mut self,
        filter: Box<dyn FnMut(SimTime, PeerId, PeerId, &Message) -> bool>,
    ) {
        self.send_filter = Some(filter);
    }

    /// Remove the send filter.
    pub fn clear_send_filter(&mut self) {
        self.send_filter = None;
    }

    /// Attach an observability handle; overlay message traffic, queries,
    /// advert cache activity and send failures are recorded through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = P2pMetrics::new(&obs);
        self.sent = Message::SENT_COUNTERS.map(|name| obs.counter(name));
        self.obs = obs;
    }

    /// Enrol a host as a peer.
    pub fn add_peer(&mut self, host: HostId) -> PeerId {
        let id = PeerId(self.peers.len() as u32);
        self.peers.push(PeerState {
            host,
            neighbors: Vec::new(),
            ads: Vec::new(),
            rendezvous: None,
            is_rendezvous: false,
            cache: Vec::new(),
            seen: None,
            routed: None,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.peers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    pub fn host_of(&self, p: PeerId) -> HostId {
        self.peers[p.0 as usize].host
    }

    pub fn peer_ids(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.peers.len() as u32).map(PeerId)
    }

    pub fn neighbors(&self, p: PeerId) -> &[PeerId] {
        &self.peers[p.0 as usize].neighbors
    }

    pub fn is_rendezvous(&self, p: PeerId) -> bool {
        self.peers[p.0 as usize].is_rendezvous
    }

    /// Wire the neighbour graph: a ring (guaranteeing connectivity) plus
    /// random chords until each peer has ~`degree` neighbours. Deterministic
    /// for a given rng stream.
    pub fn wire_random(&mut self, degree: usize, rng: &mut Pcg32) {
        let n = self.peers.len();
        if n < 2 {
            return;
        }
        let connect = |a: usize, b: usize, peers: &mut Vec<PeerState>| {
            if a == b {
                return;
            }
            let (pa, pb) = (PeerId(a as u32), PeerId(b as u32));
            if !peers[a].neighbors.contains(&pb) {
                peers[a].neighbors.push(pb);
                peers[b].neighbors.push(pa);
            }
        };
        for i in 0..n {
            connect(i, (i + 1) % n, &mut self.peers);
        }
        for i in 0..n {
            while self.peers[i].neighbors.len() < degree.min(n - 1) {
                let j = rng.below(n as u64) as usize;
                if j == i || self.peers[i].neighbors.contains(&PeerId(j as u32)) {
                    // Avoid spinning forever on small dense graphs.
                    if self.peers[i].neighbors.len() >= n - 1 {
                        break;
                    }
                    continue;
                }
                connect(i, j, &mut self.peers);
            }
        }
    }

    /// Promote `count` peers (spread deterministically by the rng) to
    /// rendezvous, and assign every edge peer its rendezvous.
    pub fn assign_rendezvous(&mut self, count: usize, rng: &mut Pcg32) {
        assert!(count >= 1, "need at least one rendezvous");
        let n = self.peers.len();
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        self.rendezvous_peers = idx[..count.min(n)]
            .iter()
            .map(|&i| PeerId(i as u32))
            .collect();
        for &r in &self.rendezvous_peers {
            self.peers[r.0 as usize].is_rendezvous = true;
        }
        for i in 0..n {
            if !self.peers[i].is_rendezvous {
                let r =
                    self.rendezvous_peers[rng.below(self.rendezvous_peers.len() as u64) as usize];
                self.peers[i].rendezvous = Some(r);
            }
        }
    }

    pub fn rendezvous_peers(&self) -> &[PeerId] {
        &self.rendezvous_peers
    }

    /// Query IDs currently held in `p`'s duplicate-suppression window
    /// (bounded by [`SEEN_CACHE_CAP`]).
    pub fn seen_cache_len(&self, p: PeerId) -> usize {
        self.peers[p.0 as usize]
            .seen
            .as_ref()
            .map_or(0, |s| s.len())
    }

    pub(crate) fn send<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        from: PeerId,
        to: PeerId,
        msg: Message,
    ) -> bool {
        if let Some(filter) = self.send_filter.as_mut() {
            if !filter(sim.now(), from, to, &msg) {
                self.metrics.messages_filtered.incr();
                return false;
            }
        }
        // Attribute query traffic. Routed lookup messages charge the query
        // that spawned the lookup (publish-driven lookups charge nobody).
        let qid = match &msg {
            Message::Query { id, .. } | Message::QueryHit { id, .. } => Some(*id),
            Message::FindNode { lid, .. }
            | Message::FindNodeReply { lid, .. }
            | Message::FindValue { lid, .. }
            | Message::FindValueReply { lid, .. } => {
                self.lookups.get(lid).and_then(ActiveLookup::query_id)
            }
            _ => None,
        };
        let bytes = msg.wire_size();
        let src = self.peers[from.0 as usize].host;
        let dst = self.peers[to.0 as usize].host;
        match net.transfer(sim.now(), src, dst, bytes) {
            Ok(delay) => {
                if let Some(id) = qid {
                    if let Some(q) = self.queries.get_mut(&id) {
                        q.messages += 1;
                    }
                }
                self.metrics.messages_sent.incr();
                self.metrics.bytes_sent.add(bytes);
                self.sent[msg.kind()].incr();
                sim.schedule(delay, P2pEvent::Delivered { to, msg }.into());
                true
            }
            Err(_) => {
                self.metrics.send_failures.incr();
                false
            }
        }
    }

    /// Publish an advertisement: stored locally; in rendezvous mode also
    /// pushed to the peer's rendezvous cache (or its own cache if it *is*
    /// a rendezvous); in routed mode stored on the k DHT nodes closest to
    /// each of the advert's derived keys (cold peers delegate to their hot
    /// rendezvous).
    pub fn publish<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        peer: PeerId,
        advert: Advertisement,
    ) {
        self.metrics.publishes.incr();
        self.peers[peer.0 as usize].ads.push(advert.clone());
        match self.mode {
            DiscoveryMode::Flooding => {}
            DiscoveryMode::Rendezvous => {
                if self.peers[peer.0 as usize].is_rendezvous {
                    self.metrics.advert_cache_inserts.incr();
                    self.peers[peer.0 as usize].cache.push(advert);
                } else if let Some(r) = self.peers[peer.0 as usize].rendezvous {
                    self.send(sim, net, peer, r, Message::Publish { advert });
                }
            }
            DiscoveryMode::Routed => {
                self.ensure_routed(sim);
                self.routed_publish(sim, net, peer, advert);
            }
        }
    }

    /// Issue a discovery query from `origin`. `ttl` bounds flooding depth
    /// (ignored beyond the rendezvous tier in rendezvous mode).
    pub fn query<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        origin: PeerId,
        kind: QueryKind,
        ttl: u8,
    ) -> QueryId {
        if self.mode == DiscoveryMode::Routed {
            self.ensure_routed(sim);
        }
        let id = QueryId(self.next_query);
        self.next_query += 1;
        self.metrics.queries.incr();
        let event = Event::P2pQuery {
            id: id.0,
            origin: origin.0,
            ttl,
        };
        self.obs.event(sim.now().as_micros(), event);
        self.queries.insert(
            id,
            QueryStatus {
                kind: kind.clone(),
                origin,
                sent_at: sim.now(),
                hits: Vec::new(),
                messages: 0,
                peers_visited: 0,
                hops: 0,
            },
        );
        // The origin always answers from its own adverts first (free).
        self.local_hits(sim.now(), origin, id, &kind);
        // A flooded query can come back to its origin; a routed one is
        // only ever delegated to a rendezvous, so the origin needs no
        // window entry.
        if self.mode != DiscoveryMode::Routed {
            self.peers[origin.0 as usize].seen().insert(id);
        }
        if let Some(q) = self.queries.get_mut(&id) {
            q.peers_visited += 1;
        }
        match self.mode {
            DiscoveryMode::Flooding => {
                // By index: `send` needs `&mut self` and leaves the
                // neighbour list alone.
                for i in 0..self.peers[origin.0 as usize].neighbors.len() {
                    let nb = self.peers[origin.0 as usize].neighbors[i];
                    let msg = Message::Query {
                        id,
                        origin,
                        prev_hop: origin,
                        ttl,
                        kind: kind.clone(),
                    };
                    self.send(sim, net, origin, nb, msg);
                }
            }
            DiscoveryMode::Rendezvous => {
                let target = if self.peers[origin.0 as usize].is_rendezvous {
                    Some(origin)
                } else {
                    self.peers[origin.0 as usize].rendezvous
                };
                match target {
                    Some(r) if r != origin => {
                        let msg = Message::Query {
                            id,
                            origin,
                            prev_hop: origin,
                            ttl: 1,
                            kind,
                        };
                        self.send(sim, net, origin, r, msg);
                    }
                    Some(r) => {
                        // Origin is itself a rendezvous: answer from cache
                        // and fan out to the other rendezvous.
                        self.rendezvous_process(sim, net, r, id, origin, 1, kind);
                    }
                    None => {}
                }
            }
            DiscoveryMode::Routed => {
                self.routed_query(sim, net, origin, id, kind);
            }
        }
        id
    }

    /// Local adverts matching a query produce hits. At the origin these are
    /// recorded directly; elsewhere they are sent back over the network.
    fn local_hits(&mut self, now: SimTime, at: PeerId, id: QueryId, kind: &QueryKind) {
        let matching: Vec<Advertisement> = self.peers[at.0 as usize]
            .ads
            .iter()
            .filter(|ad| ad.matches(kind, now))
            .cloned()
            .collect();
        if let Some(q) = self.queries.get_mut(&id) {
            for ad in matching {
                q.hits.push((now, ad));
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // internal dispatch: all fields are live routing state
    fn rendezvous_process<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        rdv: PeerId,
        id: QueryId,
        origin: PeerId,
        ttl: u8,
        kind: QueryKind,
    ) {
        let now = sim.now();
        let cache_hits = self.peers[rdv.0 as usize]
            .cache
            .iter()
            .filter(|ad| ad.matches(&kind, now))
            .count() as u64;
        if cache_hits > 0 {
            self.metrics.advert_cache_hits.add(cache_hits);
        }
        let hits: Vec<Advertisement> = self.peers[rdv.0 as usize]
            .cache
            .iter()
            .chain(self.peers[rdv.0 as usize].ads.iter())
            .filter(|ad| ad.matches(&kind, now))
            .cloned()
            .collect();
        for advert in hits {
            if rdv == origin {
                if let Some(q) = self.queries.get_mut(&id) {
                    q.hits.push((now, advert));
                }
            } else {
                self.send(sim, net, rdv, origin, Message::QueryHit { id, advert });
            }
        }
        if ttl > 0 {
            let others: Vec<PeerId> = self
                .rendezvous_peers
                .iter()
                .copied()
                .filter(|&r| r != rdv)
                .collect();
            for r in others {
                let msg = Message::Query {
                    id,
                    origin,
                    prev_hop: rdv,
                    ttl: ttl - 1,
                    kind: kind.clone(),
                };
                self.send(sim, net, rdv, r, msg);
            }
        }
    }

    /// Send application data over a bound pipe. Returns the routing error if
    /// the pipe is unknown/unbound, `Ok(false)` if the network dropped it.
    pub fn send_pipe<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        from: PeerId,
        pipe: PipeId,
        tag: u64,
        bytes: u64,
    ) -> Result<bool, PipeError> {
        let receiver = self.pipes.route(pipe, from)?;
        Ok(self.send(
            sim,
            net,
            from,
            receiver,
            Message::PipeData { pipe, tag, bytes },
        ))
    }

    /// Send one replicated-scheduler gossip message (`OrchDelta` /
    /// `OrchSync`) peer-to-peer. Returns `false` if the network refused the
    /// transfer (offline endpoint or severed route) or the send filter
    /// discarded it — the caller's anti-entropy rounds repair the gap.
    pub fn gossip<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        from: PeerId,
        to: PeerId,
        msg: Message,
    ) -> bool {
        debug_assert!(matches!(
            msg,
            Message::OrchDelta { .. } | Message::OrchSync { .. }
        ));
        self.send(sim, net, from, to, msg)
    }

    /// Process a delivered overlay event; returns notifications for the
    /// embedding layer.
    pub fn handle<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        ev: P2pEvent,
    ) -> Surfaced {
        let (to, msg) = match ev {
            P2pEvent::Delivered { to, msg } => (to, msg),
            // A lookup timeout is a local timer, not a network message: it
            // fires even while its executor is offline (the lookup is then
            // abandoned) and is never metered as received/lost.
            P2pEvent::LookupTimeout { executor, lid } => {
                self.routed_on_timeout(sim, net, executor, lid);
                return Surfaced::default();
            }
        };
        let mut out = Surfaced::default();
        // A message arriving at an offline peer is lost.
        if !net.is_online(self.peers[to.0 as usize].host) {
            self.metrics.messages_lost.incr();
            return out;
        }
        self.metrics.messages_received.incr();
        match msg {
            Message::Query {
                id,
                origin,
                prev_hop,
                ttl,
                kind,
            } => {
                if !self.peers[to.0 as usize].seen().insert(id) {
                    self.metrics.flood_duplicates.incr();
                    return out; // duplicate
                }
                if let Some(q) = self.queries.get_mut(&id) {
                    q.peers_visited += 1;
                }
                match self.mode {
                    DiscoveryMode::Flooding => {
                        let now = sim.now();
                        for i in 0..self.peers[to.0 as usize].ads.len() {
                            let ad = &self.peers[to.0 as usize].ads[i];
                            if ad.matches(&kind, now) {
                                let advert = ad.clone();
                                self.send(sim, net, to, origin, Message::QueryHit { id, advert });
                            }
                        }
                        if ttl > 0 {
                            for i in 0..self.peers[to.0 as usize].neighbors.len() {
                                let nb = self.peers[to.0 as usize].neighbors[i];
                                if nb == prev_hop || nb == origin {
                                    continue;
                                }
                                let msg = Message::Query {
                                    id,
                                    origin,
                                    prev_hop: to,
                                    ttl: ttl - 1,
                                    kind: kind.clone(),
                                };
                                self.send(sim, net, to, nb, msg);
                            }
                        }
                    }
                    DiscoveryMode::Rendezvous => {
                        self.rendezvous_process(sim, net, to, id, origin, ttl, kind);
                    }
                    DiscoveryMode::Routed => {
                        // A cold peer delegated its query here: this hot
                        // rendezvous runs the iterative lookup on its
                        // behalf; hits flow back to `origin` as QueryHits.
                        self.routed_start_query(sim, net, to, id, origin, &kind);
                    }
                }
            }
            Message::QueryHit { id, advert } => {
                let provider = advert.peer();
                if let Some(q) = self.queries.get_mut(&id) {
                    q.hits.push((sim.now(), advert));
                }
                self.metrics.query_hits.incr();
                let event = Event::P2pQueryHit {
                    id: id.0,
                    provider: provider.0,
                };
                self.obs.event(sim.now().as_micros(), event);
                out.push(Incoming::QueryHit { id, provider });
            }
            Message::Publish { advert } => {
                if self.mode == DiscoveryMode::Routed {
                    // A cold peer delegated its publish: the rendezvous
                    // drives the store lookups; the record still names the
                    // advert's own peer as provider.
                    self.routed_publish_lookups(sim, net, to, advert);
                } else {
                    self.metrics.advert_cache_inserts.incr();
                    self.peers[to.0 as usize].cache.push(advert);
                }
            }
            Message::PipeData { pipe, tag, bytes } => {
                out.push(Incoming::PipeData {
                    to,
                    pipe,
                    tag,
                    bytes,
                });
            }
            Message::OrchDelta { seq, .. } => {
                out.push(Incoming::Orch {
                    to,
                    seq,
                    count: 1,
                    sync: false,
                });
            }
            Message::OrchSync {
                from_seq, count, ..
            } => {
                out.push(Incoming::Orch {
                    to,
                    seq: from_seq,
                    count,
                    sync: true,
                });
            }
            Message::FindNode { lid, from, key } => {
                self.routed_serve_find(sim, net, to, lid, from, key, None);
            }
            Message::FindValue {
                lid,
                from,
                key,
                kind,
            } => {
                self.routed_serve_find(sim, net, to, lid, from, key, Some(kind));
            }
            Message::FindNodeReply { lid, from, closer } => {
                self.routed_on_reply(sim, net, to, lid, from, closer, Vec::new(), &mut out);
            }
            Message::FindValueReply {
                lid,
                from,
                closer,
                providers,
            } => {
                self.routed_on_reply(sim, net, to, lid, from, closer, providers, &mut out);
            }
            Message::StoreProvider { from, key, advert } => {
                self.routed_store(net, sim.now(), to, from, key, advert);
            }
        }
        out
    }

    /// Drop expired advertisements from every peer's local set and
    /// rendezvous cache. Peers would run this periodically; experiments
    /// call it between phases. Returns how many ads were discarded.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        for p in &mut self.peers {
            let before = p.ads.len() + p.cache.len();
            p.ads.retain(|ad| !ad.is_expired(now));
            p.cache.retain(|ad| !ad.is_expired(now));
            dropped += before - p.ads.len() - p.cache.len();
            if let Some(store) = p.routed.as_mut().and_then(|r| r.store.as_mut()) {
                dropped += store.purge_expired(now);
            }
        }
        if dropped > 0 {
            self.obs.add("p2p.adverts_purged", dropped as u64);
        }
        dropped
    }

    /// Forget all seen-query state (between experiment repetitions).
    /// In-flight routed lookups are abandoned with their queries.
    pub fn reset_query_state(&mut self) {
        for seen in self.peers.iter_mut().filter_map(|p| p.seen.as_mut()) {
            seen.clear();
        }
        self.queries.clear();
        self.lookups.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advert::{AdvertBody, BlobAdvert, PeerAdvert};
    use netsim::{HostSpec, LinkClass};

    type Ev = P2pEvent;

    struct World {
        sim: Sim<Ev>,
        net: Network,
        p2p: P2p,
    }

    fn world(n: usize, mode: DiscoveryMode) -> World {
        let mut net = Network::new();
        let mut p2p = P2p::new(mode);
        for _ in 0..n {
            let mut spec = HostSpec::reference_pc();
            spec.link = LinkClass::Dsl.spec();
            let h = net.add_host(spec);
            p2p.add_peer(h);
        }
        World {
            sim: Sim::new(7),
            net,
            p2p,
        }
    }

    fn run(w: &mut World) -> Vec<Incoming> {
        let mut all = Vec::new();
        // Drain with an explicit loop to keep borrows separate.
        while let Some(ev) = w.sim.step() {
            all.extend(w.p2p.handle(&mut w.sim, &mut w.net, ev));
        }
        all
    }

    fn triana_ad(peer: PeerId, expires: SimTime) -> Advertisement {
        Advertisement {
            body: AdvertBody::Peer(PeerAdvert {
                peer,
                cpu_ghz: 2.0,
                free_ram_mib: 512,
                services: vec!["triana".into()],
            }),
            expires,
        }
    }

    #[test]
    fn flooding_finds_provider_on_ring() {
        let mut w = world(8, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(1, 1);
        w.p2p.wire_random(2, &mut rng); // pure ring
        let provider = PeerId(4);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.peers[provider.0 as usize].ads.push(ad);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            7,
        );
        run(&mut w);
        let q = &w.p2p.queries[&qid];
        assert_eq!(q.providers(), vec![provider]);
        assert!(q.first_hit_latency().unwrap().as_micros() > 0);
        // Ring of 8, ttl 7: everyone visited.
        assert_eq!(q.peers_visited, 8);
    }

    #[test]
    fn ttl_limits_flood_reach() {
        let mut w = world(16, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(1, 1);
        w.p2p.wire_random(2, &mut rng); // ring
        let far = PeerId(8); // 8 hops away on a 16-ring
        let ad = triana_ad(far, SimTime::from_secs(3600));
        w.p2p.peers[far.0 as usize].ads.push(ad);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            3,
        );
        run(&mut w);
        let q = &w.p2p.queries[&qid];
        assert!(q.hits.is_empty(), "ttl 3 cannot reach 8 hops");
        // ttl 3 on a ring: origin + 4 peers each side = 9 visited.
        assert_eq!(q.peers_visited, 9);
    }

    #[test]
    fn duplicate_suppression_bounds_messages() {
        let mut w = world(10, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(2, 1);
        w.p2p.wire_random(4, &mut rng);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("none".into()),
            8,
        );
        run(&mut w);
        let q = &w.p2p.queries[&qid];
        // Each peer forwards a given query at most once to each neighbour:
        // messages bounded by sum of degrees (~edges * 2).
        let edge_bound: u64 = (0..10)
            .map(|i| w.p2p.neighbors(PeerId(i)).len() as u64)
            .sum();
        assert!(q.messages <= edge_bound, "{} > {}", q.messages, edge_bound);
        assert_eq!(q.peers_visited, 10);
    }

    #[test]
    fn rendezvous_uses_far_fewer_messages_than_flooding() {
        let n = 40;
        let mk = |mode| {
            let mut w = world(n, mode);
            let mut rng = Pcg32::new(3, 1);
            w.p2p.wire_random(4, &mut rng);
            if mode == DiscoveryMode::Rendezvous {
                let mut r2 = Pcg32::new(4, 2);
                w.p2p.assign_rendezvous(3, &mut r2);
            }
            let provider = PeerId(17);
            let ad = triana_ad(provider, SimTime::from_secs(3600));
            w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
            // Let the publish propagate before querying.
            while let Some(ev) = w.sim.step() {
                w.p2p.handle(&mut w.sim, &mut w.net, ev);
            }
            let qid = w.p2p.query(
                &mut w.sim,
                &mut w.net,
                PeerId(0),
                QueryKind::ByService("triana".into()),
                8,
            );
            run(&mut w);
            let q = &w.p2p.queries[&qid];
            (q.messages, q.providers())
        };
        let (flood_msgs, flood_prov) = mk(DiscoveryMode::Flooding);
        let (rdv_msgs, rdv_prov) = mk(DiscoveryMode::Rendezvous);
        assert_eq!(flood_prov, vec![PeerId(17)]);
        assert_eq!(rdv_prov, vec![PeerId(17)]);
        assert!(
            rdv_msgs * 4 < flood_msgs,
            "rendezvous {rdv_msgs} vs flooding {flood_msgs}"
        );
    }

    #[test]
    fn origin_answers_its_own_query_locally() {
        let mut w = world(4, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(5, 1);
        w.p2p.wire_random(2, &mut rng);
        let me = PeerId(2);
        let ad = triana_ad(me, SimTime::from_secs(10));
        w.p2p.peers[me.0 as usize].ads.push(ad);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            me,
            QueryKind::ByService("triana".into()),
            0,
        );
        // No network round-trip needed for the local hit.
        let q = &w.p2p.queries[&qid];
        assert_eq!(q.hits.len(), 1);
        assert_eq!(q.first_hit_latency().unwrap(), netsim::Duration::ZERO);
    }

    #[test]
    fn offline_peer_drops_inbound_query() {
        let mut w = world(3, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(6, 1);
        w.p2p.wire_random(2, &mut rng);
        let provider = PeerId(1);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.peers[provider.0 as usize].ads.push(ad);
        // Take provider offline *after* the query is sent but before
        // delivery: the message is lost at arrival.
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            2,
        );
        let host = w.p2p.host_of(provider);
        w.net.set_online(host, false);
        run(&mut w);
        let q = &w.p2p.queries[&qid];
        assert!(q.providers().is_empty());
    }

    #[test]
    fn pipe_data_flows_end_to_end() {
        let mut w = world(2, DiscoveryMode::Flooding);
        let pipe = w.p2p.pipes.advertise("conn.0", PeerId(1)).unwrap();
        w.p2p.pipes.bind(pipe, PeerId(0)).unwrap();
        let sent = w
            .p2p
            .send_pipe(&mut w.sim, &mut w.net, PeerId(0), pipe, 99, 10_000)
            .unwrap();
        assert!(sent);
        let incoming = run(&mut w);
        assert_eq!(
            incoming,
            vec![Incoming::PipeData {
                to: PeerId(1),
                pipe,
                tag: 99,
                bytes: 10_000
            }]
        );
        // Larger payloads take longer on consumer links.
        let t_small = w.sim.now();
        w.p2p
            .send_pipe(&mut w.sim, &mut w.net, PeerId(0), pipe, 100, 10_000_000)
            .unwrap();
        run(&mut w);
        assert!(w.sim.now().since(t_small).as_secs_f64() > 1.0);
    }

    #[test]
    fn unbound_pipe_send_is_an_error() {
        let mut w = world(2, DiscoveryMode::Flooding);
        let pipe = w.p2p.pipes.advertise("conn.1", PeerId(1)).unwrap();
        assert!(w
            .p2p
            .send_pipe(&mut w.sim, &mut w.net, PeerId(0), pipe, 0, 10)
            .is_err());
    }

    #[test]
    fn expired_ads_are_not_discovered() {
        let mut w = world(4, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(8, 1);
        w.p2p.wire_random(2, &mut rng);
        let provider = PeerId(2);
        let ad = triana_ad(provider, SimTime(1)); // expires almost immediately
        w.p2p.peers[provider.0 as usize].ads.push(ad);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            4,
        );
        run(&mut w);
        assert!(w.p2p.queries[&qid].hits.is_empty());
    }

    #[test]
    fn wire_random_produces_connected_symmetric_graph() {
        let mut w = world(30, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(9, 1);
        w.p2p.wire_random(4, &mut rng);
        // Symmetry
        for p in 0..30u32 {
            for &nb in w.p2p.neighbors(PeerId(p)) {
                assert!(w.p2p.neighbors(nb).contains(&PeerId(p)));
            }
            assert!(w.p2p.neighbors(PeerId(p)).len() >= 4);
        }
        // Connectivity via BFS
        let mut seen = [false; 30];
        let mut stack = Vec::from([PeerId(0)]);
        seen[0] = true;
        while let Some(p) = stack.pop() {
            for &nb in w.p2p.neighbors(p) {
                if !seen[nb.0 as usize] {
                    seen[nb.0 as usize] = true;
                    stack.push(nb);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn purge_expired_empties_caches() {
        let mut w = world(4, DiscoveryMode::Rendezvous);
        let mut rng = Pcg32::new(12, 1);
        w.p2p.wire_random(2, &mut rng);
        w.p2p.assign_rendezvous(1, &mut rng);
        let short = triana_ad(PeerId(1), SimTime::from_secs(10));
        let long = triana_ad(PeerId(2), SimTime::from_secs(10_000));
        w.p2p.publish(&mut w.sim, &mut w.net, PeerId(1), short);
        w.p2p.publish(&mut w.sim, &mut w.net, PeerId(2), long);
        run(&mut w);
        // After the short ad expires, purge drops it everywhere (local set
        // + rendezvous cache) but keeps the live one.
        let dropped = w.p2p.purge_expired(SimTime::from_secs(100));
        assert!(dropped >= 1, "dropped {dropped}");
        let dropped_again = w.p2p.purge_expired(SimTime::from_secs(100));
        assert_eq!(dropped_again, 0, "purge is idempotent");
        // The live ad is still discoverable.
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            4,
        );
        run(&mut w);
        assert_eq!(w.p2p.queries[&qid].providers(), vec![PeerId(2)]);
    }

    #[test]
    fn purge_expired_ttl_boundary_matches_obs_counter() {
        let mut w = world(3, DiscoveryMode::Flooding);
        let observer = Obs::enabled();
        w.p2p.set_obs(observer.clone());
        let ttl_end = SimTime::from_secs(100);
        let short = triana_ad(PeerId(1), ttl_end);
        let long = triana_ad(PeerId(2), SimTime::from_secs(200));
        w.p2p.publish(&mut w.sim, &mut w.net, PeerId(1), short);
        w.p2p.publish(&mut w.sim, &mut w.net, PeerId(2), long);
        // One tick before TTL the advert is still alive…
        assert_eq!(w.p2p.purge_expired(SimTime(ttl_end.0 - 1)), 0);
        let r = observer.registry().unwrap();
        assert_eq!(r.counter_value("p2p.adverts_purged"), 0);
        // …at exactly TTL it is expired (`now >= expires`) and purged.
        assert_eq!(w.p2p.purge_expired(ttl_end), 1);
        assert_eq!(r.counter_value("p2p.adverts_purged"), 1);
        // One tick past TTL nothing is left of it; the counter stays in
        // step with the cumulative purge count.
        assert_eq!(w.p2p.purge_expired(SimTime(ttl_end.0 + 1)), 0);
        assert_eq!(r.counter_value("p2p.adverts_purged"), 1);
        assert_eq!(w.p2p.purge_expired(SimTime::from_secs(200)), 1);
        assert_eq!(r.counter_value("p2p.adverts_purged"), 2);
    }

    #[test]
    fn blob_providers_discovered_by_hash() {
        let mut w = world(6, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(21, 1);
        w.p2p.wire_random(3, &mut rng);
        let provider = PeerId(4);
        let ad = Advertisement {
            body: AdvertBody::Blob(BlobAdvert {
                blob: 0xFEED,
                size_bytes: 9_000,
                chunks: 3,
                provider,
            }),
            expires: SimTime::from_secs(3_600),
        };
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByBlob { hash: 0xFEED },
            6,
        );
        run(&mut w);
        assert_eq!(w.p2p.queries[&qid].providers(), vec![provider]);
        // A different hash finds nothing.
        let miss = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByBlob { hash: 0xBEEF },
            6,
        );
        run(&mut w);
        assert!(w.p2p.queries[&miss].hits.is_empty());
    }

    #[test]
    fn obs_counts_discovery_traffic() {
        let mut w = world(8, DiscoveryMode::Rendezvous);
        let observer = Obs::enabled();
        w.p2p.set_obs(observer.clone());
        let mut rng = Pcg32::new(15, 1);
        w.p2p.wire_random(2, &mut rng);
        w.p2p.assign_rendezvous(2, &mut rng);
        let provider = PeerId(5);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        run(&mut w);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            8,
        );
        run(&mut w);
        assert_eq!(w.p2p.queries[&qid].providers(), vec![provider]);
        let r = observer.registry().unwrap();
        assert_eq!(r.counter_value("p2p.publishes"), 1);
        assert_eq!(r.counter_value("p2p.queries"), 1);
        assert!(r.counter_value("p2p.messages_sent") > 0);
        assert!(r.counter_value("p2p.messages_received") > 0);
        assert!(r.counter_value("p2p.advert_cache_inserts") >= 1);
        assert!(r.counter_value("p2p.advert_cache_hits") >= 1);
        assert!(r.counter_value("p2p.query_hits") >= 1);
        // Sent messages either arrive or are lost at an offline endpoint.
        assert_eq!(
            r.counter_value("p2p.messages_sent"),
            r.counter_value("p2p.messages_received") + r.counter_value("p2p.messages_lost")
        );
    }

    #[test]
    fn reset_query_state_allows_requery() {
        let mut w = world(6, DiscoveryMode::Flooding);
        let mut rng = Pcg32::new(10, 1);
        w.p2p.wire_random(2, &mut rng);
        let provider = PeerId(3);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.peers[provider.0 as usize].ads.push(ad);
        for _ in 0..2 {
            let qid = w.p2p.query(
                &mut w.sim,
                &mut w.net,
                PeerId(0),
                QueryKind::ByService("triana".into()),
                5,
            );
            run(&mut w);
            assert_eq!(w.p2p.queries[&qid].providers(), vec![provider]);
            w.p2p.reset_query_state();
        }
    }
    #[test]
    fn send_to_offline_peer_meters_send_failures() {
        let observer = obs::Obs::enabled();
        let mut w = world(3, DiscoveryMode::Flooding);
        w.p2p.set_obs(observer.clone());
        let mut rng = Pcg32::new(3, 1);
        w.p2p.wire_random(2, &mut rng); // ring of 3: everyone adjacent
                                        // Peer 1 goes offline before the flood reaches it.
        w.net.set_online(w.p2p.host_of(PeerId(1)), false);
        w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            3,
        );
        run(&mut w);
        let r = observer.registry().unwrap();
        assert!(
            r.counter_value("p2p.send_failures") >= 1,
            "flooding past an offline peer must fail at least one send"
        );
    }

    #[test]
    fn send_filter_discards_before_network_and_preserves_identity() {
        let observer = Obs::enabled();
        let mut w = world(4, DiscoveryMode::Flooding);
        w.p2p.set_obs(observer.clone());
        let mut rng = Pcg32::new(7, 1);
        w.p2p.wire_random(2, &mut rng);
        w.p2p.set_send_filter(Box::new(|_now, _from, _to, msg| {
            !matches!(msg, Message::Query { .. })
        }));
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            4,
        );
        run(&mut w);
        assert!(w.p2p.queries[&qid].hits.is_empty());
        let r = observer.registry().unwrap();
        assert!(r.counter_value("p2p.messages_filtered") > 0);
        // Filtered messages never count as sent, so the conservation
        // identity sent = received + lost still holds exactly.
        assert_eq!(
            r.counter_value("p2p.messages_sent"),
            r.counter_value("p2p.messages_received") + r.counter_value("p2p.messages_lost")
        );
        w.p2p.clear_send_filter();
        let qid2 = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            4,
        );
        run(&mut w);
        // With the filter removed the query floods again (visits peers).
        assert!(w.p2p.queries[&qid2].peers_visited > 1);
    }

    #[test]
    fn seen_cache_is_bounded_fifo() {
        let mut c = SeenCache::new(4);
        for i in 0..10u64 {
            assert!(c.insert(QueryId(i)), "fresh id accepted");
        }
        assert_eq!(c.len(), 4, "window bounded at cap");
        // Recent ids are still suppressed…
        assert!(!c.insert(QueryId(9)));
        // …but an id pushed out of the window has been forgotten.
        assert!(c.insert(QueryId(0)));
    }

    #[test]
    fn clique_flood_counts_suppressed_duplicates() {
        let observer = Obs::enabled();
        let n = 8;
        let mut w = world(n, DiscoveryMode::Flooding);
        w.p2p.set_obs(observer.clone());
        let mut rng = Pcg32::new(11, 1);
        w.p2p.wire_random(n - 1, &mut rng); // complete graph
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("none".into()),
            4,
        );
        run(&mut w);
        let r = observer.registry().unwrap();
        // On a clique every peer hears the query from every neighbour:
        // all but the first arrival are suppressed duplicates.
        assert!(
            r.counter_value("p2p.flood_duplicates") > 0,
            "clique fan-out must hit the duplicate cache"
        );
        // Suppression bounds attributed traffic by the sum of degrees.
        let edge_bound = (n * (n - 1)) as u64;
        let q = &w.p2p.queries[&qid];
        assert!(q.messages <= edge_bound, "{} > {edge_bound}", q.messages);
        // Every received message was either fresh or metered as duplicate.
        assert_eq!(
            r.counter_value("p2p.messages_sent"),
            r.counter_value("p2p.messages_received") + r.counter_value("p2p.messages_lost")
        );
        for i in 0..n {
            assert!(w.p2p.seen_cache_len(PeerId(i as u32)) <= SEEN_CACHE_CAP);
        }
    }

    #[test]
    fn routed_finds_provider_end_to_end() {
        let mut w = world(32, DiscoveryMode::Routed);
        let provider = PeerId(17);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        run(&mut w);
        assert!(
            w.p2p.routed_role(provider).is_some(),
            "lazy bootstrap ran on first publish"
        );
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            0, // ttl is ignored in routed mode
        );
        run(&mut w);
        let q = &w.p2p.queries[&qid];
        assert_eq!(q.providers(), vec![provider]);
        assert_eq!(w.p2p.active_lookups(), 0, "all lookups resolved");
    }

    #[test]
    fn routed_hops_stay_within_log_budget_and_beat_flooding() {
        let n = 64;
        let mk = |mode| {
            let mut w = world(n, mode);
            let mut rng = Pcg32::new(13, 1);
            w.p2p.wire_random(4, &mut rng);
            let provider = PeerId(40);
            let ad = triana_ad(provider, SimTime::from_secs(3600));
            w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
            while let Some(ev) = w.sim.step() {
                w.p2p.handle(&mut w.sim, &mut w.net, ev);
            }
            let qid = w.p2p.query(
                &mut w.sim,
                &mut w.net,
                PeerId(3),
                QueryKind::ByService("triana".into()),
                8,
            );
            run(&mut w);
            let q = &w.p2p.queries[&qid];
            (q.messages, q.hops, q.providers())
        };
        let (flood_msgs, _, flood_prov) = mk(DiscoveryMode::Flooding);
        let (routed_msgs, hops, routed_prov) = mk(DiscoveryMode::Routed);
        assert_eq!(flood_prov, vec![PeerId(40)]);
        assert_eq!(routed_prov, vec![PeerId(40)]);
        let budget = (n as f64).log2().ceil() as u64 + 2;
        assert!(hops <= budget, "hops {hops} > budget {budget}");
        assert!(
            routed_msgs * 4 < flood_msgs,
            "routed {routed_msgs} vs flooding {flood_msgs}"
        );
    }

    #[test]
    fn cold_peers_delegate_through_their_rendezvous() {
        let observer = Obs::enabled();
        let n = 24;
        let mut w = world(n, DiscoveryMode::Routed);
        w.p2p.set_obs(observer.clone());
        // Peer 5 and 6 are too flaky to hold routing state.
        let mut profiles = vec![(0.9, 1.0); n];
        profiles[5] = (0.2, 1.0);
        profiles[6] = (0.1, 1.0);
        let mut rng = Pcg32::new(14, 1);
        w.p2p.enable_routed(&profiles, &mut rng);
        assert_eq!(w.p2p.routed_role(PeerId(5)), Some(::overlay::Role::Cold));
        assert!(w.p2p.is_rendezvous(w.p2p.rendezvous_peers()[0]));
        // Cold peer publishes and queries entirely through its rendezvous.
        let ad = triana_ad(PeerId(5), SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, PeerId(5), ad);
        run(&mut w);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(6),
            QueryKind::ByService("triana".into()),
            0,
        );
        run(&mut w);
        assert_eq!(w.p2p.queries[&qid].providers(), vec![PeerId(5)]);
        let r = observer.registry().unwrap();
        assert!(r.counter_value("p2p.cold_delegated_publishes") >= 1);
        assert!(r.counter_value("p2p.cold_delegated_queries") >= 1);
        assert_eq!(w.p2p.active_lookups(), 0);
    }

    #[test]
    fn routed_conservation_holds_under_churn() {
        let observer = Obs::enabled();
        let n = 40;
        let mut w = world(n, DiscoveryMode::Routed);
        w.p2p.set_obs(observer.clone());
        let provider = PeerId(9);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        run(&mut w);
        // A third of the peers vanish between publish and query.
        for i in (0..n).step_by(3) {
            if i != 0 {
                let h = w.p2p.host_of(PeerId(i as u32));
                w.net.set_online(h, false);
            }
        }
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            0,
        );
        run(&mut w);
        let r = observer.registry().unwrap();
        assert_eq!(
            r.counter_value("p2p.messages_sent"),
            r.counter_value("p2p.messages_received") + r.counter_value("p2p.messages_lost"),
            "sent = received + lost even with offline DHT nodes"
        );
        assert_eq!(w.p2p.active_lookups(), 0, "timeouts resolved every lookup");
        let _ = qid; // the query may or may not find the provider under churn
    }

    /// A routed world of `n` reliable peers (every one a DHT member).
    fn routed_world(n: usize, observer: &Obs) -> World {
        let mut w = world(n, DiscoveryMode::Routed);
        w.p2p.set_obs(observer.clone());
        let mut rng = Pcg32::new(31, 1);
        w.p2p.enable_routed(&vec![(0.9, 1.0); n], &mut rng);
        w
    }

    #[test]
    fn a_request_lost_after_its_send_fails_exactly_at_its_timeout() {
        let observer = Obs::enabled();
        let mut w = routed_world(48, &observer);
        let origin = PeerId(0);
        // Note the first FIND_VALUE's target, then take it offline once
        // the request is on the wire: the request is lost at arrival and
        // only its timeout can fail it.
        let first = std::rc::Rc::new(std::cell::Cell::new(None));
        let seen = first.clone();
        w.p2p.set_send_filter(Box::new(move |_now, _from, to, msg| {
            if matches!(msg, Message::FindValue { .. }) && seen.get().is_none() {
                seen.set(Some(to));
            }
            true
        }));
        let sent = w.sim.now();
        // Nobody offers this service, so the lookup cannot end early on a
        // found record: it runs until every request is answered or failed.
        let kind = QueryKind::ByService("nobody-offers-this".into());
        w.p2p.query(&mut w.sim, &mut w.net, origin, kind, 0);
        w.p2p.clear_send_filter();
        let lost = first.get().expect("the lookup sent a request");
        w.net.set_online(w.p2p.host_of(lost), false);
        let r = observer.registry().unwrap();
        let mut failed_at = None;
        while let Some(ev) = w.sim.step() {
            w.p2p.handle(&mut w.sim, &mut w.net, ev);
            if failed_at.is_none() && r.counter_value("p2p.lookup_timeouts") > 0 {
                failed_at = Some(w.sim.now());
            }
        }
        let timeout = w.p2p.routed_cfg.request_timeout;
        assert_eq!(
            failed_at,
            Some(sent + timeout),
            "failed exactly one timeout after the send"
        );
        assert_eq!(r.counter_value("p2p.lookup_timeouts"), 1);
        assert_eq!(r.counter_value("p2p.lookups_converged"), 1);
        assert_eq!(r.counter_value("p2p.lookups_abandoned"), 0);
        assert_eq!(w.p2p.active_lookups(), 0);
    }

    #[test]
    fn an_executor_that_goes_offline_abandons_its_lookup() {
        let observer = Obs::enabled();
        let mut w = routed_world(48, &observer);
        let origin = PeerId(0);
        let kind = QueryKind::ByService("nobody-offers-this".into());
        w.p2p.query(&mut w.sim, &mut w.net, origin, kind, 0);
        assert_eq!(w.p2p.active_lookups(), 1);
        // Its requests are out; every reply now arrives at an offline peer.
        w.net.set_online(w.p2p.host_of(origin), false);
        run(&mut w);
        let r = observer.registry().unwrap();
        assert_eq!(r.counter_value("p2p.lookups_abandoned"), 1);
        assert_eq!(r.counter_value("p2p.lookups_converged"), 0);
        assert_eq!(w.p2p.active_lookups(), 0);
    }

    #[test]
    fn each_lookup_keeps_one_timer_pending() {
        let observer = Obs::enabled();
        let n = 64;
        let mut w = routed_world(n, &observer);
        let provider = PeerId(40);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        run(&mut w);
        let r = observer.registry().unwrap();
        let before = r.counter_value("p2p.lookups_started");
        for origin in 0..24 {
            let kind = QueryKind::ByService("triana".into());
            w.p2p.query(&mut w.sim, &mut w.net, PeerId(origin), kind, 0);
        }
        let in_flight = |r: &obs::Registry| {
            r.counter_value("p2p.messages_sent")
                - r.counter_value("p2p.messages_received")
                - r.counter_value("p2p.messages_lost")
        };
        let lookups = r.counter_value("p2p.lookups_started") - before;
        assert!(lookups > 0, "some origins hold no record and ask the DHT");
        // Right after issue every live lookup has exactly one timer armed;
        // everything else pending is a message on the wire.
        assert_eq!(w.p2p.active_lookups() as u64, lookups);
        assert_eq!(w.sim.pending() as u64, in_flight(r) + lookups);
        // A lookup that resolves leaves its timer to fire as a no-op, so
        // the bound is one timer per lookup started, never one per request.
        while let Some(ev) = w.sim.step() {
            w.p2p.handle(&mut w.sim, &mut w.net, ev);
            assert!(w.sim.pending() as u64 <= in_flight(r) + lookups);
        }
        assert_eq!(w.p2p.active_lookups(), 0);
    }

    #[test]
    fn per_peer_state_stays_small() {
        // A flood window and a provider store are boxed on first use, the
        // node ID is derived; 10⁵ peers are 17.6 MB of these.
        assert!(std::mem::size_of::<PeerState>() <= 176);
        assert!(std::mem::size_of::<RoutedNode>() <= 80);
    }

    #[test]
    fn poisoned_routing_table_lookup_still_converges() {
        let observer = Obs::enabled();
        let mut w = world(48, DiscoveryMode::Routed);
        w.p2p.set_obs(observer.clone());
        let provider = PeerId(30);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        run(&mut w);
        let mut rng = Pcg32::new(99, 7);
        let poisoned = w.p2p.poison_routing_table(PeerId(0), &mut rng);
        assert!(poisoned > 0, "poison must corrupt some contacts");
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            0,
        );
        run(&mut w);
        // Fabricated contacts either answer (and are re-learned under
        // their real IDs) or time out; the lookup still terminates and
        // the provider is still found.
        assert_eq!(w.p2p.queries[&qid].providers(), vec![provider]);
        assert_eq!(w.p2p.active_lookups(), 0);
    }

    #[test]
    fn a_forged_reply_teaches_at_most_k_contacts() {
        let observer = Obs::enabled();
        let mut w = world(48, DiscoveryMode::Routed);
        w.p2p.set_obs(observer.clone());
        let origin = PeerId(0);
        let kind = QueryKind::ByService("nobody-offers-this".into());
        let qid = w.p2p.query(&mut w.sim, &mut w.net, origin, kind, 0);
        let lid = LookupId(w.p2p.next_lookup - 1);
        let before = w.p2p.lookups[&lid].lookup.known();
        let k = w.p2p.routed_cfg.k;
        let forged = 5_000;
        let reply = Message::FindValueReply {
            lid,
            from: PeerId(9),
            closer: (0..forged).map(|i| (!i, PeerId(i as u32 % 48))).collect(),
            providers: Vec::new(),
        };
        let ev = P2pEvent::Delivered {
            to: origin,
            msg: reply,
        };
        w.p2p.handle(&mut w.sim, &mut w.net, ev);
        assert!(w.p2p.lookups[&lid].lookup.known() <= before + k);
        let refused = observer.registry().unwrap();
        assert_eq!(
            refused.counter_value("p2p.reply_contacts_refused"),
            forged - k as u64
        );
        run(&mut w);
        assert_eq!(w.p2p.active_lookups(), 0, "the lookup still resolves");
        assert!(w.p2p.queries[&qid].hits.is_empty());
    }

    #[test]
    fn a_forged_reply_adds_at_most_k_hits() {
        let observer = Obs::enabled();
        let mut w = world(48, DiscoveryMode::Routed);
        w.p2p.set_obs(observer.clone());
        let origin = PeerId(0);
        let kind = QueryKind::ByService("triana".into());
        let qid = w.p2p.query(&mut w.sim, &mut w.net, origin, kind, 0);
        let lid = LookupId(w.p2p.next_lookup - 1);
        let k = w.p2p.routed_cfg.k;
        let forged = 5_000;
        let expires = SimTime::from_secs(3600);
        let reply = Message::FindValueReply {
            lid,
            from: PeerId(9),
            closer: Vec::new(),
            providers: (0..forged)
                .map(|i| triana_ad(PeerId(i as u32 % 48), expires))
                .collect(),
        };
        let ev = P2pEvent::Delivered {
            to: origin,
            msg: reply,
        };
        w.p2p.handle(&mut w.sim, &mut w.net, ev);
        assert_eq!(w.p2p.queries[&qid].hits.len(), k);
        let refused = observer.registry().unwrap();
        assert_eq!(
            refused.counter_value("p2p.reply_providers_refused"),
            forged - k as u64
        );
        run(&mut w);
        assert_eq!(w.p2p.active_lookups(), 0, "the lookup still resolves");
        assert_eq!(w.p2p.queries[&qid].hits.len(), k);
    }

    #[test]
    fn a_key_answers_with_at_most_k_records() {
        for providers in [5, 12] {
            let observer = Obs::enabled();
            let n = 48;
            let mut w = world(n, DiscoveryMode::Routed);
            w.p2p.set_obs(observer.clone());
            for p in 1..=providers {
                let ad = triana_ad(PeerId(p), SimTime::from_secs(3600));
                w.p2p.publish(&mut w.sim, &mut w.net, PeerId(p), ad);
            }
            run(&mut w);
            let want = providers.min(w.p2p.routed_cfg.k as u32) as usize;
            // Origins that provide nothing, so every hit came from a DHT
            // store: the origin's own or the first remote one to answer.
            for origin in providers + 1..n as u32 {
                let kind = QueryKind::ByService("triana".into());
                let qid = w.p2p.query(&mut w.sim, &mut w.net, PeerId(origin), kind, 0);
                run(&mut w);
                let q = &w.p2p.queries[&qid];
                assert_eq!(q.hits.len(), want, "{providers} providers, origin {origin}");
                assert_eq!(q.providers().len(), want);
            }
            // Both answer paths ran: the executor's own store and a
            // remote FIND_VALUE reply.
            let r = observer.registry().unwrap();
            assert!(r.counter_value("p2p.lookup_local_hits") > 0);
            assert!(r.counter_value("p2p.provider_record_hits") > 0);
            assert_eq!(r.counter_value("p2p.reply_providers_refused"), 0);
        }
    }

    #[test]
    fn routed_republish_restores_records_after_churn() {
        let mut w = world(32, DiscoveryMode::Routed);
        let provider = PeerId(12);
        let ad = triana_ad(provider, SimTime::from_secs(3600));
        w.p2p.publish(&mut w.sim, &mut w.net, provider, ad);
        run(&mut w);
        // Every record holder for the service key goes away.
        let holders: Vec<PeerId> = w
            .p2p
            .peer_ids()
            .filter(|&p| w.p2p.routed_store_len(p) > 0)
            .collect();
        assert!(!holders.is_empty());
        for &h in &holders {
            let host = w.p2p.host_of(h);
            w.net.set_online(host, false);
        }
        w.p2p.routed_republish(&mut w.sim, &mut w.net, provider);
        run(&mut w);
        let qid = w.p2p.query(
            &mut w.sim,
            &mut w.net,
            PeerId(0),
            QueryKind::ByService("triana".into()),
            0,
        );
        run(&mut w);
        assert_eq!(
            w.p2p.queries[&qid].providers(),
            vec![provider],
            "republish re-homed the records onto live nodes"
        );
    }
}
