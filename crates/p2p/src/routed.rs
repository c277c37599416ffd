//! `DiscoveryMode::Routed` — Kademlia-routed discovery over the
//! `triana-overlay` structures, with a super-peer tier.
//!
//! The flooding mode the paper leans on "severely restricts the
//! scalability" of discovery (§3.7); this module replaces it with a
//! structured overlay while keeping the advert/query surface identical,
//! so every experiment runs unchanged on either mode:
//!
//! * Every peer derives a 64-bit node ID from its peer index; adverts
//!   derive provider-record **keys** from what they offer (service name,
//!   pipe name, module name, blob hash, plus a well-known capability
//!   index key for `ByCapability` scans).
//! * **Publish** stores a provider record on the k DHT nodes closest to
//!   each derived key, found by an iterative `FIND_NODE` walk.
//! * **Query** runs an iterative `FIND_VALUE` toward the key and
//!   terminates as soon as a node returns matching provider records —
//!   O(log n) hops instead of an O(n)-message flood. Like a `closer` list,
//!   an answer carries at most k records (the first live matches, in
//!   store order), and an executor refuses what a reply holds beyond k.
//! * The **super-peer tier** (see `overlay::super_peer`) classifies peers
//!   hot/warm/cold from their trust profiles. Hot and warm peers are DHT
//!   nodes; cold peers hold no routing state and delegate every publish
//!   and query to their assigned hot rendezvous in one hop.
//!
//! Liveness pings are modelled synchronously: when a bucket is full the
//! table owner "pings" the least-recently-seen contact by consulting the
//! network's online state (metered as `p2p.overlay_pings`, no wire
//! message — the real protocol's ping RTT is negligible next to lookup
//! traffic). Every request fails `request_timeout` after it was sent
//! unless answered first. The deadline lives in the lookup's own
//! shortlist entry; the network layer keeps at most one local
//! [`P2pEvent::LookupTimeout`] timer per live lookup, armed at the
//! earliest deadline in flight and re-armed when it fires. The timer
//! fires unconditionally, so every lookup terminates even if all its
//! targets (or its executor) die; it is never metered in the
//! sent/received/lost conservation identity.
//!
//! Per-peer state follows the role: a cold peer's routing table stays
//! empty, and a DHT node's provider store is created by the first record
//! stored on it (most nodes are never among the k closest to any key).

use crate::advert::{AdvertBody, Advertisement};
use crate::message::{LookupId, Message, P2pEvent, QueryId, QueryKind};
use crate::overlay::{DiscoveryMode, P2p, PeerId};
use ::overlay as kad;
use kad::{Contact, Insert, NodeId, Role};
use netsim::{Duration, Network, Pcg32, Sim, SimTime};

/// Tuning for routed mode. Read at bootstrap and per lookup.
#[derive(Clone, Copy, Debug)]
pub struct RoutedConfig {
    /// Bucket size, lookup result width, store replication factor, and
    /// the most provider records one FIND_VALUE answer carries.
    pub k: usize,
    /// Lookup parallelism (α).
    pub alpha: usize,
    /// Per-request timeout before a queried contact is marked failed.
    pub request_timeout: Duration,
    /// Provider records a DHT node keeps per key.
    pub store_cap_per_key: usize,
    /// Bootstrap: ring neighbours (each side, in node-ID order) seeded
    /// into every table — guarantees the ID space is connected.
    pub bootstrap_adjacency: usize,
    /// Bootstrap: random extra contacts per table — gives lookups their
    /// long-range shortcuts.
    pub bootstrap_sample: usize,
    /// Super-peer classification thresholds.
    pub tier: kad::TierConfig,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        RoutedConfig {
            k: 8,
            alpha: 3,
            request_timeout: Duration::from_secs(3),
            store_cap_per_key: 64,
            bootstrap_adjacency: 8,
            bootstrap_sample: 32,
            tier: kad::TierConfig::default(),
        }
    }
}

/// Per-peer structured-overlay state (absent until bootstrap). The node
/// ID is not kept: it is [`NodeId::from_peer_index`] of the peer, and the
/// table holds it as its own ID.
pub struct RoutedNode {
    pub role: Role,
    /// K-bucket routing table (empty and unused for cold peers).
    pub table: kad::RoutingTable,
    /// Provider records this node holds for keys it is close to; `None`
    /// until the first record is stored here.
    pub store: Option<Box<kad::ProviderStore<Advertisement>>>,
}

/// Why a lookup is running; decides what happens when it resolves.
pub(crate) enum Purpose {
    /// A discovery query: hits stream back to `origin` as they surface.
    Query {
        id: QueryId,
        origin: PeerId,
        kind: QueryKind,
    },
    /// A publish: on completion, store the advert on the k closest nodes.
    Publish { advert: Advertisement },
}

/// One in-progress iterative lookup, owned by `executor`.
pub(crate) struct ActiveLookup {
    pub(crate) lookup: kad::Lookup,
    pub(crate) executor: PeerId,
    pub(crate) key: u64,
    pub(crate) purpose: Purpose,
    /// Whether this lookup's one `LookupTimeout` is pending in the
    /// simulator. Set when armed, cleared when it fires.
    pub(crate) timer_armed: bool,
}

impl ActiveLookup {
    /// The query this lookup's wire traffic is attributed to, if any.
    pub(crate) fn query_id(&self) -> Option<QueryId> {
        match &self.purpose {
            Purpose::Query { id, .. } => Some(*id),
            Purpose::Publish { .. } => None,
        }
    }
}

/// The DHT key a query kind routes toward.
pub(crate) fn key_for_kind(kind: &QueryKind) -> u64 {
    match kind {
        QueryKind::ByService(s) => NodeId::from_name("svc", s).0,
        QueryKind::ByPipeName(s) => NodeId::from_name("pipe", s).0,
        QueryKind::ByModule { name, .. } => NodeId::from_name("mod", name).0,
        QueryKind::ByBlob { hash } => NodeId::from_u64("blob", *hash).0,
        // Capability scans have no content key; all peer adverts are also
        // indexed under one well-known key so the scan is a single lookup.
        QueryKind::ByCapability { .. } => NodeId::from_name("cap", "index").0,
    }
}

/// Every DHT key an advert is stored under.
pub(crate) fn keys_for_advert(ad: &Advertisement) -> Vec<u64> {
    match &ad.body {
        AdvertBody::Peer(p) => {
            let mut keys: Vec<u64> = p
                .services
                .iter()
                .map(|s| NodeId::from_name("svc", s).0)
                .collect();
            keys.push(NodeId::from_name("cap", "index").0);
            keys
        }
        AdvertBody::Pipe(p) => vec![NodeId::from_name("pipe", &p.name).0],
        AdvertBody::Module(m) => vec![NodeId::from_name("mod", &m.name).0],
        AdvertBody::Blob(b) => vec![NodeId::from_u64("blob", b.blob).0],
    }
}

/// What a store answers a FIND_VALUE for `kind` with: the first `k` live
/// records under `key` that match it, in store order, appended to `out`.
/// A remote server and the executor's own store both answer through this,
/// so a reply never carries more than a local hit delivers.
fn answer_from_store(
    store: &mut kad::ProviderStore<Advertisement>,
    key: u64,
    kind: &QueryKind,
    now: SimTime,
    k: usize,
    out: &mut Vec<Advertisement>,
) {
    let live = store.get(key, now).iter();
    out.extend(
        live.filter(|r| r.record.matches(kind, now))
            .take(k)
            .map(|r| r.record.clone()),
    );
}

impl P2p {
    fn node_key(p: PeerId) -> NodeId {
        NodeId::from_peer_index(p.0)
    }

    /// Number of iterative lookups currently in flight (chaos invariant:
    /// zero once the event queue drains).
    pub fn active_lookups(&self) -> usize {
        self.lookups.len()
    }

    /// The super-peer role assigned to `p` (None before bootstrap).
    pub fn routed_role(&self, p: PeerId) -> Option<Role> {
        self.peers[p.0 as usize].routed.as_ref().map(|r| r.role)
    }

    /// Provider records held by `p`'s DHT store (0 before bootstrap).
    pub fn routed_store_len(&self, p: PeerId) -> usize {
        self.peers[p.0 as usize]
            .routed
            .as_ref()
            .and_then(|r| r.store.as_ref())
            .map_or(0, |s| s.len())
    }

    /// Bootstrap the structured overlay over the current peer set.
    ///
    /// `profiles` gives each peer's `(availability, speed)` trust profile;
    /// roles come from [`kad::assign_roles`] (which guarantees a ⌈√n⌉ hot
    /// minimum). Non-cold peers get a routing table seeded with their
    /// `bootstrap_adjacency` ring neighbours in node-ID order plus
    /// `bootstrap_sample` random contacts; cold peers are assigned their
    /// nearest (by XOR) hot rendezvous. Existing provider stores survive a
    /// re-bootstrap (tables and roles are rebuilt).
    pub fn enable_routed(&mut self, profiles: &[(f64, f64)], rng: &mut Pcg32) {
        let n = self.peers.len();
        assert_eq!(profiles.len(), n, "one profile per peer");
        if n == 0 {
            self.routed_peers = 0;
            return;
        }
        let mut roles = kad::assign_roles(profiles, &self.routed_cfg.tier);
        if !roles.contains(&Role::Hot) {
            // Degenerate world where everyone classifies cold: promotion
            // never promotes cold peers, but a functioning overlay needs a
            // hot tier — fall back to neutral profiles.
            let neutral = vec![(0.7, 1.0); n];
            roles = kad::assign_roles(&neutral, &self.routed_cfg.tier);
        }
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId::from_peer_index).collect();
        // DHT members (non-cold), sorted by node ID: the bootstrap ring.
        let mut members: Vec<usize> = (0..n).filter(|&i| roles[i] != Role::Cold).collect();
        members.sort_unstable_by_key(|&i| ids[i].0);
        let hot: Vec<usize> = (0..n).filter(|&i| roles[i] == Role::Hot).collect();
        let mut hot_by_id = hot.clone();
        hot_by_id.sort_unstable_by_key(|&h| ids[h]);
        let hot_ids: Vec<NodeId> = hot_by_id.iter().map(|&h| ids[h]).collect();
        let m = members.len();
        for (pos, &i) in members.iter().enumerate() {
            let mut table = kad::RoutingTable::new(ids[i], self.routed_cfg.k);
            for d in 1..=self.routed_cfg.bootstrap_adjacency.min(m / 2) {
                for j in [members[(pos + d) % m], members[(pos + m - d) % m]] {
                    if j != i {
                        let _ = table.insert(Contact {
                            id: ids[j],
                            peer: j as u32,
                        });
                    }
                }
            }
            for _ in 0..self.routed_cfg.bootstrap_sample {
                let j = members[rng.below(m as u64) as usize];
                if j != i {
                    let _ = table.insert(Contact {
                        id: ids[j],
                        peer: j as u32,
                    });
                }
            }
            let store = self.peers[i].routed.take().and_then(|old| old.store);
            self.peers[i].routed = Some(RoutedNode {
                role: roles[i],
                table,
                store,
            });
        }
        self.rendezvous_peers = hot.iter().map(|&i| PeerId(i as u32)).collect();
        for i in 0..n {
            self.peers[i].is_rendezvous = roles[i] == Role::Hot;
            if roles[i] == Role::Cold {
                let near = hot_by_id[ids[i].nearest_in(&hot_ids).expect("hot tier is non-empty")];
                self.peers[i].rendezvous = Some(PeerId(near as u32));
                // Cold peers hold no routing state; role recorded for the
                // delegation decision, table left empty.
                self.peers[i].routed = Some(RoutedNode {
                    role: Role::Cold,
                    table: kad::RoutingTable::new(ids[i], self.routed_cfg.k),
                    store: None,
                });
            } else {
                self.peers[i].rendezvous = None;
            }
        }
        self.routed_peers = n;
        self.obs.incr("p2p.routed_bootstraps");
    }

    /// Lazy bootstrap: scenarios that construct a routed world without an
    /// explicit `enable_routed` call (or that add peers afterwards) get a
    /// deterministic neutral-profile bootstrap on first publish/query.
    pub(crate) fn ensure_routed<E: From<P2pEvent>>(&mut self, sim: &mut Sim<E>) {
        if self.mode != DiscoveryMode::Routed || self.routed_peers == self.peers.len() {
            return;
        }
        let profiles = vec![(0.7, 1.0); self.peers.len()];
        let mut rng = sim.stream(0x0D17_B007);
        self.enable_routed(&profiles, &mut rng);
    }

    /// Learn a live contact: the sender of any routed message we just
    /// processed. Full buckets ping their LRU contact (synchronous
    /// online-state check) and only evict it if it is down.
    fn routed_learn(&mut self, net: &Network, at: PeerId, sender: PeerId) {
        if at == sender {
            return;
        }
        let lru_host = |p: &Self, peer: u32| p.peers[peer as usize].host;
        let Some(node) = self.peers[at.0 as usize].routed.as_ref() else {
            return;
        };
        if node.role == Role::Cold {
            return;
        }
        let c = Contact {
            id: Self::node_key(sender),
            peer: sender.0,
        };
        let full = {
            let node = self.peers[at.0 as usize].routed.as_mut().unwrap();
            match node.table.insert(c) {
                Insert::Full { lru } => Some(lru),
                _ => None,
            }
        };
        if let Some(lru) = full {
            self.metrics.overlay_pings.incr();
            let alive = net.is_online(lru_host(self, lru.peer));
            let node = self.peers[at.0 as usize].routed.as_mut().unwrap();
            if alive {
                node.table.touch(lru.id);
            } else {
                node.table.replace_lru(c);
            }
        }
    }

    /// Routed publish entry point (local ad already recorded by `publish`).
    pub(crate) fn routed_publish<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        peer: PeerId,
        advert: Advertisement,
    ) {
        match self.routed_role(peer) {
            Some(Role::Cold) => {
                // One hop to the rendezvous, which runs the store lookups.
                if let Some(r) = self.peers[peer.0 as usize].rendezvous {
                    self.metrics.cold_delegated_publishes.incr();
                    self.send(sim, net, peer, r, Message::Publish { advert });
                }
            }
            Some(_) => self.routed_publish_lookups(sim, net, peer, advert),
            None => {}
        }
    }

    /// Start one FIND_NODE lookup per derived key; records are stored on
    /// the k closest responders when each lookup resolves.
    pub(crate) fn routed_publish_lookups<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        executor: PeerId,
        advert: Advertisement,
    ) {
        for key in keys_for_advert(&advert) {
            self.spawn_lookup(
                sim,
                net,
                executor,
                key,
                Purpose::Publish {
                    advert: advert.clone(),
                },
            );
        }
    }

    /// Routed query entry point.
    pub(crate) fn routed_query<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        origin: PeerId,
        id: QueryId,
        kind: QueryKind,
    ) {
        match self.routed_role(origin) {
            Some(Role::Cold) => {
                if let Some(r) = self.peers[origin.0 as usize].rendezvous {
                    self.metrics.cold_delegated_queries.incr();
                    let msg = Message::Query {
                        id,
                        origin,
                        prev_hop: origin,
                        ttl: 1,
                        kind,
                    };
                    self.send(sim, net, origin, r, msg);
                }
            }
            Some(_) => self.routed_start_query(sim, net, origin, id, origin, &kind),
            None => {}
        }
    }

    /// Run the iterative FIND_VALUE for a query at `executor` (the origin
    /// itself, or a hot rendezvous acting for a cold origin).
    pub(crate) fn routed_start_query<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        executor: PeerId,
        id: QueryId,
        origin: PeerId,
        kind: &QueryKind,
    ) {
        let key = key_for_kind(kind);
        let now = sim.now();
        // FIND_VALUE semantics: a local store hit resolves the query
        // without touching the network.
        let (k, mut local) = (self.routed_cfg.k, self.take_advert_buf());
        let node = self.peers[executor.0 as usize].routed.as_mut();
        if let Some(store) = node.and_then(|n| n.store.as_deref_mut()) {
            answer_from_store(store, key, kind, now, k, &mut local);
        }
        if !local.is_empty() {
            self.metrics.lookup_local_hits.incr();
            for advert in local.drain(..) {
                self.deliver_hit(sim, net, executor, origin, id, advert);
            }
            self.recycle_advert_buf(local);
            return;
        }
        self.recycle_advert_buf(local);
        self.spawn_lookup(
            sim,
            net,
            executor,
            key,
            Purpose::Query {
                id,
                origin,
                kind: kind.clone(),
            },
        );
    }

    /// A provider record surfaced for a query: record it at the origin, or
    /// ship it there if the executor is acting on the origin's behalf.
    fn deliver_hit<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        executor: PeerId,
        origin: PeerId,
        id: QueryId,
        advert: Advertisement,
    ) {
        if executor == origin {
            let now = sim.now();
            if let Some(q) = self.queries.get_mut(&id) {
                q.hits.push((now, advert));
            }
            self.metrics.query_hits.incr();
        } else {
            self.send(sim, net, executor, origin, Message::QueryHit { id, advert });
        }
    }

    fn spawn_lookup<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        executor: PeerId,
        key: u64,
        purpose: Purpose,
    ) {
        let Some(node) = self.peers[executor.0 as usize].routed.as_ref() else {
            return;
        };
        let cfg = kad::LookupConfig {
            k: self.routed_cfg.k,
            alpha: self.routed_cfg.alpha,
        };
        let mut seeds = std::mem::take(&mut self.contact_scratch);
        node.table.closest_into(NodeId(key), cfg.k, &mut seeds);
        let lookup = kad::Lookup::new(NodeId(key), cfg, seeds.iter().copied());
        self.contact_scratch = seeds;
        let lid = LookupId(self.next_lookup);
        self.next_lookup += 1;
        self.metrics.lookups_started.incr();
        self.lookups.insert(
            lid,
            ActiveLookup {
                lookup,
                executor,
                key,
                purpose,
                timer_armed: false,
            },
        );
        self.advance_lookup(sim, net, lid);
    }

    /// Issue the next batch of requests for a lookup, each due to fail
    /// `request_timeout` from now; failed sends fail their entries
    /// immediately (freeing α budget for the next round). Finishes the
    /// lookup if it is done, else makes sure its timer is pending.
    fn advance_lookup<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        lid: LookupId,
    ) {
        let deadline = sim.now() + self.routed_cfg.request_timeout;
        let mut batch = std::mem::take(&mut self.contact_scratch);
        while let Some(al) = self.lookups.get_mut(&lid) {
            al.lookup.next_batch(deadline, &mut batch);
            if batch.is_empty() {
                break;
            }
            let kind = match &al.purpose {
                Purpose::Query { kind, .. } => Some(kind.clone()),
                Purpose::Publish { .. } => None,
            };
            let (executor, key) = (al.executor, al.key);
            let mut failed: Vec<NodeId> = Vec::new();
            for &c in &batch {
                let msg = match &kind {
                    Some(kind) => Message::FindValue {
                        lid,
                        from: executor,
                        key,
                        kind: kind.clone(),
                    },
                    None => Message::FindNode {
                        lid,
                        from: executor,
                        key,
                    },
                };
                if !self.send(sim, net, executor, PeerId(c.peer), msg) {
                    failed.push(c.id);
                }
            }
            if failed.is_empty() {
                break;
            }
            if let Some(al) = self.lookups.get_mut(&lid) {
                for id in failed {
                    al.lookup.on_fail(id);
                }
            }
        }
        self.contact_scratch = batch;
        let Some(al) = self.lookups.get_mut(&lid) else {
            return;
        };
        if al.lookup.is_done() {
            self.finish_lookup(sim, net, lid);
        } else if !al.timer_armed {
            // A pending timer is never later than the earliest deadline:
            // deadlines are handed out in send order, so a new request
            // never runs out before the ones already in flight.
            if let Some(at) = al.lookup.next_deadline() {
                al.timer_armed = true;
                let executor = al.executor;
                sim.schedule_at(at, P2pEvent::LookupTimeout { executor, lid }.into());
            }
        }
    }

    /// Serve a FIND_NODE / FIND_VALUE request at `to`.
    #[allow(clippy::too_many_arguments)] // wire dispatch: all fields are live request state
    pub(crate) fn routed_serve_find<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        to: PeerId,
        lid: LookupId,
        from: PeerId,
        key: u64,
        kind: Option<QueryKind>,
    ) {
        self.routed_learn(net, to, from);
        let now = sim.now();
        // A cold (or unbootstrapped) peer holds no routing state: it still
        // answers — with nothing — so a misdirected lookup step fails fast
        // instead of eating a timeout.
        // Reply payloads come from the recycled pools: the reply handler
        // drains them and returns the capacity, so a steady stream of
        // lookup steps serves without allocating.
        let mut closer = self.take_contact_buf();
        let mut providers = self.take_advert_buf();
        let mut scratch = std::mem::take(&mut self.contact_scratch);
        if let Some(node) = self.peers[to.0 as usize].routed.as_mut() {
            if node.role != Role::Cold {
                node.table
                    .closest_into(NodeId(key), self.routed_cfg.k, &mut scratch);
                closer.extend(
                    scratch
                        .iter()
                        .filter(|c| c.peer != from.0)
                        .map(|c| (c.id.0, PeerId(c.peer))),
                );
                if let (Some(kind), Some(store)) = (&kind, node.store.as_deref_mut()) {
                    let k = self.routed_cfg.k;
                    answer_from_store(store, key, kind, now, k, &mut providers);
                }
            }
        }
        self.contact_scratch = scratch;
        if !providers.is_empty() {
            self.metrics
                .provider_record_hits
                .add(providers.len() as u64);
        }
        let reply = match kind {
            Some(_) => Message::FindValueReply {
                lid,
                from: to,
                closer,
                providers,
            },
            None => {
                self.recycle_advert_buf(providers);
                Message::FindNodeReply {
                    lid,
                    from: to,
                    closer,
                }
            }
        };
        self.send(sim, net, to, from, reply);
    }

    /// Process a FIND_NODE / FIND_VALUE reply arriving at executor `to`.
    #[allow(clippy::too_many_arguments)] // wire dispatch: all fields are live reply state
    pub(crate) fn routed_on_reply<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        to: PeerId,
        lid: LookupId,
        from: PeerId,
        mut closer: Vec<(u64, PeerId)>,
        mut providers: Vec<Advertisement>,
        out: &mut crate::overlay::Surfaced,
    ) {
        // Learning the responder under its *real* ID is what heals a
        // poisoned routing table: a fabricated contact that answers gets
        // re-filed correctly, one that never answers gets evicted by the
        // ping-or-evict path.
        self.routed_learn(net, to, from);
        let stale = match self.lookups.get(&lid) {
            None => true, // late reply: lookup already resolved or was reset
            Some(al) => al.executor != to,
        };
        if stale {
            self.recycle_contact_buf(closer);
            self.recycle_advert_buf(providers);
            return;
        }
        // An honest `closer` list is some table's `closest_into(.., k)` and
        // an honest `providers` list some store's `answer_from_store(.., k)`:
        // what a reply carries beyond `k` is refused, so no remote peer
        // decides how large a lookup's shortlist or a query's hits grow.
        let k = self.routed_cfg.k;
        if closer.len() > k {
            self.metrics
                .reply_contacts_refused
                .add((closer.len() - k) as u64);
            closer.truncate(k);
        }
        if providers.len() > k {
            self.metrics
                .reply_providers_refused
                .add((providers.len() - k) as u64);
            providers.truncate(k);
        }
        {
            let al = self.lookups.get_mut(&lid).unwrap();
            al.lookup.on_reply(
                Self::node_key(from),
                closer.drain(..).map(|(id, p)| Contact {
                    id: NodeId(id),
                    peer: p.0,
                }),
            );
        }
        self.recycle_contact_buf(closer);
        let now = sim.now();
        if !providers.is_empty() {
            let al = self.lookups.get(&lid).unwrap();
            if let Purpose::Query { id, origin, kind } = &al.purpose {
                let (id, origin, kind) = (*id, *origin, kind.clone());
                let hops = al.lookup.hops() as u64;
                let mut live = self.take_advert_buf();
                live.extend(providers.drain(..).filter(|ad| ad.matches(&kind, now)));
                if !live.is_empty() {
                    // FIND_VALUE early termination: first matching records
                    // resolve the query; replies still in flight arrive
                    // stale and the pending timer finds the lookup gone.
                    if to == origin {
                        self.metrics.query_hits.add(live.len() as u64);
                    }
                    for advert in live.drain(..) {
                        if to == origin {
                            let provider = advert.peer();
                            if let Some(q) = self.queries.get_mut(&id) {
                                q.hits.push((now, advert));
                            }
                            out.push(crate::overlay::Incoming::QueryHit { id, provider });
                        } else {
                            self.send(sim, net, to, origin, Message::QueryHit { id, advert });
                        }
                    }
                    if let Some(q) = self.queries.get_mut(&id) {
                        q.hops = q.hops.max(hops);
                    }
                    self.metrics.lookups_converged.incr();
                    self.metrics.lookup_hops.add(hops);
                    self.recycle_advert_buf(live);
                    self.recycle_advert_buf(providers);
                    self.lookups.remove(&lid);
                    return;
                }
                self.recycle_advert_buf(live);
            }
        }
        self.recycle_advert_buf(providers);
        self.advance_lookup(sim, net, lid);
    }

    /// A lookup's timer fired at `executor`: fail every request past its
    /// deadline, then advance the lookup, which re-arms the timer at the
    /// next deadline still in flight.
    pub(crate) fn routed_on_timeout<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        executor: PeerId,
        lid: LookupId,
    ) {
        // A lookup that resolved before its timer fired is gone.
        let Some(al) = self.lookups.get_mut(&lid) else {
            return;
        };
        al.timer_armed = false;
        if !net.is_online(self.peers[executor.0 as usize].host) {
            // The executor itself died mid-lookup: abandon.
            self.lookups.remove(&lid);
            self.metrics.lookups_abandoned.incr();
            return;
        }
        let timed_out = al.lookup.expire(sim.now());
        if timed_out > 0 {
            self.metrics.lookup_timeouts.add(timed_out as u64);
        }
        self.advance_lookup(sim, net, lid);
    }

    /// A lookup ran to completion (no early value termination).
    fn finish_lookup<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        lid: LookupId,
    ) {
        let Some(al) = self.lookups.remove(&lid) else {
            return;
        };
        let hops = al.lookup.hops() as u64;
        self.metrics.lookups_converged.incr();
        self.metrics.lookup_hops.add(hops);
        match al.purpose {
            Purpose::Query { id, .. } => {
                if let Some(q) = self.queries.get_mut(&id) {
                    q.hops = q.hops.max(hops);
                }
            }
            Purpose::Publish { advert } => {
                let targets = al.lookup.closest_responded();
                // The executor itself may be one of the k closest.
                let own = Self::node_key(al.executor);
                let own_d = own.distance(NodeId(al.key));
                let in_k = targets.len() < self.routed_cfg.k
                    || targets
                        .iter()
                        .any(|c| own_d < c.id.distance(NodeId(al.key)));
                if in_k {
                    self.routed_store(
                        net,
                        sim.now(),
                        al.executor,
                        al.executor,
                        al.key,
                        advert.clone(),
                    );
                }
                for c in targets {
                    if c.peer != al.executor.0 {
                        self.send(
                            sim,
                            net,
                            al.executor,
                            PeerId(c.peer),
                            Message::StoreProvider {
                                from: al.executor,
                                key: al.key,
                                advert: advert.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Store a provider record at `to` (a STORE arriving over the wire, or
    /// the executor's own local store step).
    pub(crate) fn routed_store(
        &mut self,
        net: &Network,
        _now: SimTime,
        to: PeerId,
        from: PeerId,
        key: u64,
        advert: Advertisement,
    ) {
        self.routed_learn(net, to, from);
        let expires = advert.expires;
        let provider = advert.peer().0;
        let cap = self.routed_cfg.store_cap_per_key;
        if let Some(node) = self.peers[to.0 as usize].routed.as_mut() {
            if node.role != Role::Cold {
                let store = node
                    .store
                    .get_or_insert_with(|| Box::new(kad::ProviderStore::new(cap)));
                store.insert(
                    key,
                    kad::StoredRecord {
                        provider,
                        expires,
                        record: advert,
                    },
                );
                self.metrics.provider_records_stored.incr();
            }
        }
    }

    /// Chaos hook (`rtbl`): corrupt roughly half of a DHT node's routing
    /// table by replacing entries with fabricated (node-id, peer)
    /// mappings. Returns how many contacts were poisoned. The overlay
    /// self-heals: fabricated contacts that answer are re-learned under
    /// their real IDs; ones that do not are evicted on failure.
    pub fn poison_routing_table(&mut self, peer: PeerId, rng: &mut Pcg32) -> u64 {
        let n = self.peers.len() as u64;
        let Some(node) = self.peers[peer.0 as usize].routed.as_mut() else {
            return 0;
        };
        if node.role == Role::Cold {
            return 0;
        }
        let contacts: Vec<Contact> = node.table.contacts().collect();
        let mut poisoned = 0;
        for c in contacts {
            if rng.below(2) == 0 {
                node.table.remove(c.id);
                let _ = node.table.insert(Contact {
                    id: NodeId(rng.next_u64()),
                    peer: rng.below(n) as u32,
                });
                poisoned += 1;
            }
        }
        self.obs.add("p2p.routing_poisoned", poisoned);
        poisoned
    }

    /// Re-publish every live local advert (the republish half of the
    /// store/expire pair — owners call this before their records' TTLs
    /// lapse, and after churn re-homes records).
    pub fn routed_republish<E: From<P2pEvent>>(
        &mut self,
        sim: &mut Sim<E>,
        net: &mut Network,
        peer: PeerId,
    ) {
        let now = sim.now();
        let live: Vec<Advertisement> = self.peers[peer.0 as usize]
            .ads
            .iter()
            .filter(|ad| !ad.is_expired(now))
            .cloned()
            .collect();
        for advert in live {
            self.metrics.republishes.incr();
            self.routed_publish(sim, net, peer, advert);
        }
    }
}
