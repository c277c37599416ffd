//! Overlay wire messages, their size model, and the event type.

use crate::advert::Advertisement;
use crate::overlay::PeerId;
use crate::pipe::PipeId;
use crate::sym::Sym;

/// Discovery query identifier (unique per origin query).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// Identifier of one iterative routed lookup (`DiscoveryMode::Routed`).
/// A query or publish may spawn several lookups (one per derived key).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LookupId(pub u64);

/// Hasher for maps keyed by [`QueryId`] or [`LookupId`]: one multiply.
/// Both are counters this process mints itself (`P2p::query`, lookup
/// spawn) and a map only ever stores minted keys — an ID off the wire is
/// looked up, never inserted — so there is no crafted-collision surface
/// for SipHash to defend, and every delivered message probes these maps
/// several times.
#[derive(Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by one of the overlay's own sequential IDs.
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// What a discovery query is looking for.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryKind {
    /// Peers offering a named service.
    ByService(Sym),
    /// A pipe advertised under a unique connection name (§3.4 binding).
    ByPipeName(Sym),
    /// A code module by name and minimum version (§3.3 on-demand download).
    ByModule { name: Sym, min_version: u32 },
    /// Peers meeting capability thresholds ("CPU capability and available
    /// free memory", §3.7).
    ByCapability { min_cpu_ghz: f64, min_ram_mib: u32 },
    /// Providers of a content-addressed blob (swarm module distribution).
    ByBlob { hash: u64 },
}

impl QueryKind {
    fn wire_size(&self) -> u64 {
        match self {
            QueryKind::ByService(s) => 16 + s.len() as u64,
            QueryKind::ByPipeName(s) => 16 + s.len() as u64,
            QueryKind::ByModule { name, .. } => 24 + name.len() as u64,
            QueryKind::ByCapability { .. } => 32,
            QueryKind::ByBlob { .. } => 24,
        }
    }
}

/// A message travelling between peers.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Flooded (or rendezvous-routed) discovery query.
    Query {
        id: QueryId,
        origin: PeerId,
        prev_hop: PeerId,
        ttl: u8,
        kind: QueryKind,
    },
    /// Direct response to the query origin.
    QueryHit { id: QueryId, advert: Advertisement },
    /// Publish an advertisement to a rendezvous peer.
    Publish { advert: Advertisement },
    /// Application payload over a pipe. The payload itself stays in the
    /// embedding layer; only its size and an opaque tag travel here.
    PipeData { pipe: PipeId, tag: u64, bytes: u64 },
    /// One replicated-scheduler delta, gossiped leader → follower. Like
    /// pipe data, the delta contents stay in the embedding layer (applied
    /// out of the shared log at delivery); only the sequence number and a
    /// size estimate travel here.
    OrchDelta { seq: u64, bytes: u64 },
    /// Anti-entropy catch-up batch: log entries `[from_seq, from_seq +
    /// count)` pushed to a lagging replica in one transfer.
    OrchSync {
        from_seq: u64,
        count: u64,
        bytes: u64,
    },
    /// Routed discovery: ask a node for its contacts closest to `key`
    /// (Kademlia `FIND_NODE`). `from` is the lookup executor the reply
    /// goes back to.
    FindNode {
        lid: LookupId,
        from: PeerId,
        key: u64,
    },
    /// Reply to [`Message::FindNode`]: the responder's closest known
    /// `(node-id, peer)` contacts, plus `from` so the executor can learn
    /// the responder itself.
    FindNodeReply {
        lid: LookupId,
        from: PeerId,
        closer: Vec<(u64, PeerId)>,
    },
    /// Routed discovery: `FIND_NODE` that additionally returns any
    /// provider records under `key` matching `kind` (Kademlia
    /// `FIND_VALUE`).
    FindValue {
        lid: LookupId,
        from: PeerId,
        key: u64,
        kind: QueryKind,
    },
    /// Reply to [`Message::FindValue`]: closer contacts and/or matching
    /// provider records.
    FindValueReply {
        lid: LookupId,
        from: PeerId,
        closer: Vec<(u64, PeerId)>,
        providers: Vec<Advertisement>,
    },
    /// Store a provider record on one of the k nodes closest to `key`.
    StoreProvider {
        from: PeerId,
        key: u64,
        advert: Advertisement,
    },
}

impl Message {
    /// Each kind's `p2p.sent.*` counter, indexed by [`Message::kind`].
    pub(crate) const SENT_COUNTERS: [&'static str; 11] = [
        "p2p.sent.query",
        "p2p.sent.query_hit",
        "p2p.sent.publish",
        "p2p.sent.pipe_data",
        "p2p.sent.orch_delta",
        "p2p.sent.orch_sync",
        "p2p.sent.find_node",
        "p2p.sent.find_node_reply",
        "p2p.sent.find_value",
        "p2p.sent.find_value_reply",
        "p2p.sent.store_provider",
    ];

    /// Index of this message's kind in [`Message::SENT_COUNTERS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Message::Query { .. } => 0,
            Message::QueryHit { .. } => 1,
            Message::Publish { .. } => 2,
            Message::PipeData { .. } => 3,
            Message::OrchDelta { .. } => 4,
            Message::OrchSync { .. } => 5,
            Message::FindNode { .. } => 6,
            Message::FindNodeReply { .. } => 7,
            Message::FindValue { .. } => 8,
            Message::FindValueReply { .. } => 9,
            Message::StoreProvider { .. } => 10,
        }
    }

    /// Approximate size on the wire, driving the link model.
    pub fn wire_size(&self) -> u64 {
        match self {
            Message::Query { kind, .. } => 48 + kind.wire_size(),
            Message::QueryHit { advert, .. } => 32 + advert.wire_size(),
            Message::Publish { advert } => 24 + advert.wire_size(),
            Message::PipeData { bytes, .. } => 40 + bytes,
            Message::OrchDelta { bytes, .. } => 24 + bytes,
            Message::OrchSync { bytes, .. } => 32 + bytes,
            Message::FindNode { .. } => 48,
            Message::FindNodeReply { closer, .. } => 24 + 12 * closer.len() as u64,
            Message::FindValue { kind, .. } => 48 + kind.wire_size(),
            Message::FindValueReply {
                closer, providers, ..
            } => {
                24 + 12 * closer.len() as u64 + providers.iter().map(|a| a.wire_size()).sum::<u64>()
            }
            Message::StoreProvider { advert, .. } => 32 + advert.wire_size(),
        }
    }
}

/// The overlay's event type; embed it in a larger enum via `From`.
#[derive(Clone, Debug, PartialEq)]
pub enum P2pEvent {
    /// A message finished arriving at `to`.
    Delivered { to: PeerId, msg: Message },
    /// The one local timer of a live routed lookup, armed at the earliest
    /// deadline among its requests in flight: fail every request still
    /// unanswered at its deadline, advance the lookup and re-arm at the
    /// next deadline (or abandon the lookup if `executor` is offline).
    /// Not a network message — never counted in the sent/received/lost
    /// conservation identity.
    LookupTimeout { executor: PeerId, lid: LookupId },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advert::{AdvertBody, PeerAdvert};
    use netsim::SimTime;

    #[test]
    fn pipe_data_size_is_dominated_by_payload() {
        let m = Message::PipeData {
            pipe: PipeId(1),
            tag: 9,
            bytes: 1_000_000,
        };
        assert_eq!(m.wire_size(), 1_000_040);
    }

    #[test]
    fn query_size_reflects_kind() {
        let small = Message::Query {
            id: QueryId(1),
            origin: PeerId(0),
            prev_hop: PeerId(0),
            ttl: 7,
            kind: QueryKind::ByService("x".into()),
        };
        let large = Message::Query {
            id: QueryId(1),
            origin: PeerId(0),
            prev_hop: PeerId(0),
            ttl: 7,
            kind: QueryKind::ByService("a-much-longer-service-name".into()),
        };
        assert!(large.wire_size() > small.wire_size());
    }

    #[test]
    fn gossip_sizes_are_header_plus_payload() {
        assert_eq!(Message::OrchDelta { seq: 7, bytes: 24 }.wire_size(), 48);
        let sync = Message::OrchSync {
            from_seq: 3,
            count: 5,
            bytes: 120,
        };
        assert_eq!(sync.wire_size(), 152);
    }

    #[test]
    fn hit_carries_advert_size() {
        let advert = Advertisement {
            body: AdvertBody::Peer(PeerAdvert {
                peer: PeerId(3),
                cpu_ghz: 1.0,
                free_ram_mib: 64,
                services: vec!["triana".into()],
            }),
            expires: SimTime(10),
        };
        let m = Message::QueryHit {
            id: QueryId(4),
            advert: advert.clone(),
        };
        assert_eq!(m.wire_size(), 32 + advert.wire_size());
    }
}
