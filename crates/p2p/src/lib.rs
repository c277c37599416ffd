//! `p2p` — a JXTA-like peer-to-peer substrate over the simulated network.
//!
//! Triana's Consumer Grid implementation (paper §3.4) rides on JXTA: peers
//! and their services are described by **advertisements**, located via
//! **discovery**, and connected with virtual **pipes**. JXTA itself is long
//! gone; this crate reimplements the three facilities Triana used, over
//! `netsim`'s consumer-link network:
//!
//! * [`advert`] — peer / pipe / module advertisements with expiry,
//! * [`overlay`] — the peer table, neighbour graph, and the two discovery
//!   modes the paper discusses: Gnutella-style **flooding** (whose
//!   scalability problems §3.7 and ref \[7\] call out) and JXTA-style
//!   **rendezvous** super-peers,
//! * [`pipe`] — named unidirectional pipes ("its input and output nodes are
//!   advertised as JXTAServe input and output pipes"),
//! * [`message`] — the wire messages and their size model.
//!
//! Everything is event-driven through `netsim::Sim`; the embedding layer
//! owns the event enum and forwards [`P2pEvent`]s to [`overlay::P2p::handle`].

pub mod advert;
pub mod groups;
pub mod message;
pub mod overlay;
pub mod pipe;
pub mod routed;
pub mod sym;
pub mod wire;

pub use advert::{AdvertBody, Advertisement, BlobAdvert, ModuleAdvert, PeerAdvert, PipeAdvert};
pub use groups::{CapabilityPredicate, PeerGroup};
pub use message::{LookupId, Message, P2pEvent, QueryId, QueryKind};
pub use overlay::{DiscoveryMode, Incoming, P2p, PeerId, QueryStatus, Surfaced, SEEN_CACHE_CAP};
pub use pipe::PipeId;
pub use routed::{RoutedConfig, RoutedNode};
pub use sym::Sym;
pub use wire::WireError;
