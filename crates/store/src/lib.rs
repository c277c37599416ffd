//! `triana-store` — content-addressed, peer-assisted blob distribution.
//!
//! The paper's code-on-demand model (§3.3) ships every module blob from
//! the Triana Controller to each enrolled peer, so the controller's uplink
//! becomes the scaling wall as the farm grows. This crate decentralises
//! that hot path, BitTorrent-style:
//!
//! * a blob is identified by its content hash ([`BlobId`], the same
//!   FNV-1a 64 hash carried by `tvm::ModuleBlob`);
//! * it is split into fixed-size chunks ([`ChunkLayout`]);
//! * every peer keeps a [`ChunkStore`] of the chunks it holds and can
//!   serve them to other peers;
//! * a fetching peer pulls missing chunks from several providers in
//!   parallel ([`assign_round_robin`]), tracks the in-flight set with a
//!   [`FetchTracker`], and reassembles the blob with
//!   [`ChunkStore::assemble`] — which **verifies the content hash before
//!   the blob is allowed anywhere near a module cache**, rejecting
//!   corrupt or poisoned transfers ([`ChunkStore::assemble_known`] skips
//!   the hash only for bytes the caller has already verified byte for
//!   byte);
//! * once verified, the peer seeds its chunks onward.
//!
//! The crate is deliberately transport-agnostic: it never touches the
//! overlay or the simulated network. The farm scheduler in `triana-core`
//! wires these pieces to `p2p` provider adverts and `netsim` transfers.

mod chunk;
pub mod durable;
mod sched;
mod store;

pub use chunk::{BlobId, ChunkLayout};
pub use durable::{DurableError, DurableStore, RecoveryReport};
pub use sched::{assign_round_robin, FetchTracker};
pub use store::{ChunkStore, StoreError, StoreStats};
