//! `netsim` — deterministic discrete-event simulation substrate for the
//! Consumer Grid reproduction.
//!
//! The paper's Consumer Grid targets privately-connected hosts (DSL, cable,
//! modem) with heterogeneous CPUs and volunteer-style availability. None of
//! that hardware is available here, so this crate provides the synthetic
//! equivalent: a discrete-event simulator with
//!
//! * a total-ordered event queue and microsecond clock ([`Sim`], [`EventQueue`]),
//! * deterministic, splittable random streams ([`rng::Pcg32`]),
//! * access-link models for consumer connection classes ([`link::LinkClass`]),
//! * a host model mapping work (gigacycles) to execution time ([`host::HostSpec`]),
//! * a star-topology internet cloud with per-host uplink/downlink queueing
//!   ([`net::Network`]),
//! * volunteer availability / churn processes ([`avail`]), and
//! * lightweight summary statistics ([`stats`]).
//!
//! Higher layers (`p2p`, `triana-core`) define their own event enums and run
//! them through [`Sim`]; all randomness flows from explicitly seeded streams
//! so every experiment is reproducible bit-for-bit.

pub mod avail;
pub mod event;
pub mod host;
pub mod link;
pub mod net;
pub mod payload;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, EventTap, Intercept, Sim};
pub use host::HostSpec;
pub use link::{LinkClass, LinkSpec};
pub use net::{HostId, Network};
pub use payload::{PayloadArena, PayloadId, PayloadStats};
pub use rng::Pcg32;
pub use time::{Duration, SimTime};
