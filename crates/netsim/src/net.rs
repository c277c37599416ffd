//! The simulated internet: hosts on access links around an over-provisioned
//! core.
//!
//! Topology is a star: every host's access link meets an infinite-capacity
//! core that contributes only propagation latency. A message therefore
//! queues on the sender's **uplink**, crosses the core, and queues on the
//! receiver's **downlink** — capturing the defining property of the consumer
//! population (asymmetric, slow edges; fast middle) without simulating
//! routers.

use crate::host::HostSpec;
use crate::time::{Duration, SimTime};
use std::collections::HashSet;
use std::fmt;

/// Index of a host within a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

struct HostState {
    spec: HostSpec,
    online: bool,
    /// Earliest instant the uplink is free (FIFO serialization queue).
    up_free: SimTime,
    /// Earliest instant the downlink is free.
    down_free: SimTime,
}

/// Aggregate traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    pub messages: u64,
    pub bytes: u64,
    pub dropped: u64,
}

obs::handles! {
    /// The `net.*` counters, resolved once in [`Network::set_obs`].
    struct NetMetrics {
        transfers: obs::Counter = "net.transfers",
        bytes: obs::Counter = "net.bytes",
        dropped: obs::Counter = "net.dropped",
    }
}

/// The host table plus link-queue state.
pub struct Network {
    hosts: Vec<HostState>,
    stats: NetStats,
    /// Local (same-host) delivery cost; models IPC, not the network.
    pub loopback: Duration,
    metrics: NetMetrics,
    /// Severed host pairs (stored normalized low-high); transfers between
    /// them fail as [`SendError::LinkCut`]. Models a routing partition
    /// between two otherwise-online hosts.
    cut_links: HashSet<(HostId, HostId)>,
}

/// Why a transfer could not be initiated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    SourceOffline,
    DestOffline,
    /// The path between the two hosts is administratively severed
    /// (fault-injected partition); both endpoints are still online.
    LinkCut,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    pub fn new() -> Self {
        Network {
            hosts: Vec::new(),
            stats: NetStats::default(),
            loopback: Duration::from_micros(50),
            metrics: NetMetrics::default(),
            cut_links: HashSet::new(),
        }
    }

    fn norm_pair(a: HostId, b: HostId) -> (HostId, HostId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sever or restore the path between two hosts (order-insensitive).
    /// While cut, [`Network::transfer`] between them fails with
    /// [`SendError::LinkCut`] and counts as dropped.
    pub fn set_link_cut(&mut self, a: HostId, b: HostId, cut: bool) {
        let pair = Self::norm_pair(a, b);
        if cut {
            self.cut_links.insert(pair);
        } else {
            self.cut_links.remove(&pair);
        }
    }

    pub fn is_link_cut(&self, a: HostId, b: HostId) -> bool {
        self.cut_links.contains(&Self::norm_pair(a, b))
    }

    /// Restore every severed link.
    pub fn clear_link_cuts(&mut self) {
        self.cut_links.clear();
    }

    /// Attach a metrics observer; every [`Network::transfer`] then also feeds
    /// the `net.*` counters in the shared registry.
    pub fn set_obs(&mut self, observer: obs::Obs) {
        self.metrics = NetMetrics::new(&observer);
    }

    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(HostState {
            spec,
            online: true,
            up_free: SimTime::ZERO,
            down_free: SimTime::ZERO,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len() as u32).map(HostId)
    }

    pub fn spec(&self, id: HostId) -> &HostSpec {
        &self.hosts[id.0 as usize].spec
    }

    pub fn is_online(&self, id: HostId) -> bool {
        self.hosts[id.0 as usize].online
    }

    pub fn set_online(&mut self, id: HostId, online: bool) {
        self.hosts[id.0 as usize].online = online;
    }

    pub fn stats(&self) -> NetStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// Latency + serialization for a transfer starting now, **with** link
    /// queueing; mutates queue state. Returns the delivery delay relative to
    /// `now`, or an error if either endpoint is offline (the message is
    /// counted as dropped).
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: HostId,
        dst: HostId,
        bytes: u64,
    ) -> Result<Duration, SendError> {
        if !self.hosts[src.0 as usize].online {
            self.stats.dropped += 1;
            self.metrics.dropped.incr();
            return Err(SendError::SourceOffline);
        }
        if !self.hosts[dst.0 as usize].online {
            self.stats.dropped += 1;
            self.metrics.dropped.incr();
            return Err(SendError::DestOffline);
        }
        if !self.cut_links.is_empty() && self.is_link_cut(src, dst) && src != dst {
            self.stats.dropped += 1;
            self.metrics.dropped.incr();
            return Err(SendError::LinkCut);
        }
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.metrics.transfers.incr();
        self.metrics.bytes.add(bytes);
        if src == dst {
            return Ok(self.loopback);
        }
        let (up_lat, up_ser) = {
            let s = &self.hosts[src.0 as usize];
            (s.spec.link.latency, s.spec.link.up_serialization(bytes))
        };
        let (down_lat, down_ser) = {
            let d = &self.hosts[dst.0 as usize];
            (d.spec.link.latency, d.spec.link.down_serialization(bytes))
        };
        // Uplink FIFO queue.
        let up_start = now.max(self.hosts[src.0 as usize].up_free);
        let up_done = up_start + up_ser;
        self.hosts[src.0 as usize].up_free = up_done;
        // Core propagation.
        let arrive = up_done + up_lat + down_lat;
        // Downlink FIFO queue.
        let down_start = arrive.max(self.hosts[dst.0 as usize].down_free);
        let done = down_start + down_ser;
        self.hosts[dst.0 as usize].down_free = done;
        Ok(done.since(now))
    }

    /// Transfer delay if sent now, **without** mutating queue state; used
    /// for planning / placement estimates.
    pub fn estimate(&self, now: SimTime, src: HostId, dst: HostId, bytes: u64) -> Duration {
        if src == dst {
            return self.loopback;
        }
        let s = &self.hosts[src.0 as usize];
        let d = &self.hosts[dst.0 as usize];
        let up_done = now.max(s.up_free) + s.spec.link.up_serialization(bytes);
        let arrive = up_done + s.spec.link.latency + d.spec.link.latency;
        let done = arrive.max(d.down_free) + d.spec.link.down_serialization(bytes);
        done.since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;

    fn net_with(classes: &[LinkClass]) -> (Network, Vec<HostId>) {
        let mut net = Network::new();
        let ids = classes
            .iter()
            .map(|&c| {
                let mut spec = HostSpec::reference_pc();
                spec.link = c.spec();
                net.add_host(spec)
            })
            .collect();
        (net, ids)
    }

    #[test]
    fn attached_observer_counts_transfers_and_drops() {
        let observer = obs::Obs::enabled();
        let (mut net, ids) = net_with(&[LinkClass::Lan, LinkClass::Lan]);
        net.set_obs(observer.clone());
        net.transfer(SimTime::ZERO, ids[0], ids[1], 1_000).unwrap();
        net.set_online(ids[1], false);
        assert!(net.transfer(SimTime::ZERO, ids[0], ids[1], 1_000).is_err());
        let reg = observer.registry().unwrap();
        assert_eq!(reg.counter_value("net.transfers"), 1);
        assert_eq!(reg.counter_value("net.bytes"), 1_000);
        assert_eq!(reg.counter_value("net.dropped"), 1);
        // The observer mirrors the built-in stats block.
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn transfer_includes_both_latencies_and_serialization() {
        let (mut net, ids) = net_with(&[LinkClass::Dsl, LinkClass::Dsl]);
        let bytes = 256_000 / 8; // 1 s of uplink at 256 kbit/s
        let d = net.transfer(SimTime::ZERO, ids[0], ids[1], bytes).unwrap();
        // up 1 s + 2*25 ms + down (256000 bits / 1 Mbit/s = 0.256 s)
        let expect = 1.0 + 0.05 + 0.256;
        assert!((d.as_secs_f64() - expect).abs() < 1e-3, "{d}");
    }

    #[test]
    fn uplink_queues_serialize_back_to_back_sends() {
        let (mut net, ids) = net_with(&[LinkClass::Dsl, LinkClass::Lan]);
        let bytes = 256_000 / 8; // 1 s of DSL uplink each
        let d1 = net.transfer(SimTime::ZERO, ids[0], ids[1], bytes).unwrap();
        let d2 = net.transfer(SimTime::ZERO, ids[0], ids[1], bytes).unwrap();
        assert!(
            d2.as_secs_f64() > d1.as_secs_f64() + 0.9,
            "second send must wait for the uplink: {d1} then {d2}"
        );
    }

    #[test]
    fn offline_endpoints_drop() {
        let (mut net, ids) = net_with(&[LinkClass::Lan, LinkClass::Lan]);
        net.set_online(ids[1], false);
        assert_eq!(
            net.transfer(SimTime::ZERO, ids[0], ids[1], 10),
            Err(SendError::DestOffline)
        );
        net.set_online(ids[1], true);
        net.set_online(ids[0], false);
        assert_eq!(
            net.transfer(SimTime::ZERO, ids[0], ids[1], 10),
            Err(SendError::SourceOffline)
        );
        assert_eq!(net.stats().dropped, 2);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn cut_links_drop_until_restored() {
        let (mut net, ids) = net_with(&[LinkClass::Lan, LinkClass::Lan, LinkClass::Lan]);
        net.set_link_cut(ids[1], ids[0], true); // order-insensitive
        assert!(net.is_link_cut(ids[0], ids[1]));
        assert_eq!(
            net.transfer(SimTime::ZERO, ids[0], ids[1], 10),
            Err(SendError::LinkCut)
        );
        // Other paths unaffected.
        assert!(net.transfer(SimTime::ZERO, ids[0], ids[2], 10).is_ok());
        net.set_link_cut(ids[0], ids[1], false);
        assert!(net.transfer(SimTime::ZERO, ids[0], ids[1], 10).is_ok());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn loopback_is_constant_and_cheap() {
        let (mut net, ids) = net_with(&[LinkClass::Modem]);
        let d = net
            .transfer(SimTime::ZERO, ids[0], ids[0], 10_000_000)
            .unwrap();
        assert_eq!(d, net.loopback);
    }

    #[test]
    fn estimate_matches_transfer_but_does_not_mutate() {
        let (mut net, ids) = net_with(&[LinkClass::Cable, LinkClass::Dsl]);
        let e1 = net.estimate(SimTime::ZERO, ids[0], ids[1], 50_000);
        let t = net.transfer(SimTime::ZERO, ids[0], ids[1], 50_000).unwrap();
        assert_eq!(e1, t);
        // estimate again: now reflects queueing from the real transfer
        let e2 = net.estimate(SimTime::ZERO, ids[0], ids[1], 50_000);
        assert!(e2 > e1);
    }

    #[test]
    fn stats_accumulate() {
        let (mut net, ids) = net_with(&[LinkClass::Lan, LinkClass::Lan]);
        net.transfer(SimTime::ZERO, ids[0], ids[1], 100).unwrap();
        net.transfer(SimTime::ZERO, ids[1], ids[0], 200).unwrap();
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().bytes, 300);
        net.reset_stats();
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn faster_links_deliver_sooner() {
        let (mut net, ids) = net_with(&[LinkClass::Lan, LinkClass::Lan, LinkClass::Modem]);
        let lan = net
            .transfer(SimTime::ZERO, ids[0], ids[1], 100_000)
            .unwrap();
        let modem = net
            .transfer(SimTime::ZERO, ids[0], ids[2], 100_000)
            .unwrap();
        assert!(modem.as_micros() > lan.as_micros() * 10);
    }
}
