//! Triana Service and Triana Controller actors.
//!
//! §3.2: "there are two distinct components in the Triana implementation:
//! the Triana Service (TS) and the Triana Controller (TC) … A single Triana
//! controller can control multiple Triana networks deployed over multiple
//! CPU resources." Here the Service is the volunteer-side daemon — it
//! advertises what the peer offers and meters usage into its billing ledger
//! — and the Controller is the user side: it discovers services, selects
//! providers, and binds pipelines (Case 3).

use netsim::{Duration, SimTime};
use p2p::advert::{AdvertBody, PeerAdvert};
use p2p::{Advertisement, PeerId, QueryId, QueryKind};
use resources::account::{BillingLedger, UsageRecord, VirtualAccount};
use resources::trust::ResourcePolicy;

use crate::grid::GridWorld;

/// The daemon hosted on a volunteer peer (§3.2's "Triana Service").
pub struct TrianaService {
    pub peer: PeerId,
    /// Service names offered (always includes `"triana"`).
    pub services: Vec<p2p::Sym>,
    pub policy: ResourcePolicy,
    pub ledger: BillingLedger,
}

impl TrianaService {
    pub fn new(peer: PeerId, extra_services: &[&str], policy: ResourcePolicy) -> Self {
        let mut services = vec![p2p::Sym::new("triana")];
        services.extend(extra_services.iter().map(|s| p2p::Sym::new(s)));
        TrianaService {
            peer,
            services,
            policy,
            ledger: BillingLedger::new(),
        }
    }

    /// Publish this peer's advertisement (capabilities + services).
    pub fn advertise(&self, world: &mut GridWorld, lifetime: Duration) {
        let host = world.p2p.host_of(self.peer);
        let spec = world.net.spec(host).clone();
        let ad = Advertisement {
            body: AdvertBody::Peer(PeerAdvert {
                peer: self.peer,
                cpu_ghz: spec.cpu_ghz,
                free_ram_mib: self.policy.max_guest_ram_mib.min(spec.ram_mib),
                services: self.services.clone(),
            }),
            expires: world.sim.now() + lifetime,
        };
        let peer = self.peer;
        world.p2p.publish(&mut world.sim, &mut world.net, peer, ad);
    }

    /// Meter one guest execution into the ledger (virtual-account billing,
    /// §2).
    pub fn meter(
        &mut self,
        account: &VirtualAccount,
        at: SimTime,
        cpu: Duration,
        bytes_in: u64,
        bytes_out: u64,
        instructions: u64,
    ) {
        self.ledger.charge(
            account,
            UsageRecord {
                at,
                cpu,
                bytes_in,
                bytes_out,
                instructions,
            },
        );
    }
}

/// How the controller picks among multiple discovered providers ("the user
/// may be asked to select a service based on other options that a given
/// service provides", §3.6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selection {
    /// First hit to arrive (lowest discovery latency).
    FirstHit,
    /// The advertised peer with the highest CPU.
    FastestCpu,
}

/// The user-side controller (§3.2's "Triana Controller").
pub struct TrianaController {
    pub peer: PeerId,
    pub account: VirtualAccount,
}

impl TrianaController {
    pub fn new(peer: PeerId, user: &str) -> Self {
        TrianaController {
            peer,
            account: VirtualAccount(user.to_string()),
        }
    }

    /// Issue a discovery query from the controller's peer.
    pub fn discover(&self, world: &mut GridWorld, kind: QueryKind, ttl: u8) -> QueryId {
        let peer = self.peer;
        world
            .p2p
            .query(&mut world.sim, &mut world.net, peer, kind, ttl)
    }

    /// Drain all pending events (overlay only — no schedulers attached).
    pub fn drain(&self, world: &mut GridWorld) {
        while world.step(&mut ()) {}
    }

    /// Select one provider from a completed query's hits.
    pub fn select(&self, world: &GridWorld, query: QueryId, how: Selection) -> Option<PeerId> {
        let status = world.p2p.queries.get(&query)?;
        match how {
            Selection::FirstHit => status.hits.first().map(|(_, ad)| ad.peer()),
            Selection::FastestCpu => status
                .hits
                .iter()
                .filter_map(|(_, ad)| match &ad.body {
                    AdvertBody::Peer(p) => Some((p.cpu_ghz, p.peer)),
                    _ => None,
                })
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("cpu_ghz is finite"))
                .map(|(_, p)| p),
        }
    }

    /// Discover peers offering the `triana` service with at least
    /// `min_cpu_ghz`, returning up to `max` distinct providers — the worker
    /// enrolment step before farming a group out.
    pub fn enroll_workers(
        &self,
        world: &mut GridWorld,
        min_cpu_ghz: f64,
        max: usize,
        ttl: u8,
    ) -> Vec<PeerId> {
        let q = self.discover(
            world,
            QueryKind::ByCapability {
                min_cpu_ghz,
                min_ram_mib: 0,
            },
            ttl,
        );
        self.drain(world);
        let mut providers = world.p2p.queries[&q].providers();
        providers.retain(|&p| p != self.peer);
        providers.truncate(max);
        providers
    }

    /// Case 3 (§3.6.3): discover one provider per service type, in pipeline
    /// order, and return the bound sequence. Fails with the name of the
    /// first service that found no provider.
    pub fn bind_service_pipeline(
        &self,
        world: &mut GridWorld,
        service_names: &[&str],
        how: Selection,
        ttl: u8,
    ) -> Result<Vec<PeerId>, String> {
        let mut bound = Vec::with_capacity(service_names.len());
        for name in service_names {
            let q = self.discover(world, QueryKind::ByService((*name).into()), ttl);
            self.drain(world);
            match self.select(world, q, how) {
                Some(p) => bound.push(p),
                None => return Err(format!("no provider for service `{name}`")),
            }
        }
        Ok(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HostSpec, Pcg32};
    use p2p::DiscoveryMode;

    fn volunteer_world(n: usize) -> (GridWorld, Vec<TrianaService>) {
        let mut world = GridWorld::new(31, DiscoveryMode::Flooding);
        let mut services = Vec::new();
        let mut rng = Pcg32::new(5, 0);
        for _ in 0..n {
            let spec = HostSpec::sample_consumer(&mut rng);
            let (peer, _) = world.add_peer(spec);
            services.push(TrianaService::new(
                peer,
                &[],
                ResourcePolicy::sandbox_default(256),
            ));
        }
        let mut wiring = Pcg32::new(6, 1);
        world.p2p.wire_random(4, &mut wiring);
        (world, services)
    }

    #[test]
    fn enroll_workers_finds_capable_peers() {
        let (mut world, services) = volunteer_world(20);
        for s in &services[1..] {
            s.advertise(&mut world, Duration::from_secs(3600));
        }
        let ctl = TrianaController::new(services[0].peer, "alice");
        let workers = ctl.enroll_workers(&mut world, 1.0, 8, 8);
        assert!(!workers.is_empty());
        assert!(workers.len() <= 8);
        assert!(!workers.contains(&ctl.peer));
        // All enrolled peers meet the CPU floor.
        for w in &workers {
            let h = world.p2p.host_of(*w);
            assert!(world.net.spec(h).cpu_ghz >= 1.0);
        }
    }

    #[test]
    fn bind_service_pipeline_in_order() {
        let mut world = GridWorld::new(33, DiscoveryMode::Flooding);
        let kinds = [
            "data-access",
            "data-manipulate",
            "data-visualise",
            "data-verify",
        ];
        let (ctl_peer, _) = world.add_peer(HostSpec::lan_workstation());
        let mut providers = Vec::new();
        for k in kinds {
            let (p, _) = world.add_peer(HostSpec::lan_workstation());
            let svc = TrianaService::new(p, &[k], ResourcePolicy::sandbox_default(256));
            providers.push(svc);
        }
        let mut rng = Pcg32::new(7, 2);
        world.p2p.wire_random(3, &mut rng);
        for s in &providers {
            s.advertise(&mut world, Duration::from_secs(3600));
        }
        let ctl = TrianaController::new(ctl_peer, "bob");
        let bound = ctl
            .bind_service_pipeline(&mut world, &kinds, Selection::FirstHit, 8)
            .unwrap();
        assert_eq!(bound.len(), 4);
        for (i, peer) in bound.iter().enumerate() {
            assert_eq!(*peer, providers[i].peer, "stage {i} bound to wrong peer");
        }
    }

    #[test]
    fn missing_service_reports_its_name() {
        let (mut world, services) = volunteer_world(5);
        for s in &services {
            s.advertise(&mut world, Duration::from_secs(3600));
        }
        let ctl = TrianaController::new(services[0].peer, "carol");
        let err = ctl
            .bind_service_pipeline(&mut world, &["no-such-service"], Selection::FirstHit, 8)
            .unwrap_err();
        assert!(err.contains("no-such-service"));
    }

    #[test]
    fn fastest_cpu_selection_picks_the_fastest_provider() {
        let mut world = GridWorld::new(35, DiscoveryMode::Flooding);
        let (ctl_peer, _) = world.add_peer(HostSpec::lan_workstation());
        let mut mk = |ghz: f64| {
            let mut spec = HostSpec::lan_workstation();
            spec.cpu_ghz = ghz;
            let (p, _) = world.add_peer(spec);
            TrianaService::new(p, &["render"], ResourcePolicy::sandbox_default(512))
        };
        let slow = mk(1.0);
        let fast = mk(3.0);
        let mut rng = Pcg32::new(9, 4);
        world.p2p.wire_random(2, &mut rng);
        slow.advertise(&mut world, Duration::from_secs(3600));
        fast.advertise(&mut world, Duration::from_secs(3600));
        let ctl = TrianaController::new(ctl_peer, "dave");
        let q = ctl.discover(&mut world, QueryKind::ByService("render".into()), 8);
        ctl.drain(&mut world);
        assert_eq!(
            ctl.select(&world, q, Selection::FastestCpu),
            Some(fast.peer)
        );
    }

    #[test]
    fn service_meters_usage_per_account() {
        let (world, mut services) = volunteer_world(1);
        let alice = VirtualAccount("alice".into());
        let now = world.now();
        services[0].meter(&alice, now, Duration::from_secs(12), 1_000, 200, 5_000);
        services[0].meter(&alice, now, Duration::from_secs(8), 500, 100, 3_000);
        let totals = services[0].ledger.totals(&alice);
        assert_eq!(totals.jobs, 2);
        assert_eq!(totals.cpu, Duration::from_secs(20));
        assert_eq!(totals.instructions, 8_000);
    }
}
