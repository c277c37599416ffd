//! Dispatch-equivalence property: random farms through the slot-indexed
//! dispatcher, in lock step with the naive `pending × workers` scan.
//!
//! Under `cfg(test)` every pass of `FarmScheduler::dispatch` asserts that
//! the pairing it is about to assign is the one `naive_pick` finds on the
//! same state, and every straggler check asserts its candidate list against
//! `naive_candidates`. Both runs share all state up to each decision, so
//! equal decisions at every step mean equal `(job, worker)` assignment
//! sequences and equal `FarmStats`. This module supplies the farms: mixed
//! capacities, churn traces, conflict sets, blacklisted workers, all three
//! policies, severed routes with `kick`, speculation and checkpoints. After
//! every event it also recounts the scheduler's indexes.

use netsim::avail::{AvailabilityModel, AvailabilityTrace};
use netsim::{Duration, HostId, HostSpec, Pcg32, SimTime};
use obs::Obs;
use p2p::{DiscoveryMode, Incoming};
use proptest::prelude::*;
use trust::{GridTrustConfig, PolicyHandle, StragglerConfig};

use super::farm::{FarmConfig, FarmScheduler, FarmStats, JobSpec, SwarmConfig};
use super::{GridEvent, GridWorld, JobId, WorkerId, WorkerSetup};
use crate::checkpoint::CheckpointPolicy;
use crate::modules::ModuleKey;

const HORIZON_S: u64 = 2_000;

/// What a case exercised, so the test can insist the generator reaches the
/// paths it exists for.
#[derive(Default)]
struct Coverage {
    speculated: bool,
    /// A speculative duplicate's result came home first.
    spec_won: bool,
    /// The primary's did, and the duplicate was abandoned.
    spec_lost: bool,
    /// A duplicate's worker vanished under it.
    spec_died: bool,
    /// An assignment failed on a severed route and went back to the queue.
    bounced: bool,
    /// A worker vanished with jobs on it.
    migrated: bool,
    blacklisted: bool,
}

fn random_farm(seed: u64, policy: u8, swarm: bool, checkpoint: bool) -> (FarmStats, Coverage) {
    let mut rng = Pcg32::new(seed, 0xD15);
    let mut world = GridWorld::new(seed, DiscoveryMode::Flooding);
    let (ctrl, ctrl_host) = world.add_peer(HostSpec::lan_workstation());
    let policy = match policy {
        0 => PolicyHandle::first_idle(),
        1 => PolicyHandle::fastest_profiled(),
        _ => PolicyHandle::reliability_weighted(),
    };
    let cfg = FarmConfig {
        checkpoint: checkpoint.then(|| CheckpointPolicy::every(Duration::from_secs(5), 2_000)),
        swarm: swarm.then(|| SwarmConfig {
            chunk_bytes: 256,
            ..SwarmConfig::default()
        }),
        trust: Some(GridTrustConfig {
            // Fire early, so honest-but-slow workers get duplicated too.
            straggler: Some(StragglerConfig {
                factor: 1.2,
                min_runtime: Duration::from_secs(2),
            }),
            ..GridTrustConfig::adaptive().with_policy(policy)
        }),
    };
    let mut farm = FarmScheduler::new(&world, ctrl, cfg);
    let obs = Obs::enabled();
    farm.set_obs(obs.clone());
    let horizon = SimTime::from_secs(HORIZON_S);
    let churn = AvailabilityModel::Exponential {
        mean_up: Duration::from_secs(60),
        mean_down: Duration::from_secs(20),
    };
    let n_workers = 2 + rng.below(7) as usize;
    let mut hosts: Vec<HostId> = Vec::new();
    for i in 0..n_workers {
        let spec = HostSpec::sample_consumer(&mut rng);
        let (peer, host) = world.add_peer(spec.clone());
        hosts.push(host);
        // Worker 0 never leaves, so most farms can finish.
        let trace = if i > 0 && rng.below(2) == 0 {
            churn.trace(horizon, &mut rng)
        } else {
            AvailabilityTrace::always(horizon)
        };
        let wid = farm.add_worker_with_capacity(
            &mut world,
            WorkerSetup {
                peer,
                spec,
                trace,
                cache_bytes: 1 << 20,
            },
            1 + rng.below(3) as u32,
        );
        if rng.below(3) == 0 {
            // Advertises more than it delivers: straggler bait.
            farm.set_worker_efficiency(wid, 0.1 + 0.2 * rng.below(3) as f64);
        }
    }
    world.p2p.wire_random(3, &mut rng);
    let mut cov = Coverage::default();
    if n_workers > 2 && rng.below(2) == 0 {
        let bad = WorkerId(1 + rng.below(n_workers as u64 - 1) as u32);
        for _ in 0..6 {
            farm.record_vote(bad, false);
        }
        cov.blacklisted = farm.worker_blacklisted(bad);
    }
    let key = ModuleKey::new("Render", 1);
    let blob = tvm::asm::assemble(".module Render 1 0 0\n.func main 0\n push 1\n pop\n halt\n")
        .expect("valid module")
        .to_blob();
    farm.library.publish(key.clone(), blob);

    let spec = |rng: &mut Pcg32| JobSpec {
        work_gigacycles: rng.range_f64(5.0, 60.0),
        input_bytes: 20_000,
        output_bytes: 4_000,
        module: (rng.below(2) == 0).then(|| key.clone()),
    };
    // A late wave arrives while the first is in flight.
    farm.chunk_spec = Some(spec(&mut rng));
    farm.schedule_chunks(&mut world.sim, Duration::from_secs(7), 1 + rng.below(6));
    let n_jobs = 6 + rng.below(25);
    let mut replicas: Vec<JobId> = Vec::new();
    for _ in 0..n_jobs {
        // Replica groups of up to three: each copy conflicts with its
        // siblings and must land on a distinct worker.
        if replicas.len() == 3 || rng.below(3) > 0 {
            replicas.clear();
        }
        let s = spec(&mut rng);
        let id = farm.submit_with_conflicts(&mut world, s, replicas.clone());
        replicas.push(id);
    }

    // Twice mid-run the route to one worker is severed, a dispatch pass
    // runs against the severed route (assignments to it bounce), and the
    // route heals with a kick.
    let mut cuts = [40 + rng.below(200), 300 + rng.below(400)].into_iter();
    let mut next_cut = cuts.next();
    let mut healing: Option<(u64, HostId)> = None;
    let mut events = 0u64;
    while let Some(ev) = world.sim.step() {
        events += 1;
        match ev {
            GridEvent::P2p(pe) => {
                for inc in world.p2p.handle(&mut world.sim, &mut world.net, pe) {
                    if let Incoming::Orch {
                        to,
                        seq,
                        count,
                        sync,
                    } = inc
                    {
                        farm.orch_deliver(to, seq, count, sync);
                    }
                }
            }
            other => {
                if let GridEvent::WorkerDown(wid) = other {
                    cov.spec_died |= farm.worker_is_up(wid) && farm.hosts_a_backup(wid);
                }
                farm.handle(&mut world, other);
            }
        }
        if next_cut == Some(events) {
            let host = hosts[rng.below(hosts.len() as u64) as usize];
            world.net.set_link_cut(ctrl_host, host, true);
            farm.kick(&mut world);
            healing = Some((events + 25, host));
            next_cut = cuts.next();
        }
        if let Some((at, host)) = healing {
            if at == events {
                world.net.set_link_cut(ctrl_host, host, false);
                farm.kick(&mut world);
                healing = None;
            }
        }
        assert!(
            farm.indexes_consistent(),
            "seed {seed}: index drift after event {events}"
        );
    }
    let stats = farm.stats();
    assert_eq!(
        farm.all_done(),
        stats.jobs_done == stats.jobs_total,
        "seed {seed}: done counter disagrees with the job table"
    );
    for w in 0..n_workers as u32 {
        assert!(farm.worker_active(WorkerId(w)) <= farm.worker_capacity(WorkerId(w)));
    }
    let reg = obs.registry().expect("enabled above");
    cov.speculated = stats.spec_dispatches > 0;
    cov.spec_won = stats.spec_wins > 0;
    cov.spec_lost = reg.counter_value("trust.speculative_losses") > 0;
    cov.bounced = reg.counter_value("farm.requeues") > 0;
    cov.migrated = reg.counter_value("farm.migrations") > 0;
    (stats, cov)
}

proptest! {
    #[test]
    fn indexed_dispatch_matches_naive_scan(
        seed in 0u64..1_000_000,
        policy in 0u8..3,
        swarm in any::<bool>(),
        checkpoint in any::<bool>(),
    ) {
        let (stats, _) = random_farm(seed, policy, swarm, checkpoint);
        prop_assert!(stats.jobs_done > 0, "seed {seed}: nothing completed: {stats:?}");
        // Same inputs, same farm: the indexes add no hidden state.
        prop_assert_eq!(stats, random_farm(seed, policy, swarm, checkpoint).0);
    }
}

/// The generator must keep reaching the paths the property is about; a
/// refactor that quietly stops producing them would leave it vacuous.
#[test]
fn generator_reaches_every_dispatch_path() {
    let mut seen = Coverage::default();
    for seed in 0..48 {
        let (_, c) = random_farm(seed, (seed % 3) as u8, seed % 2 == 0, seed % 4 < 2);
        seen.speculated |= c.speculated;
        seen.spec_won |= c.spec_won;
        seen.spec_lost |= c.spec_lost;
        seen.spec_died |= c.spec_died;
        seen.bounced |= c.bounced;
        seen.migrated |= c.migrated;
        seen.blacklisted |= c.blacklisted;
    }
    assert!(seen.speculated, "no case launched a speculative duplicate");
    assert!(seen.spec_won, "no speculative duplicate won its race");
    assert!(seen.spec_lost, "no speculative duplicate lost its race");
    assert!(seen.spec_died, "no speculative duplicate lost its worker");
    assert!(
        seen.bounced,
        "no case bounced an assignment off a cut route"
    );
    assert!(
        seen.migrated,
        "no case migrated a job off a vanished worker"
    );
    assert!(seen.blacklisted, "no case blacklisted a worker");
}
