//! Observability smoke scenario: one small, fully seeded run that touches
//! every instrumented subsystem — the local engine, the farm (with worker
//! churn and on-demand modules), P2P discovery, the TVM sandbox (including
//! a budget violation), and the XML dialect — all feeding a single shared
//! [`obs::Obs`] registry.
//!
//! The scenario is deterministic end to end: identical seeds produce a
//! byte-identical `snapshot_json()`. CI runs it via `repro --quick
//! --metrics-out <file>` and archives the snapshot, so a regression that
//! silently changes dispatch counts, discovery traffic, or sandbox
//! metering shows up as a diff in the artifact.

use netsim::avail::AvailabilityTrace;
use netsim::{HostSpec, Pcg32, SimTime};
use obs::Obs;
use p2p::advert::{AdvertBody, PeerAdvert};
use p2p::{Advertisement, DiscoveryMode, QueryKind};
use toolbox::standard_registry;
use transport::harness::{demo_module, run_sim, FarmSpec};
use transport::node::JobSpec as TransportJobSpec;
use transport::sim::SimNet;
use transport::{Endpoint, Transport, TransportEvent};
use triana_core::grid::farm::{run_farm, FarmConfig, FarmScheduler, JobSpec};
use triana_core::grid::{GridWorld, WorkerSetup};
use triana_core::unit::Params;
use triana_core::{run_graph_obs, EngineConfig, TaskGraph};
use trust::{GridTrustConfig, StragglerConfig};
use tvm::asm::assemble;
use tvm::SandboxPolicy;

const SEED: u64 = 0x5E11;

/// The Figure 1 signal chain used by the engine and XML stages.
fn figure1() -> TaskGraph {
    let reg = standard_registry();
    let mut g = TaskGraph::new("Smoke");
    let wave = g.add_task(&reg, "Wave", "wave", Params::new()).unwrap();
    let noise = g
        .add_task(&reg, "GaussianNoise", "noise", Params::new())
        .unwrap();
    let ps = g
        .add_task(&reg, "PowerSpectrum", "pspec", Params::new())
        .unwrap();
    let acc = g
        .add_task(&reg, "AccumStat", "accum", Params::new())
        .unwrap();
    g.connect(wave, 0, noise, 0).unwrap();
    g.connect(noise, 0, ps, 0).unwrap();
    g.connect(ps, 0, acc, 0).unwrap();
    g
}

fn engine_stage(observer: &Obs) {
    let reg = standard_registry();
    // XML round-trip first so the parse feeds the same registry.
    let g = figure1();
    let xml = taskgraph_xml::to_xml(&g);
    let parsed = taskgraph_xml::from_xml_obs(&xml, observer).expect("round-trip");
    // Sequential so the queue-depth histogram is populated (it is
    // interleaving-dependent and therefore skipped in threaded mode).
    run_graph_obs(
        &parsed,
        &reg,
        &EngineConfig {
            iterations: 3,
            threaded: false,
        },
        observer,
    )
    .expect("engine run");
}

fn farm_stage(observer: &Obs) {
    let mut world = GridWorld::new(SEED, DiscoveryMode::Flooding);
    world.net.set_obs(observer.clone());
    let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
    let mut farm = FarmScheduler::new(
        &world,
        ctrl,
        FarmConfig {
            trust: Some(GridTrustConfig {
                straggler: Some(StragglerConfig::default()),
                ..GridTrustConfig::default()
            }),
            ..FarmConfig::default()
        },
    );
    farm.set_obs(observer.clone());
    let horizon = SimTime::from_secs(1_000_000);
    for i in 0..4u64 {
        let mut spec = HostSpec::lan_workstation();
        // Worker 3 is a braggart straggler: twice the advertised clock,
        // a tenth of it delivered — it attracts the big job below and
        // forces a speculative re-dispatch.
        if i == 3 {
            spec.cpu_ghz *= 2.0;
        }
        let (peer, _) = world.add_peer(spec.clone());
        // Worker 2 goes down mid-run, forcing a migration/retry.
        let trace = if i == 2 {
            AvailabilityTrace::from_intervals(vec![(SimTime::ZERO, SimTime::from_secs(4))], horizon)
        } else {
            AvailabilityTrace::always(horizon)
        };
        let wid = farm.add_worker(
            &mut world,
            WorkerSetup {
                peer,
                spec,
                trace,
                cache_bytes: 64 << 10,
            },
        );
        if i == 3 {
            farm.set_worker_efficiency(wid, 0.1);
        }
    }
    let modules = crate::e08_code_on_demand::module_set(3);
    for (k, b) in &modules {
        farm.library.publish(k.clone(), b.clone());
    }
    // The big job lands on the braggart (fastest advert, everyone idle)
    // and straggles until the speculative duplicate beats it.
    farm.submit(
        &mut world,
        JobSpec {
            work_gigacycles: 40.0,
            input_bytes: 10_000,
            output_bytes: 2_000,
            module: None,
        },
    );
    let mut rng = Pcg32::new(SEED, 0xFA);
    for _ in 0..12 {
        let which = rng.below(modules.len() as u64) as usize;
        farm.submit(
            &mut world,
            JobSpec {
                work_gigacycles: 2.0,
                input_bytes: 10_000,
                output_bytes: 2_000,
                module: Some(modules[which].0.clone()),
            },
        );
    }
    run_farm(&mut world, &mut farm);
    assert!(farm.all_done(), "smoke farm must drain");
}

fn discovery_stage(observer: &Obs) {
    let mut sim: netsim::Sim<p2p::P2pEvent> = netsim::Sim::new(SEED);
    let mut net = netsim::Network::new();
    net.set_obs(observer.clone());
    let mut overlay = p2p::P2p::new(DiscoveryMode::Rendezvous);
    overlay.set_obs(observer.clone());
    let mut rng = Pcg32::new(SEED, 0xD1);
    let peers: Vec<_> = (0..24)
        .map(|_| {
            let h = net.add_host(HostSpec::sample_consumer(&mut rng));
            overlay.add_peer(h)
        })
        .collect();
    overlay.wire_random(4, &mut rng);
    overlay.assign_rendezvous(5, &mut rng);
    let expires = SimTime::from_secs(24 * 3600);
    for &peer in peers.iter().take(3) {
        let spec = net.spec(overlay.host_of(peer)).clone();
        let ad = Advertisement {
            body: AdvertBody::Peer(PeerAdvert {
                peer,
                cpu_ghz: spec.cpu_ghz,
                free_ram_mib: spec.ram_mib,
                services: vec!["triana".into()],
            }),
            expires,
        };
        overlay.publish(&mut sim, &mut net, peer, ad);
    }
    while let Some(ev) = sim.step() {
        overlay.handle(&mut sim, &mut net, ev);
    }
    overlay.query(
        &mut sim,
        &mut net,
        peers[10],
        QueryKind::ByService("triana".into()),
        4,
    );
    while let Some(ev) = sim.step() {
        overlay.handle(&mut sim, &mut net, ev);
    }
}

fn tvm_stage(observer: &Obs) {
    let doubler = assemble(
        ".module Doubler 1 0 1\n.func main 0\n push 21\n push 2\n mul\n outpush 0\n halt\n",
    )
    .expect("assembles");
    // Steady-state fast path: admit the blob to a module cache (which
    // verifies and prepares exactly once), then execute the prepared form
    // through a reusable context. The metering is identical to the legacy
    // per-call-verify path — same `ExecStats`, same error taxonomy — so
    // the pre-existing `tvm.*` counters keep their historical values.
    let mut cache = triana_core::modules::ModuleCache::new(64 << 10);
    cache.set_obs(observer.clone());
    let key = triana_core::ModuleKey::new("Doubler", 1);
    cache.insert(key.clone(), doubler.to_blob());
    let prepared = cache.get_prepared(&key).expect("prepared at admission");
    let mut ctx = tvm::ExecContext::new();
    let (out, _) = prepared
        .execute_obs(&[], &SandboxPolicy::standard(), &mut ctx, observer)
        .expect("doubler runs");
    assert_eq!(out[0], vec![42.0]);
    // A re-lookup is a prepared-cache hit; an absent key is a miss.
    assert!(cache.get_prepared(&key).is_some());
    assert!(cache
        .get_prepared(&triana_core::ModuleKey::new("Absent", 1))
        .is_none());
    // A hostile spin loop trips the instruction budget — the prepared path
    // reports the same violation the legacy interpreter did.
    let spin = assemble(".module Spin 1 0 0\n.func main 0\nloop:\n jmp loop\n").expect("assembles");
    let tight = SandboxPolicy {
        max_instructions: 500,
        ..SandboxPolicy::standard()
    };
    let spin_prepared = tvm::PreparedModule::prepare(&spin).expect("verifies");
    let err = spin_prepared
        .execute_obs(&[], &tight, &mut ctx, observer)
        .expect_err("budget must trip");
    assert_eq!(err, tvm::TvmError::BudgetExceeded);

    // Tier-2 segment: a countdown loop admits as tier 2 under the cache's
    // Auto policy (`tvm.tier2_regions` moves at admission), runs four
    // times through one context, and a budget two short of the
    // exact run cost forces one register-loop fallback — the precondition
    // fails inside the final iteration, so `tvm.tier2_fallback_exits`
    // lands in the snapshot with a deterministic nonzero value.
    let looper = assemble(
        ".module SmokeLoop 1 0 1\n.func main 1\n push 5\n store 0\nloop:\n load 0\n outpush 0\n \
         load 0\n push 1\n sub\n store 0\n load 0\n jnz loop\n halt\n",
    )
    .expect("assembles");
    let lkey = triana_core::ModuleKey::new("SmokeLoop", 1);
    cache.insert(lkey.clone(), looper.to_blob());
    let tier = cache.get_prepared(&lkey).expect("admitted");
    assert_eq!(tier.tier_name(), "tier2");
    assert_eq!(tier.regions_translated(), 1);
    let (out, stats) = tier
        .execute_obs(&[], &SandboxPolicy::standard(), &mut ctx, observer)
        .expect("loop runs");
    assert_eq!(out[0], vec![5.0, 4.0, 3.0, 2.0, 1.0]);
    for _ in 0..3 {
        tier.execute_obs(&[], &SandboxPolicy::standard(), &mut ctx, observer)
            .expect("loop runs again in the same context");
    }
    let short = SandboxPolicy {
        max_instructions: stats.instructions - 2,
        ..SandboxPolicy::standard()
    };
    let err = tier
        .execute_obs(&[], &short, &mut ctx, observer)
        .expect_err("two instructions short must trip the budget");
    assert_eq!(err, tvm::TvmError::BudgetExceeded);
}

fn transport_stage(observer: &Obs) {
    // Link-fault segment: a frame sent while the peer is offline is lost,
    // retransmitted on the backoff timer, and delivered once the peer
    // returns — moving `transport.retransmits` deterministically.
    let net = SimNet::new(SEED ^ 0x7A);
    net.set_obs(observer.clone());
    let mut a = net.add_endpoint(Endpoint(1), HostSpec::reference_pc());
    let mut b = net.add_endpoint(Endpoint(2), HostSpec::reference_pc());
    net.set_online(Endpoint(2), false);
    a.send(Endpoint(2), vec![42]).expect("peer registered");
    net.set_online(Endpoint(2), true);
    while net.step() {}
    let mut evs = Vec::new();
    b.poll(&mut evs);
    assert!(
        evs.contains(&TransportEvent::Delivered {
            from: Endpoint(1),
            payload: vec![42],
        }),
        "retransmitted frame must arrive once the peer is back"
    );
    assert!(net.counters(Endpoint(1)).retransmits > 0);
    // Fold the frame-payload arena counters into the snapshot: the retry
    // recycled the first frame's slot, so `netsim.payload_reuses` moves.
    net.publish_arena_stats();

    // Durable-restart segment: the same farm runs cold then warm over one
    // set of durable store directories, so `transport.recovered_chunks`
    // lands in the snapshot with a deterministic nonzero value. The
    // directory paths are process-unique scratch space and never enter
    // the snapshot; they are removed before and after so repeated
    // invocations see an identical cold start.
    let dirs: Vec<std::path::PathBuf> = (0..2)
        .map(|i| {
            std::env::temp_dir().join(format!("triana-smoke-transport-{}-{i}", std::process::id()))
        })
        .collect();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let (module, blob) = demo_module("smoke_scale", 1, 300);
    let spec = FarmSpec {
        chunk_bytes: 256,
        cache_capacity: 1 << 20,
        n_workers: 2,
        modules: vec![(module.clone(), blob)],
        jobs: (0..4)
            .map(|i| TransportJobSpec {
                module: module.clone(),
                input: vec![i as f64 + 1.0],
            })
            .collect(),
        durable_dirs: Some(dirs.clone()),
    };
    let cold = run_sim(&spec, SEED, observer.clone());
    assert_eq!(cold.results.len(), 4, "transport smoke farm must drain");
    assert_eq!(cold.recovered_chunks, 0, "cold start recovers nothing");
    let warm = run_sim(&spec, SEED, observer.clone());
    assert_eq!(warm.results, cold.results);
    assert!(
        warm.recovered_chunks > 0,
        "warm restart must reuse the durable cache"
    );
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn wire_stage(observer: &Obs) {
    // Pooled wire-codec segment: encode a deterministic message corpus
    // through the thread-local scratch pool and decode it back. The pool
    // is fully reset first so repeated runs on one thread count identical
    // cold-start misses; the rest of the loop is all hits, giving the
    // snapshot stable nonzero values for both counters.
    p2p::wire::buf_pool_reset();
    let expires = SimTime::from_secs(3600);
    let mut rng = Pcg32::new(SEED, 0x3B);
    for round in 0..32u64 {
        let msgs = [
            p2p::Message::Query {
                id: p2p::QueryId(round),
                origin: p2p::PeerId(1),
                prev_hop: p2p::PeerId(2),
                ttl: 4,
                kind: QueryKind::ByService("triana".into()),
            },
            p2p::Message::Publish {
                advert: Advertisement {
                    body: AdvertBody::Peer(PeerAdvert {
                        peer: p2p::PeerId(rng.below(64) as u32),
                        cpu_ghz: 2.5,
                        free_ram_mib: 512,
                        services: vec!["triana".into(), "data-access".into()],
                    }),
                    expires,
                },
            },
            p2p::Message::FindNodeReply {
                lid: p2p::LookupId(round),
                from: p2p::PeerId(3),
                closer: (0..8).map(|i| (rng.next_u64(), p2p::PeerId(i))).collect(),
            },
        ];
        for msg in &msgs {
            let decoded = p2p::wire::with_buf(|buf| {
                msg.encode_into(buf);
                p2p::Message::decode(buf).expect("round-trip")
            });
            assert_eq!(&decoded, msg);
        }
    }
    let stats = p2p::wire::buf_pool_stats();
    assert!(stats.hits > stats.misses, "steady state must be pool hits");
    observer.add("wire.buf_pool_hits", stats.hits);
    observer.add("wire.buf_pool_misses", stats.misses);
}

/// Run the full smoke scenario into `observer` (which must be enabled for
/// the snapshot to exist, but a disabled handle still exercises every
/// subsystem).
pub fn run(observer: &Obs) {
    engine_stage(observer);
    farm_stage(observer);
    discovery_stage(observer);
    tvm_stage(observer);
    transport_stage(observer);
    wire_stage(observer);
}

/// Human-readable report over the counters the scenario is expected to move.
pub fn report() -> String {
    let observer = Obs::enabled();
    run(&observer);
    report_with(&observer)
}

/// Render the report from an observer that [`run`] already populated.
pub fn report_with(observer: &Obs) -> String {
    let reg = observer.registry().expect("enabled");
    let mut out = String::from("## Observability smoke (seeded, deterministic)\n\n");
    for key in [
        "engine.runs",
        "engine.tokens_emitted",
        "farm.dispatches",
        "farm.completions",
        "farm.retries",
        "farm.module_cache_hits",
        "farm.module_cache_misses",
        "trust.straggler_checks",
        "trust.speculative_dispatches",
        "trust.speculative_wins",
        "trust.abandons",
        "p2p.messages_sent",
        "p2p.query_hits",
        "tvm.executions",
        "tvm.prepares",
        "tvm.prepared_cache_hits",
        "tvm.prepared_cache_misses",
        "tvm.tier2_regions",
        "tvm.tier2_fallback_exits",
        "tvm.violations.budget",
        "transport.frames_sent",
        "transport.frames_recv",
        "transport.retransmits",
        "transport.acks",
        "transport.recovered_chunks",
        "netsim.payload_allocs",
        "netsim.payload_reuses",
        "wire.buf_pool_hits",
        "wire.buf_pool_misses",
        "net.transfers",
        "xml.parses",
    ] {
        out.push_str(&format!("{key:<28} {}\n", reg.counter_value(key)));
    }
    out.push_str(&format!(
        "events recorded              {}\n",
        reg.event_count()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_moves_every_subsystem_counter() {
        let observer = Obs::enabled();
        run(&observer);
        let reg = observer.registry().unwrap();
        for key in [
            "engine.runs",
            "engine.tokens_emitted",
            "farm.dispatches",
            "farm.completions",
            "farm.module_cache_misses",
            "trust.straggler_checks",
            "trust.speculative_dispatches",
            "trust.speculative_wins",
            "trust.abandons",
            "p2p.messages_sent",
            "p2p.advert_cache_inserts",
            "tvm.executions",
            "tvm.prepares",
            "tvm.prepared_cache_hits",
            "tvm.prepared_cache_misses",
            "tvm.tier2_regions",
            "tvm.tier2_fallback_exits",
            "tvm.violations.budget",
            "transport.frames_sent",
            "transport.frames_recv",
            "transport.retransmits",
            "transport.acks",
            "transport.recovered_chunks",
            "netsim.payload_allocs",
            "netsim.payload_reuses",
            "wire.buf_pool_hits",
            "wire.buf_pool_misses",
            "net.transfers",
            "xml.parses",
        ] {
            assert!(reg.counter_value(key) > 0, "counter {key} never moved");
        }
        assert!(reg.event_count() > 0, "events must be recorded");
        // The prepare-cost histogram is deterministic (modeled virtual
        // time, not wall clock) and must land in the snapshot.
        assert!(
            observer
                .snapshot_json()
                .unwrap()
                .contains("\"tvm.prepare_us\""),
            "prepare histogram missing from deterministic snapshot"
        );
    }

    #[test]
    fn smoke_snapshot_is_deterministic() {
        let a = Obs::enabled();
        run(&a);
        let b = Obs::enabled();
        run(&b);
        assert_eq!(a.snapshot_json().unwrap(), b.snapshot_json().unwrap());
    }
}
