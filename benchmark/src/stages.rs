//! The stage walk: the median time of at least 1000 direct calls into one
//! layer each, on fixtures shaped like the workloads'. It answers "how
//! long is one call" where the spans answer "what share of a round". Every
//! traced run ends with it, because the driver runs only the six workloads;
//! `--workload stages` runs it on its own.

use crate::kernels::{self, Kernel};
use crate::report::{Metrics, RunResult};
use crate::stats::median;
use netsim::{Duration, EventQueue, HostSpec, Network, Pcg32, SimTime};
use obs::Obs;
use overlay::{Contact, NodeId, RoutingTable};
use p2p::advert::{AdvertBody, PeerAdvert};
use p2p::{Advertisement, LookupId, Message, PeerId};
use std::hint::black_box;
use std::time::Instant;
use store::{BlobId, ChunkStore};
use transport::proto::GridMsg;
use transport::socket::SocketTransport;
use transport::{ChanOut, ChannelConfig, Endpoint, Frame, PeerChannel, Transport};
use triana_core::{ModuleCache, ModuleKey};
use trust::{Candidate, PolicyHandle, ProfileRegistry, TrustConfig};
use tvm::{ExecContext, SandboxPolicy, TierPolicy};

/// Timed batches per stage, and the least number of calls they cover.
const BATCHES: usize = 25;
const MIN_CALLS: usize = 1_000;

/// Median nanoseconds per call of `call`, over [`BATCHES`] timed batches
/// of `per_batch` calls each after one untimed batch.
fn ns_per_call(per_batch: usize, mut call: impl FnMut()) -> f64 {
    debug_assert!(BATCHES * per_batch >= MIN_CALLS);
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..per_batch {
            call();
        }
        t.elapsed().as_nanos() as f64 / per_batch as f64
    };
    batch();
    let mut samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&mut samples)
}

fn netsim_stages(out: &mut Metrics) {
    // Steady-state churn (the hold model): pop the earliest event, push
    // one a random delay later, over a standing backlog.
    let mut rng = Pcg32::new(0x51A6E, 1);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..1024 {
        queue.push(SimTime(rng.below(1_000)), i);
    }
    out.set(
        "netsim.queue_ns_per_event",
        ns_per_call(4096, || {
            let (at, ev) = queue.pop().expect("backlog never empties");
            queue.push(
                SimTime(at.as_micros() + 1 + rng.below(1_000)),
                black_box(ev),
            );
        }),
    );

    let mut net = Network::new();
    let hosts: Vec<_> = (0..64)
        .map(|_| net.add_host(HostSpec::sample_consumer(&mut rng)))
        .collect();
    let mut i = 0;
    out.set(
        "netsim.transfer_ns",
        ns_per_call(256, || {
            i += 1;
            let (src, dst) = (hosts[i % 64], hosts[(i * 7 + 1) % 64]);
            black_box(
                net.transfer(SimTime(i as u64 * 1_000), src, dst, 1_200)
                    .ok(),
            );
        }),
    );
}

fn p2p_stages(out: &mut Metrics) {
    // The reply a routed lookup step carries: k closer contacts, one record.
    let msg = Message::FindValueReply {
        lid: LookupId(7),
        from: PeerId(11),
        closer: (0..8)
            .map(|i| (0x9E37 * (i + 1), PeerId(i as u32)))
            .collect(),
        providers: vec![Advertisement {
            body: AdvertBody::Peer(PeerAdvert {
                peer: PeerId(3),
                cpu_ghz: 2.0,
                free_ram_mib: 512,
                services: vec!["triana".into()],
            }),
            expires: SimTime::from_secs(86_400),
        }],
    };
    let mut buf = Vec::new();
    out.set(
        "p2p.wire_encode_ns",
        ns_per_call(512, || {
            buf.clear();
            msg.encode_into(&mut buf);
            black_box(&buf);
        }),
    );
    out.set(
        "p2p.wire_decode_ns",
        ns_per_call(512, || {
            black_box(Message::decode(&buf).expect("own encoding decodes"));
        }),
    );
}

fn overlay_stages(out: &mut Metrics) {
    let mut rng = Pcg32::new(0x0E12, 2);
    let contacts: Vec<Contact> = (0..4096u32)
        .map(|peer| Contact {
            id: NodeId(rng.next_u64()),
            peer,
        })
        .collect();
    let mut i = 0;
    let mut table = RoutingTable::new(NodeId(rng.next_u64()), 8);
    out.set(
        "overlay.insert_ns",
        ns_per_call(512, || {
            i += 1;
            if i % 4096 == 0 {
                table = RoutingTable::new(NodeId(i as u64), 8);
            }
            black_box(table.insert(contacts[i % 4096]));
        }),
    );
    let mut scratch = Vec::new();
    out.set(
        "overlay.closest_ns",
        ns_per_call(512, || {
            i += 1;
            table.closest_into(contacts[i % 4096].id, 8, &mut scratch);
            black_box(&scratch);
        }),
    );
}

fn store_stages(out: &mut Metrics) {
    let (_, blob) = kernels::module(Kernel::Sph, 0, 32 * 1024);
    let id = BlobId::of_blob(&blob);
    let len = blob.bytes.len() as u64;
    let layout = store::ChunkLayout::new(len, 1024);
    let mut store = ChunkStore::new(1024);
    let per_blob = ns_per_call(MIN_CALLS / BATCHES, || {
        store = ChunkStore::new(1024);
        for c in 0..layout.count() {
            let bytes = layout.slice(&blob.bytes, c).to_vec();
            black_box(store.insert_chunk(id, len, c, bytes));
        }
    });
    out.set(
        "store.insert_chunk_ns",
        per_blob / f64::from(layout.count()),
    );
    let per_assemble = ns_per_call(MIN_CALLS / BATCHES, || {
        black_box(store.assemble(id).expect("all chunks present"));
    });
    out.set(
        "store.assemble_ns_per_kib",
        per_assemble / (len as f64 / 1024.0),
    );
}

fn tvm_stages(out: &mut Metrics) {
    let mut rng = Pcg32::new(0x7F3, 3);
    let policy = SandboxPolicy::standard();
    let mut ctx = ExecContext::new();
    let (info, bulk) = kernels::module(Kernel::Sph, 0, 32 * 1024);
    out.set(
        "tvm.prepare_us",
        ns_per_call(MIN_CALLS / BATCHES, || {
            black_box(tvm::tier::admit(&bulk, TierPolicy::Auto).expect("kernel admits"));
        }) / 1e3,
    );
    for (metric, kernel, len) in [
        ("tvm.exec_ns_per_instr.sph", Kernel::Sph, 4096),
        ("tvm.exec_ns_per_instr.lagged", Kernel::Lagged, 1024),
    ] {
        let (_, blob) = kernels::module(kernel, 0, 0);
        let tier = tvm::tier::admit(&blob, TierPolicy::Auto).expect("kernel admits");
        let input = kernels::input(&mut rng, len);
        let (_, stats) = tier
            .execute(&[&input], &policy, &mut ctx)
            .expect("kernel runs");
        let per_run = ns_per_call(MIN_CALLS / BATCHES, || {
            black_box(tier.execute(&[&input], &policy, &mut ctx).ok());
        });
        out.set(metric, per_run / stats.instructions as f64);
    }
    let mut cache = ModuleCache::new(1 << 20);
    let key = ModuleKey::new(&info.name, info.version);
    cache.insert(key.clone(), bulk);
    out.set(
        "core.modules.get_prepared_ns",
        ns_per_call(512, || {
            black_box(cache.get_prepared(&key));
        }),
    );
}

fn transport_stages(out: &mut Metrics) {
    let mut rng = Pcg32::new(0x7A, 4);
    let (info, _) = kernels::module(Kernel::Sph, 0, 0);
    let (a, b) = (Endpoint(1), Endpoint(2));
    let sizes = [
        (
            64,
            [
                "transport.proto.encode_ns_512",
                "transport.proto.decode_ns_512",
                "transport.frame.encode_ns_512",
                "transport.frame.decode_ns_512",
            ],
        ),
        (
            4096,
            [
                "transport.proto.encode_ns_32k",
                "transport.proto.decode_ns_32k",
                "transport.frame.encode_ns_32k",
                "transport.frame.decode_ns_32k",
            ],
        ),
    ];
    for (f64s, [proto_encode, proto_decode, frame_encode, frame_decode]) in sizes {
        let msg = GridMsg::Dispatch {
            job: 17,
            module: info.clone(),
            input: kernels::input(&mut rng, f64s),
        };
        let payload = msg.encode();
        let frame = Frame::data(a, b, 9, payload.clone());
        let wire = frame.encode();
        let mut buf = Vec::new();
        out.set(
            proto_encode,
            ns_per_call(64, || {
                black_box(msg.encode());
            }),
        );
        out.set(
            proto_decode,
            ns_per_call(64, || {
                black_box(GridMsg::decode(&payload).expect("own encoding decodes"));
            }),
        );
        out.set(
            frame_encode,
            ns_per_call(64, || {
                buf.clear();
                frame.encode_into(&mut buf);
                black_box(&buf);
            }),
        );
        out.set(
            frame_decode,
            ns_per_call(64, || {
                black_box(Frame::decode(&wire).expect("own encoding decodes"));
            }),
        );
    }

    // One reliable delivery: sequence and send, receive and ack, clear.
    let cfg = ChannelConfig::sim_default();
    let mut tx = PeerChannel::new(a, b, cfg, SimTime::ZERO);
    let mut rx = PeerChannel::new(b, a, cfg, SimTime::ZERO);
    let payload = vec![0xA5u8; 512];
    let mut outs = Vec::new();
    out.set(
        "transport.reliab.cycle_ns",
        ns_per_call(256, || {
            let frame = tx.send_data(SimTime::ZERO, payload.clone());
            rx.on_frame(SimTime::ZERO, frame, &mut outs);
            for o in outs.drain(..) {
                match o {
                    ChanOut::Transmit(ack) => tx.on_frame(SimTime::ZERO, ack, &mut Vec::new()),
                    other => drop(black_box(other)),
                }
            }
        }),
    );
}

/// Round trip of a 512-byte payload between two loopback sockets, both
/// polled from this thread without sleeping.
fn socket_rtt(out: &mut Metrics) {
    let mut a = SocketTransport::bind_loopback(Endpoint(1)).expect("bind loopback socket");
    let mut b = SocketTransport::bind_loopback(Endpoint(2)).expect("bind loopback socket");
    a.register_peer(Endpoint(2), b.local_addr().expect("socket address"));
    b.register_peer(Endpoint(1), a.local_addr().expect("socket address"));
    let payload = vec![0x5Au8; 512];
    let mut events = Vec::new();
    let mut deliver = |from: &mut SocketTransport, to: &mut SocketTransport| {
        from.send(to.local(), payload.clone())
            .expect("loopback send");
        let start = Instant::now();
        loop {
            events.clear();
            to.poll(&mut events);
            from.poll(&mut Vec::new());
            if !events.is_empty() {
                break;
            }
            assert!(start.elapsed().as_secs() < 5, "loopback datagram lost");
        }
    };
    out.set(
        "transport.socket.rtt_us",
        ns_per_call(MIN_CALLS / BATCHES, || {
            deliver(&mut a, &mut b);
            deliver(&mut b, &mut a);
        }) / 1e3,
    );
}

fn trust_and_obs_stages(out: &mut Metrics) {
    let mut rng = Pcg32::new(0x7257, 5);
    let mut profiles = ProfileRegistry::new(TrustConfig::default());
    let candidates: Vec<Candidate> = (0..96)
        .map(|worker| {
            let cpu_ghz = rng.range_f64(0.5, 3.0);
            profiles.register(worker, cpu_ghz, true);
            for _ in 0..rng.below(6) {
                profiles.record_completion(worker, 10.0, Duration::from_secs_f64(10.0 / cpu_ghz));
            }
            Candidate { worker, cpu_ghz }
        })
        .collect();
    let policy = PolicyHandle::reliability_weighted();
    out.set(
        "trust.choose_ns_96",
        ns_per_call(64, || {
            black_box(policy.choose(12.0, &candidates, &profiles));
        }),
    );

    // A registry as full as a farm's: the cost of a bump is a map lookup.
    let obs = Obs::enabled();
    let names: Vec<String> = (0..48)
        .map(|i| format!("layer{}.counter{i}", i % 6))
        .collect();
    for n in &names {
        obs.incr(n);
        obs.observe(n, 1);
    }
    let mut i = 0;
    out.set(
        "obs.incr_ns",
        ns_per_call(512, || {
            i += 1;
            obs.incr(&names[i % 48]);
        }),
    );
    out.set(
        "obs.observe_ns",
        ns_per_call(512, || {
            i += 1;
            obs.observe(&names[i % 48], i as u64);
        }),
    );
}

/// Every stage, in about a second.
pub fn walk(out: &mut Metrics) {
    netsim_stages(out);
    p2p_stages(out);
    overlay_stages(out);
    store_stages(out);
    tvm_stages(out);
    transport_stages(out);
    socket_rtt(out);
    trust_and_obs_stages(out);
}

/// `--workload stages`: the walk on its own.
pub fn run() -> RunResult {
    let mut metrics = Metrics::default();
    walk(&mut metrics);
    RunResult {
        correct: true,
        attempted: metrics.len() as u64,
        failed: 0,
        metrics,
    }
}
