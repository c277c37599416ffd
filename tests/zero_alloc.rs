//! The hot loops that claim to be allocation-free in steady state, checked
//! with a counting global allocator: the netsim pop/push churn, the TVM
//! exec loop on the three bench-shaped kernels and on a four-deep call
//! chain, pooled wire encoding, `obs` handle bumps and typed event records,
//! and flooded overlay deliveries through `P2p::handle` with an observer.
//!
//! Claims like these rot silently: one innocent `clone()` added two layers
//! down re-introduces a per-event allocation and nothing else fails. Each
//! test warms its loop up first, so one-time capacity growth (queue
//! buckets, exec-context buffers, the scratch pool) is excluded, then
//! demands exactly zero allocation events from the measured pass. CI also
//! runs this file under `--release`, the codegen that ships.
//!
//! Allocation *events* (alloc, alloc_zeroed, realloc) are counted per
//! thread, so the test harness's other threads never pollute a
//! measurement. Deallocations are not counted: a loop that allocates
//! nothing has nothing to free.

use consumer_grid::netsim::{EventQueue, HostSpec, Network, Pcg32, Sim, SimTime};
use consumer_grid::obs::{Event, Obs, DEFAULT_EVENT_CAPACITY};
use consumer_grid::p2p::{
    self, AdvertBody, Advertisement, BlobAdvert, DiscoveryMode, LookupId, Message, P2p, P2pEvent,
    PeerId, QueryId, QueryKind,
};
use consumer_grid::tvm::asm::assemble;
use consumer_grid::tvm::{ExecContext, PreparedModule, SandboxPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

/// System allocator plus a per-thread allocation-event counter.
struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter update performs
// no allocation (const-initialised TLS `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events `f` performs on this thread. Its result goes through
/// `black_box`, so the measured work cannot be optimised away.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let events = || ALLOC_EVENTS.with(Cell::get);
    let before = events();
    black_box(f());
    events() - before
}

#[test]
fn the_counter_sees_an_allocation() {
    assert!(allocations(|| Vec::<u8>::with_capacity(64)) >= 1);
}

/// A 256-deep backlog, then one push per pop.
#[test]
fn event_queue_churn_allocates_nothing() {
    let mut rng = Pcg32::new(0xE7E7, 0x51);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..256u64 {
        q.push(SimTime(rng.below(1_000)), i);
    }
    let mut churn = |n: u64| {
        let mut acc = 0u64;
        for i in 0..n {
            let (at, ev) = q.pop().expect("backlog never empties");
            acc = acc.wrapping_add(ev.wrapping_mul(at.as_micros() | 1));
            q.push(SimTime(at.as_micros() + 1 + rng.below(1_000)), i);
        }
        acc
    };
    black_box(churn(50_000));
    assert_eq!(allocations(|| churn(50_000)), 0, "queue pop/push allocated");
}

/// `kernel` from the TVM corpus through the exec loop, its `regions`
/// register regions included, with a reused context and the stats-only
/// entry point.
fn prepared_exec_allocations(kernel: &str, ports: usize, regions: usize) {
    let path = format!(
        "{}/crates/tvm/tests/corpus/{kernel}.tvm",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let prepared = PreparedModule::prepare(&assemble(&src).expect("kernel assembles"))
        .expect("kernel verifies");
    assert_eq!(prepared.regions_translated(), regions, "{kernel}");
    let mut rng = Pcg32::new(0x9E4F, 0x03);
    let inputs: Vec<Vec<f64>> = (0..ports)
        .map(|_| (0..4_096).map(|_| rng.range_f64(0.0, 2.0)).collect())
        .collect();
    let inputs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let policy = SandboxPolicy::standard();
    let mut ctx = ExecContext::new();
    prepared
        .run(&inputs, &policy, &mut ctx)
        .expect("warm-up runs");
    let n = allocations(|| {
        for _ in 0..8 {
            prepared.run(&inputs, &policy, &mut ctx).expect("runs");
        }
    });
    assert_eq!(n, 0, "{kernel}: exec loop allocated");
}

#[test]
fn sph_kernel_exec_allocates_nothing() {
    prepared_exec_allocations("sph_kernel", 1, 1);
}

#[test]
fn matched_filter_exec_allocates_nothing() {
    prepared_exec_allocations("matched_filter", 2, 1);
}

#[test]
fn lagged_autocorr_exec_allocates_nothing() {
    prepared_exec_allocations("lagged_autocorr", 1, 1);
}

/// `Call` and `Ret` four frames deep: callee locals come from the
/// context's arena, never a fresh `Vec`. Its countdown loop is no shape
/// tier 2 translates, so the whole run steps in stack form.
#[test]
fn deep_nested_calls_exec_allocates_nothing() {
    prepared_exec_allocations("deep_nested_calls", 1, 0);
}

/// A routing reply through the thread-local scratch pool.
#[test]
fn pooled_encode_allocates_nothing() {
    let msg = Message::FindNodeReply {
        lid: LookupId(7),
        from: PeerId(3),
        closer: (0..16u32)
            .map(|i| (u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15), PeerId(i)))
            .collect(),
    };
    let encode = || {
        p2p::wire::with_buf(|buf| {
            msg.encode_into(buf);
            black_box(buf.len())
        })
    };
    encode();
    let n = allocations(|| {
        for _ in 0..64 {
            encode();
        }
    });
    assert_eq!(n, 0, "pooled wire encode allocated");
}

/// Bumping a resolved counter or histogram handle.
#[test]
fn obs_handle_bumps_allocate_nothing() {
    let obs = Obs::enabled();
    let (c, h) = (obs.counter("hot"), obs.histogram("hot_lat"));
    let n = allocations(|| {
        for i in 0..100_000 {
            black_box(&c).incr();
            black_box(&h).observe(i);
        }
    });
    assert_eq!(n, 0, "handle bumps allocated");
    assert_eq!(obs.registry().unwrap().counter_value("hot"), 100_000);
}

/// Typed events recorded past the log's capacity: each is stored as it is
/// and displaces the oldest, so a full log neither allocates nor frees.
#[test]
fn typed_event_records_allocate_nothing() {
    let obs = Obs::enabled();
    let record = |n: u64| {
        for i in 0..n {
            let worker = (i % 96) as u32;
            obs.event(i, Event::FarmDispatch { job: i, worker });
            obs.event(
                i,
                Event::P2pQueryHit {
                    id: i,
                    provider: worker,
                },
            );
        }
    };
    record(DEFAULT_EVENT_CAPACITY as u64);
    assert_eq!(allocations(|| record(50_000)), 0, "event records allocated");
    let registry = obs.registry().unwrap();
    assert_eq!(registry.event_count(), DEFAULT_EVENT_CAPACITY);
}

/// A four-peer flooding overlay with an observer attached, the blob's
/// provider holding its advert and the origin tracking one query for it.
struct Flood {
    sim: Sim<P2pEvent>,
    net: Network,
    p2p: P2p,
    advert: Advertisement,
    kind: QueryKind,
    tracked: QueryId,
    next_id: u64,
}

const ORIGIN: PeerId = PeerId(0);
const PROVIDER: PeerId = PeerId(1);

impl Flood {
    fn new() -> Self {
        let mut net = Network::new();
        let mut p2p = P2p::new(DiscoveryMode::Flooding);
        for _ in 0..4 {
            p2p.add_peer(net.add_host(HostSpec::reference_pc()));
        }
        p2p.wire_random(3, &mut Pcg32::new(0x0F1D, 0x07));
        p2p.set_obs(Obs::enabled());
        let mut sim = Sim::new(7);
        let advert = Advertisement {
            body: AdvertBody::Blob(BlobAdvert {
                blob: 0xB10B,
                size_bytes: 16_896,
                chunks: 17,
                provider: PROVIDER,
            }),
            expires: SimTime(u64::MAX),
        };
        p2p.publish(&mut sim, &mut net, PROVIDER, advert.clone());
        let kind = QueryKind::ByBlob { hash: 0xB10B };
        let tracked = p2p.query(&mut sim, &mut net, ORIGIN, kind.clone(), 2);
        Flood {
            sim,
            net,
            p2p,
            advert,
            kind,
            tracked,
            next_id: 1_000_000,
        }
    }

    /// Handle one event; how many notifications it surfaced.
    fn handle(&mut self, ev: P2pEvent) -> u64 {
        let mut n = 0;
        for inc in self.p2p.handle(&mut self.sim, &mut self.net, ev) {
            black_box(inc);
            n += 1;
        }
        n
    }

    /// `n` rounds: a fresh flooded `Query` at the provider (surfaces
    /// nothing; answers the origin and forwards to the other peers), the
    /// sim drained (the hit at the origin surfaces), then a `QueryHit` for
    /// the tracked query and an `OrchDelta` (one each). Returns the count
    /// of notifications surfaced.
    fn rounds(&mut self, n: u64) -> u64 {
        let mut surfaced = 0;
        for _ in 0..n {
            self.next_id += 1;
            let query = Message::Query {
                id: QueryId(self.next_id),
                origin: ORIGIN,
                prev_hop: ORIGIN,
                ttl: 1,
                kind: self.kind.clone(),
            };
            surfaced += self.handle(P2pEvent::Delivered {
                to: PROVIDER,
                msg: query,
            });
            while let Some(ev) = self.sim.step() {
                surfaced += self.handle(ev);
            }
            let hit = Message::QueryHit {
                id: self.tracked,
                advert: self.advert.clone(),
            };
            surfaced += self.handle(P2pEvent::Delivered {
                to: ORIGIN,
                msg: hit,
            });
            let delta = Message::OrchDelta {
                seq: self.next_id,
                bytes: 64,
            };
            surfaced += self.handle(P2pEvent::Delivered {
                to: PeerId(2),
                msg: delta,
            });
        }
        surfaced
    }
}

/// Steady-state flooding traffic through `P2p::handle`, observer on. The
/// warm-up fills every seen-query window and the event log; the tracked
/// query's hit list is that query's own record, reserved up front.
#[test]
fn overlay_deliveries_allocate_nothing() {
    let mut flood = Flood::new();
    flood.rounds(4 * p2p::SEEN_CACHE_CAP as u64);
    const MEASURED: u64 = 2_000;
    let tracked = flood.p2p.queries.get_mut(&flood.tracked).unwrap();
    tracked.hits.reserve(MEASURED as usize);
    let mut surfaced = 0;
    let n = allocations(|| surfaced = flood.rounds(MEASURED));
    assert_eq!(n, 0, "overlay deliveries allocated");
    assert_eq!(surfaced, 3 * MEASURED);
}
