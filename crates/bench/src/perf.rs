//! The perf regression harness behind the `perf` binary.
//!
//! One run produces a report with two disjoint sections:
//!
//! - **deterministic** — counted work: instructions retired per kernel run,
//!   events a seeded discovery round dispatches, farm completions, cache
//!   admission counts, output digests. Byte-identical across runs and
//!   hosts; CI diffs two fresh runs to prove it, and gates the values
//!   against the committed `BENCH_PERF.json` baseline.
//! - **volatile** — wall-clock: ns per run, speedups, throughput. Recorded
//!   for the committed snapshot but never gated (CI runners are noisy).
//!
//! The interp kernels are shaped like the paper's workloads: an E3-style
//! SPH smoothing kernel (galaxy render) and an E4-style matched-filter
//! accumulation (inspiral search). Both use only bit-exact IEEE ops
//! (add/sub/mul/max), so their output digests are portable.

use netsim::avail::AvailabilityTrace;
use netsim::{BinaryHeapQueue, EventQueue, HostSpec, Pcg32, SimTime};
use obs::json::{self, Value};
use p2p::advert::{AdvertBody, PeerAdvert};
use p2p::{Advertisement, DiscoveryMode, QueryKind};
use std::time::Instant;
use triana_core::grid::farm::{run_farm, FarmConfig, FarmScheduler, JobSpec};
use triana_core::grid::redundancy::executed_digest;
use triana_core::grid::{GridWorld, WorkerSetup};
use tvm::asm::assemble;
use tvm::{execute, ExecContext, PreparedModule, SandboxPolicy, Tier2Module};

/// Allowed relative drift of a deterministic counter before the gate fails.
pub const GATE_TOLERANCE: f64 = 0.25;

const SEED: u64 = 0x9E4F;
const KERNEL_INPUT_LEN: usize = 4_096;
const QUEUE_EVENTS: u64 = 100_000;

/// E3-style kernel: per-particle SPH smoothing weight `w = max(0, 1-r²)³`.
const E03_SPH_KERNEL: &str = ".module SphKernel 1 1 1\n.func main 2\n inlen 0\n store 0\n \
                              push 0\n store 1\nloop:\n load 1\n load 0\n lt\n jz end\n \
                              load 1\n inget 0\n dup\n mul\n push 1\n swap\n sub\n push 0\n \
                              max\n dup\n dup\n mul\n mul\n outpush 0\n load 1\n push 1\n \
                              add\n store 1\n jmp loop\nend:\n halt\n";

/// E4-style kernel: matched-filter correlation `acc += x[i] * t[i]`.
const E04_MATCHED_FILTER: &str = ".module MatchedFilter 1 2 1\n.func main 3\n inlen 0\n \
                                  store 0\n push 0\n store 1\n push 0\n store 2\nloop:\n \
                                  load 1\n load 0\n lt\n jz end\n load 1\n inget 0\n load 1\n \
                                  inget 1\n mul\n load 2\n add\n store 2\n load 1\n push 1\n \
                                  add\n store 1\n jmp loop\nend:\n load 2\n outpush 0\n halt\n";

/// Counted + timed results for one interp kernel.
pub struct KernelPerf {
    pub name: &'static str,
    // Deterministic.
    pub input_len: usize,
    pub instructions_per_run: u64,
    pub source_instructions: usize,
    pub modeled_prepare_us: u64,
    pub tier2_regions: usize,
    pub output_digest: u64,
    // Volatile.
    pub timing_runs: u64,
    pub legacy_ns_per_run: f64,
    pub prepared_ns_per_run: f64,
    pub tier2_ns_per_run: f64,
    pub prepare_wall_ns: f64,
}

impl KernelPerf {
    /// Steady-state speedup of the prepared path over per-call verify.
    pub fn speedup(&self) -> f64 {
        self.legacy_ns_per_run / self.prepared_ns_per_run
    }

    /// Steady-state speedup of register-translated loops over the
    /// prepared (stack-form) path.
    pub fn tier2_speedup(&self) -> f64 {
        self.prepared_ns_per_run / self.tier2_ns_per_run
    }

    fn minstr_per_s(&self, ns_per_run: f64) -> f64 {
        self.instructions_per_run as f64 / ns_per_run * 1e3
    }
}

/// Counted + timed results for the farm end-to-end scenario.
pub struct FarmPerf {
    // Deterministic.
    pub jobs_completed: u64,
    pub makespan_us: u64,
    pub cache_misses: u64,
    pub cache_hits: u64,
    pub cache_prepares: u64,
    pub resident_instructions_per_exec: u64,
    // Volatile.
    pub build_and_run_ns: f64,
    pub resident_ns_per_exec: f64,
}

/// Steady-state allocation events on the hot paths, measured with the
/// counting global allocator in [`crate::alloc`]. Deterministic: every
/// loop is seeded and fixed-length, and each is zero-allocation by
/// design — a regression shows up as a nonzero count, which the gate
/// rejects against a zero baseline (any drift from zero is infinite).
pub struct AllocCounts {
    /// Calendar-queue pop/push churn after bucket capacities warm up.
    pub queue_pop_dispatch: u64,
    /// E3 SPH kernel through the tier-2 exec loop with a reused context.
    pub e03_prepared_exec: u64,
    /// E4 matched filter through the same loop.
    pub e04_prepared_exec: u64,
    /// `Message::encode_into` through a warm thread-local scratch pool.
    pub wire_pooled_encode: u64,
}

/// One full harness run.
pub struct PerfReport {
    pub mode: &'static str,
    pub kernels: Vec<KernelPerf>,
    pub discovery_events: u64,
    pub queue_events: u64,
    /// Pop-schedule digest of the queue churn — identical between the
    /// calendar queue and the legacy heap, byte-stable across runs.
    pub queue_digest: u64,
    pub alloc: AllocCounts,
    pub farm: FarmPerf,
    // Volatile.
    pub queue_ns_per_event: f64,
    pub heap_queue_ns_per_event: f64,
    pub discovery_round_ns: f64,
}

/// Mean wall time per call, after a short warmup.
fn time_ns<R>(reps: u64, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..reps / 10 + 1 {
        std::hint::black_box(f());
    }
    // Best-of-chunks mean: a single long mean folds scheduler preemption
    // spikes into every metric; the fastest chunk measures what the code
    // can actually do. All tiers go through this, so ratios stay fair.
    // Chunks are kept short (few reps each) so at least one lands inside
    // a quiet scheduler window even on a loaded single-core box.
    let chunks = 32;
    let per = (reps / chunks).clamp(1, 4);
    let mut best = f64::INFINITY;
    for _ in 0..chunks {
        let t0 = Instant::now();
        for _ in 0..per {
            std::hint::black_box(f());
        }
        let ns = t0.elapsed().as_nanos() as f64 / per as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn kernel_perf(name: &'static str, src: &str, inputs: &[&[f64]], reps: u64) -> KernelPerf {
    let module = assemble(src).expect("kernel assembles");
    let policy = SandboxPolicy::standard();
    let (legacy_out, legacy_stats) = execute(&module, inputs, &policy).expect("legacy runs");
    let prepared = PreparedModule::prepare(&module).expect("kernel verifies");
    let mut ctx = ExecContext::new();
    let (prep_out, prep_stats) = prepared
        .execute(inputs, &policy, &mut ctx)
        .expect("prepared runs");
    assert_eq!(legacy_out, prep_out, "{name}: prepared output diverged");
    assert_eq!(
        legacy_stats, prep_stats,
        "{name}: prepared metering diverged"
    );
    let tier2 = Tier2Module::prepare(&module).expect("kernel verifies");
    let (t2_out, t2_stats) = tier2
        .execute(inputs, &policy, &mut ctx)
        .expect("tier2 runs");
    assert_eq!(legacy_out, t2_out, "{name}: tier2 output diverged");
    assert_eq!(legacy_stats, t2_stats, "{name}: tier2 metering diverged");
    let legacy_ns_per_run = time_ns(reps, || execute(&module, inputs, &policy).unwrap());
    let prepared_ns_per_run = time_ns(reps, || prepared.run(inputs, &policy, &mut ctx).unwrap());
    let tier2_ns_per_run = time_ns(reps, || tier2.run(inputs, &policy, &mut ctx).unwrap());
    let prepare_wall_ns = time_ns(reps.min(200), || Tier2Module::prepare(&module).unwrap());
    KernelPerf {
        name,
        input_len: inputs[0].len(),
        instructions_per_run: legacy_stats.instructions,
        source_instructions: prepared.source_instructions(),
        modeled_prepare_us: prepared.modeled_prepare_us(),
        tier2_regions: tier2.regions_translated(),
        output_digest: executed_digest(&legacy_out),
        timing_runs: reps,
        legacy_ns_per_run,
        prepared_ns_per_run,
        tier2_ns_per_run,
        prepare_wall_ns,
    }
}

/// One seeded rendezvous discovery round; returns events dispatched.
fn discovery_round(seed: u64) -> u64 {
    let mut sim: netsim::Sim<p2p::P2pEvent> = netsim::Sim::new(seed);
    let mut net = netsim::Network::new();
    let mut overlay = p2p::P2p::new(DiscoveryMode::Rendezvous);
    let mut rng = Pcg32::new(seed, 0xD1);
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
    sim.processed()
}

/// Raw event-queue churn: fill a 256-deep backlog, then one push per pop.
fn queue_churn(events: u64) -> u64 {
    let mut rng = Pcg32::new(0xE7E7, 0x51);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..256u64 {
        q.push(SimTime(rng.below(1_000)), i);
    }
    let mut acc = 0u64;
    for i in 0..events {
        let (at, ev) = q.pop().expect("backlog never empties");
        acc = acc.wrapping_add(ev.wrapping_mul(at.as_micros() | 1));
        q.push(SimTime(at.as_micros() + 1 + rng.below(1_000)), i);
    }
    acc
}

/// The same churn through the legacy binary-heap queue — the baseline the
/// calendar queue replaced. Kept so every snapshot carries the old heap
/// number next to the new one, and as a cross-check: both queues must pop
/// the identical schedule (same digest).
fn heap_churn(events: u64) -> u64 {
    let mut rng = Pcg32::new(0xE7E7, 0x51);
    let mut q: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    for i in 0..256u64 {
        q.push(SimTime(rng.below(1_000)), i);
    }
    let mut acc = 0u64;
    for i in 0..events {
        let (at, ev) = q.pop().expect("backlog never empties");
        acc = acc.wrapping_add(ev.wrapping_mul(at.as_micros() | 1));
        q.push(SimTime(at.as_micros() + 1 + rng.below(1_000)), i);
    }
    acc
}

/// Measure steady-state allocation events on each hot path. Every loop
/// runs a warmup pass first so one-time capacity growth (queue buckets,
/// exec-context buffers, the scratch pool) is excluded; what remains is
/// the per-event allocation pressure, which must be zero.
fn alloc_counts(radii: &[f64], signal: &[f64], template: &[f64]) -> AllocCounts {
    // Netsim pop/dispatch loop: same churn shape as `queue_churn`.
    let queue_pop_dispatch = {
        let mut rng = Pcg32::new(0xE7E7, 0x51);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..256u64 {
            q.push(SimTime(rng.below(1_000)), i);
        }
        let churn = |q: &mut EventQueue<u64>, rng: &mut Pcg32, n: u64| -> u64 {
            let mut acc = 0u64;
            for i in 0..n {
                let (at, ev) = q.pop().expect("backlog never empties");
                acc = acc.wrapping_add(ev.wrapping_mul(at.as_micros() | 1));
                q.push(SimTime(at.as_micros() + 1 + rng.below(1_000)), i);
            }
            acc
        };
        std::hint::black_box(churn(&mut q, &mut rng, 50_000));
        let (n, acc) = crate::alloc::count_allocations(|| churn(&mut q, &mut rng, 50_000));
        std::hint::black_box(acc);
        n
    };
    // Prepared-kernel exec loop: reused context, stats-only entry point.
    let kernel_steady = |src: &str, inputs: &[&[f64]]| -> u64 {
        let module = assemble(src).expect("kernel assembles");
        let policy = SandboxPolicy::standard();
        let tier2 = Tier2Module::prepare(&module).expect("kernel verifies");
        let mut ctx = ExecContext::new();
        tier2.run(inputs, &policy, &mut ctx).expect("warmup runs");
        let (n, _) = crate::alloc::count_allocations(|| {
            for _ in 0..8 {
                tier2.run(inputs, &policy, &mut ctx).expect("runs");
            }
        });
        n
    };
    let e03_prepared_exec = kernel_steady(E03_SPH_KERNEL, &[radii]);
    let e04_prepared_exec = kernel_steady(E04_MATCHED_FILTER, &[signal, template]);
    // Pooled wire encode: a representative reply message through the
    // thread-local scratch pool.
    let wire_pooled_encode = {
        let msg = p2p::Message::FindNodeReply {
            lid: p2p::LookupId(7),
            from: p2p::PeerId(3),
            closer: (0..16u32)
                .map(|i| {
                    (
                        u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        p2p::PeerId(i),
                    )
                })
                .collect(),
        };
        p2p::wire::with_buf(|buf| {
            msg.encode_into(buf);
            std::hint::black_box(buf.len())
        });
        let (n, _) = crate::alloc::count_allocations(|| {
            for _ in 0..64 {
                p2p::wire::with_buf(|buf| {
                    msg.encode_into(buf);
                    std::hint::black_box(buf.len())
                });
            }
        });
        n
    };
    AllocCounts {
        queue_pop_dispatch,
        e03_prepared_exec,
        e04_prepared_exec,
        wire_pooled_encode,
    }
}

fn farm_perf(reps: u64) -> FarmPerf {
    let t0 = Instant::now();
    let mut world = GridWorld::new(SEED, DiscoveryMode::Flooding);
    let (ctrl, _) = world.add_peer(HostSpec::lan_workstation());
    let mut farm = FarmScheduler::new(&world, ctrl, FarmConfig::default());
    let horizon = SimTime::from_secs(1_000_000);
    let wids: Vec<_> = (0..3)
        .map(|_| {
            let spec = HostSpec::lan_workstation();
            let (peer, _) = world.add_peer(spec.clone());
            farm.add_worker(
                &mut world,
                WorkerSetup {
                    peer,
                    spec,
                    trace: AvailabilityTrace::always(horizon),
                    cache_bytes: 64 << 10,
                },
            )
        })
        .collect();
    let modules = crate::e08_code_on_demand::module_set(3);
    for (k, b) in &modules {
        farm.library.publish(k.clone(), b.clone());
    }
    for i in 0..9 {
        farm.submit(
            &mut world,
            JobSpec {
                work_gigacycles: 2.0,
                input_bytes: 10_000,
                output_bytes: 2_000,
                module: Some(modules[i % 3].0.clone()),
            },
        );
    }
    run_farm(&mut world, &mut farm);
    assert!(farm.all_done(), "perf farm must drain");
    let build_and_run_ns = t0.elapsed().as_nanos() as f64;
    // Capture cache counters *before* the resident loop below moves the
    // prepared-hit counter: the deterministic section must not depend on
    // how many timing repetitions this mode performs.
    let (mut hits, mut misses, mut prepares) = (0u64, 0u64, 0u64);
    for &wid in &wids {
        let cs = farm.worker_cache_stats(wid);
        hits += cs.hits;
        misses += cs.misses;
        prepares += cs.prepares;
    }
    // Steady state on the farm: the admitted module executes through the
    // worker's prepared form and per-worker context, no re-verification.
    let policy = SandboxPolicy::standard();
    let key = &modules[0].0;
    let (wid, instructions) = wids
        .iter()
        .find_map(|&w| {
            let (_, stats) = farm.execute_resident(w, key, &[], &policy)?.ok()?;
            Some((w, stats.instructions))
        })
        .expect("module resident on some worker");
    let resident_ns_per_exec = time_ns(reps, || {
        farm.execute_resident(wid, key, &[], &policy)
            .expect("resident")
            .expect("runs")
    });
    FarmPerf {
        jobs_completed: 9,
        makespan_us: world.now().as_micros(),
        cache_misses: misses,
        cache_hits: hits,
        cache_prepares: prepares,
        resident_instructions_per_exec: instructions,
        build_and_run_ns,
        resident_ns_per_exec,
    }
}

/// Run the harness. `quick` only shortens the *timing* loops; every
/// deterministic counter is identical in both modes.
pub fn run(quick: bool) -> PerfReport {
    let reps = if quick { 100 } else { 1_000 };
    run_with(if quick { "quick" } else { "full" }, reps)
}

fn run_with(mode: &'static str, reps: u64) -> PerfReport {
    let mut rng = Pcg32::new(SEED, 0x03);
    let radii: Vec<f64> = (0..KERNEL_INPUT_LEN)
        .map(|_| rng.range_f64(0.0, 2.0))
        .collect();
    let signal: Vec<f64> = (0..KERNEL_INPUT_LEN).map(|_| rng.normal()).collect();
    let template: Vec<f64> = (0..KERNEL_INPUT_LEN).map(|_| rng.normal()).collect();
    let kernels = vec![
        kernel_perf("e03_sph_kernel", E03_SPH_KERNEL, &[&radii], reps),
        kernel_perf(
            "e04_matched_filter",
            E04_MATCHED_FILTER,
            &[&signal, &template],
            reps,
        ),
    ];
    let discovery_events = discovery_round(SEED);
    let discovery_round_ns = time_ns(reps.min(50), || discovery_round(SEED));
    let queue_digest = queue_churn(QUEUE_EVENTS);
    assert_eq!(
        queue_digest,
        heap_churn(QUEUE_EVENTS),
        "calendar queue and legacy heap popped different schedules"
    );
    let queue_ns_per_event =
        time_ns(reps.clamp(1, 20), || queue_churn(QUEUE_EVENTS)) / QUEUE_EVENTS as f64;
    let heap_queue_ns_per_event =
        time_ns(reps.clamp(1, 20), || heap_churn(QUEUE_EVENTS)) / QUEUE_EVENTS as f64;
    let alloc = alloc_counts(&radii, &signal, &template);
    let farm = farm_perf(reps);
    PerfReport {
        mode,
        kernels,
        discovery_events,
        queue_events: QUEUE_EVENTS,
        queue_digest,
        alloc,
        farm,
        queue_ns_per_event,
        heap_queue_ns_per_event,
        discovery_round_ns,
    }
}

impl PerfReport {
    /// The deterministic section: counted work only, byte-stable across
    /// runs and hosts. This exact string appears in both JSON emissions,
    /// so CI can `cmp` two counters files.
    fn deterministic_json(&self) -> String {
        let mut s = String::from("{\"interp\":{");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"input_len\":{},\"instructions_per_run\":{},\
                 \"source_instructions\":{},\
                 \"modeled_prepare_us\":{},\"tier2_regions\":{},\
                 \"output_digest\":\"{:#018x}\"}}",
                k.name,
                k.input_len,
                k.instructions_per_run,
                k.source_instructions,
                k.modeled_prepare_us,
                k.tier2_regions,
                k.output_digest,
            ));
        }
        s.push_str(&format!(
            "}},\"netsim\":{{\"discovery_events_processed\":{},\"queue_events\":{},\
             \"queue_digest\":\"{:#018x}\"}}",
            self.discovery_events, self.queue_events, self.queue_digest
        ));
        let a = &self.alloc;
        s.push_str(&format!(
            ",\"alloc\":{{\"queue_pop_dispatch\":{},\"e03_prepared_exec\":{},\
             \"e04_prepared_exec\":{},\"wire_pooled_encode\":{}}}",
            a.queue_pop_dispatch, a.e03_prepared_exec, a.e04_prepared_exec, a.wire_pooled_encode,
        ));
        let f = &self.farm;
        s.push_str(&format!(
            ",\"farm\":{{\"jobs_completed\":{},\"makespan_us\":{},\"cache_misses\":{},\
             \"cache_hits\":{},\"cache_prepares\":{},\"resident_instructions_per_exec\":{}}}}}",
            f.jobs_completed,
            f.makespan_us,
            f.cache_misses,
            f.cache_hits,
            f.cache_prepares,
            f.resident_instructions_per_exec,
        ));
        s
    }

    fn volatile_json(&self) -> String {
        let mut s = String::from("{\"interp\":{");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"timing_runs\":{},\"legacy_ns_per_run\":{:.1},\
                 \"prepared_ns_per_run\":{:.1},\"speedup\":{:.2},\
                 \"legacy_minstr_per_s\":{:.1},\"prepared_minstr_per_s\":{:.1},\
                 \"tier2\":{{\"tier2_ns_per_run\":{:.1},\"tier2_speedup\":{:.2},\
                 \"prepared_minstr_per_s\":{:.1}}},\
                 \"prepare_wall_ns\":{:.1}}}",
                k.name,
                k.timing_runs,
                k.legacy_ns_per_run,
                k.prepared_ns_per_run,
                k.speedup(),
                k.minstr_per_s(k.legacy_ns_per_run),
                k.minstr_per_s(k.prepared_ns_per_run),
                k.tier2_ns_per_run,
                k.tier2_speedup(),
                k.minstr_per_s(k.tier2_ns_per_run),
                k.prepare_wall_ns,
            ));
        }
        s.push_str(&format!(
            "}},\"netsim\":{{\"queue_ns_per_event\":{:.2},\"queue_events_per_s\":{:.0},\
             \"heap_queue_ns_per_event\":{:.2},\"calendar_vs_heap_speedup\":{:.2},\
             \"discovery_round_ns\":{:.0}}}",
            self.queue_ns_per_event,
            1e9 / self.queue_ns_per_event,
            self.heap_queue_ns_per_event,
            self.heap_queue_ns_per_event / self.queue_ns_per_event,
            self.discovery_round_ns,
        ));
        let f = &self.farm;
        s.push_str(&format!(
            ",\"farm\":{{\"build_and_run_ns\":{:.0},\"resident_ns_per_exec\":{:.1},\
             \"resident_execs_per_s\":{:.0}}}}}",
            f.build_and_run_ns,
            f.resident_ns_per_exec,
            1e9 / f.resident_ns_per_exec,
        ));
        s
    }

    /// Deterministic counters only — the file CI compares byte-for-byte
    /// across two fresh runs.
    pub fn counters_json(&self) -> String {
        format!(
            "{{\"schema\":\"bench-perf-v1\",\"mode\":\"{}\",\"deterministic\":{}}}\n",
            self.mode,
            self.deterministic_json()
        )
    }

    /// The full snapshot (`BENCH_PERF.json`): deterministic counters plus
    /// the wall-clock measurements of this particular run.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"bench-perf-v1\",\"mode\":\"{}\",\"deterministic\":{},\
             \"volatile\":{}}}\n",
            self.mode,
            self.deterministic_json(),
            self.volatile_json()
        )
    }

    /// Human-readable summary for the terminal.
    pub fn summary(&self) -> String {
        let mut out = String::from("## Perf harness\n\n");
        out.push_str(
            "kernel                 legacy ns/run  prepared ns/run  tier2 ns/run  \
             t2 speedup  t2 Minstr/s\n",
        );
        for k in &self.kernels {
            out.push_str(&format!(
                "{:<22} {:>13.0} {:>16.0} {:>13.0} {:>10.2}x {:>12.1}\n",
                k.name,
                k.legacy_ns_per_run,
                k.prepared_ns_per_run,
                k.tier2_ns_per_run,
                k.tier2_speedup(),
                k.minstr_per_s(k.tier2_ns_per_run),
            ));
        }
        out.push_str(&format!(
            "\nnetsim queue: {:.0} events/s calendar vs {:.0} events/s heap ({:.2}x)   \
             discovery round: {} events in {:.0} us\n",
            1e9 / self.queue_ns_per_event,
            1e9 / self.heap_queue_ns_per_event,
            self.heap_queue_ns_per_event / self.queue_ns_per_event,
            self.discovery_events,
            self.discovery_round_ns / 1e3,
        ));
        let a = &self.alloc;
        out.push_str(&format!(
            "steady-state allocs: queue {} / e03 exec {} / e04 exec {} / pooled encode {}\n",
            a.queue_pop_dispatch, a.e03_prepared_exec, a.e04_prepared_exec, a.wire_pooled_encode,
        ));
        out.push_str(&format!(
            "farm e2e: {} jobs, makespan {} us (virtual), {:.1} ms wall; \
             resident fast path {:.0} execs/s\n",
            self.farm.jobs_completed,
            self.farm.makespan_us,
            self.farm.build_and_run_ns / 1e6,
            1e9 / self.farm.resident_ns_per_exec,
        ));
        out
    }
}

/// Compare the `deterministic` section of `current` against `baseline`.
/// Numeric leaves may drift by at most `tolerance` (relative); strings
/// (output digests) must match exactly. Keys present in the baseline but
/// missing from the current run fail; new keys in the current run pass
/// (adding counters is not a regression).
pub fn gate(current: &str, baseline: &str, tolerance: f64) -> Result<(), Vec<String>> {
    let parse = |label: &str, text: &str| -> Result<Value, Vec<String>> {
        json::parse(text).map_err(|e| vec![format!("{label}: {e}")])
    };
    let cur = parse("current", current)?;
    let base = parse("baseline", baseline)?;
    let mut failures = Vec::new();
    match (base.get("deterministic"), cur.get("deterministic")) {
        (Some(b), Some(c)) => compare(&mut failures, "deterministic", b, c, tolerance),
        _ => failures.push("missing \"deterministic\" section".into()),
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn compare(failures: &mut Vec<String>, path: &str, base: &Value, cur: &Value, tolerance: f64) {
    match (base, cur) {
        (Value::Object(b), Value::Object(c)) => {
            for (key, bv) in b {
                let p = format!("{path}.{key}");
                match c.get(key) {
                    Some(cv) => compare(failures, &p, bv, cv, tolerance),
                    None => failures.push(format!("{p}: missing from current run")),
                }
            }
        }
        (Value::Number(b), Value::Number(c)) => {
            let drift = if *b == 0.0 {
                if *c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (c - b).abs() / b.abs()
            };
            if drift > tolerance {
                failures.push(format!(
                    "{path}: {c} drifted {:.0}% from baseline {b} (tolerance {:.0}%)",
                    drift * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        (Value::String(b), Value::String(c)) => {
            if b != c {
                failures.push(format!("{path}: \"{c}\" != baseline \"{b}\""));
            }
        }
        _ => failures.push(format!("{path}: type changed from baseline")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap run: tiny timing loops, same deterministic work.
    fn tiny() -> PerfReport {
        run_with("quick", 2)
    }

    #[test]
    fn counters_are_deterministic_and_rep_independent() {
        let a = tiny();
        let b = run_with("quick", 5);
        assert_eq!(a.counters_json(), b.counters_json());
    }

    #[test]
    fn snapshot_parses_and_gates_against_itself() {
        let r = tiny();
        let full = r.to_json();
        let v = json::parse(&full).expect("snapshot is valid JSON");
        assert!(v.get("deterministic").is_some() && v.get("volatile").is_some());
        // Counters-only emission gates cleanly against the full snapshot.
        gate(&r.counters_json(), &full, GATE_TOLERANCE).expect("self-gate passes");
    }

    #[test]
    fn gate_fails_on_counter_drift_and_missing_keys() {
        let r = tiny();
        let base = r.counters_json();
        let drifted = base.replace(
            &format!("\"jobs_completed\":{}", r.farm.jobs_completed),
            &format!("\"jobs_completed\":{}", r.farm.jobs_completed * 2),
        );
        assert_ne!(base, drifted, "replacement must hit");
        let failures = gate(&drifted, &base, GATE_TOLERANCE).expect_err("drift must fail");
        assert!(
            failures.iter().any(|f| f.contains("jobs_completed")),
            "{failures:?}"
        );
        let pruned = base.replace(",\"queue_events\":100000", "");
        assert_ne!(base, pruned, "prune must hit");
        let failures = gate(&base, &pruned, GATE_TOLERANCE).err();
        assert!(failures.is_none(), "new keys in current are allowed");
        let failures = gate(&pruned, &base, GATE_TOLERANCE).expect_err("missing key must fail");
        assert!(
            failures.iter().any(|f| f.contains("queue_events")),
            "{failures:?}"
        );
    }

    #[test]
    fn calendar_and_heap_pop_identical_schedules() {
        assert_eq!(queue_churn(10_000), heap_churn(10_000));
    }

    #[test]
    fn hot_loops_do_not_allocate() {
        let mut rng = Pcg32::new(SEED, 0x03);
        let radii: Vec<f64> = (0..KERNEL_INPUT_LEN)
            .map(|_| rng.range_f64(0.0, 2.0))
            .collect();
        let signal: Vec<f64> = (0..KERNEL_INPUT_LEN).map(|_| rng.normal()).collect();
        let template: Vec<f64> = (0..KERNEL_INPUT_LEN).map(|_| rng.normal()).collect();
        let a = alloc_counts(&radii, &signal, &template);
        assert_eq!(a.queue_pop_dispatch, 0, "queue pop/dispatch allocated");
        assert_eq!(a.e03_prepared_exec, 0, "e03 exec loop allocated");
        assert_eq!(a.e04_prepared_exec, 0, "e04 exec loop allocated");
        assert_eq!(a.wire_pooled_encode, 0, "pooled wire encode allocated");
    }

    #[test]
    fn kernels_do_real_per_element_work() {
        let r = tiny();
        for k in &r.kernels {
            assert!(
                k.instructions_per_run > 10 * k.input_len as u64,
                "{}: {} instructions for {} elements",
                k.name,
                k.instructions_per_run,
                k.input_len
            );
        }
        assert!(r.discovery_events > 0);
        assert!(r.farm.cache_prepares >= 3, "all three modules admitted");
    }
}
