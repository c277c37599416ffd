//! The node runtime: orchestrator and worker state machines written once
//! against [`Transport`], so the **same grid code path** runs over the
//! deterministic simulator and real UDP sockets.
//!
//! The runtime reuses the existing layers unchanged: `p2p` wire types
//! for provider adverts, `store`'s verified chunk swarm for module
//! distribution, `store::durable` for crash-safe peer state, and the
//! `tvm` prepared-execution cache for running jobs. What the farm
//! scheduler does inside the simulator — dispatch, code-on-demand fetch,
//! verify, execute, collect — these nodes do over a wire.

use crate::frame::Endpoint;
use crate::proto::{GridMsg, ModuleInfo};
use crate::{Transport, TransportEvent};
use netsim::SimTime;
use obs::Counter;
use p2p::advert::{AdvertBody, BlobAdvert};
use p2p::{Advertisement, PeerId};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use store::durable::DurableStore;
use store::{BlobId, ChunkStore, StoreError};
use triana_core::{ModuleCache, ModuleKey};
use tvm::{ExecContext, ModuleBlob, PreparedModule, SandboxPolicy};

/// One farm job: which module to run and its input vector.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    pub module: ModuleInfo,
    pub input: Vec<f64>,
}

fn blob_advert(ep: Endpoint, module: &ModuleInfo, chunk_bytes: u64) -> Advertisement {
    Advertisement {
        body: AdvertBody::Blob(BlobAdvert {
            blob: module.hash,
            size_bytes: module.blob_len,
            chunks: module.blob_len.div_ceil(chunk_bytes) as u32,
            provider: PeerId(ep.0 as u32),
        }),
        // The node runtime treats providers as valid for the whole farm;
        // a fixed horizon keeps the encoded bytes backend-independent.
        expires: SimTime(u64::MAX),
    }
}

obs::handles! {
    /// The per-job and per-chunk `transport.*` counters of a node, resolved
    /// once at construction.
    struct NodeMetrics {
        proto_errors: Counter = "transport.proto_errors",
        jobs_dispatched: Counter = "transport.jobs_dispatched",
        jobs_completed: Counter = "transport.jobs_completed",
        chunks_requested: Counter = "transport.chunks_requested",
        chunks_served: Counter = "transport.chunks_served",
        verify_failures: Counter = "transport.verify_failures",
    }
}

/// Answer a `ChunkRequest` for `blob`'s chunk `index` from `store`, if it
/// holds that chunk: the orchestrator (the origin) and every worker (a
/// swarm peer) serve chunks alike.
fn serve_chunk<T: Transport>(
    t: &mut T,
    store: &ChunkStore,
    metrics: &NodeMetrics,
    to: Endpoint,
    blob: u64,
    index: u32,
) {
    let Some(bytes) = store.chunk(BlobId(blob), index) else {
        return;
    };
    let reply = GridMsg::ChunkData {
        blob,
        blob_len: store.layout_of(BlobId(blob)).map_or(0, |l| l.blob_len),
        index,
        bytes: bytes.to_vec(),
    };
    let _ = t.send(to, reply.encode());
    metrics.chunks_served.incr();
}

// ---------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------

/// Completed jobs: job id → (worker, outputs).
pub type JobResults = BTreeMap<u64, (Endpoint, Vec<Vec<f64>>)>;

/// The farm master: enrols workers, dispatches jobs round-robin, serves
/// module chunks as the origin provider, and collects results.
pub struct OrchestratorNode<'a, T> {
    t: T,
    chunk_bytes: u64,
    /// Origin copy of every dispatchable module, seeded into the store.
    store: ChunkStore,
    modules: BTreeMap<u64, ModuleInfo>,
    /// Borrowed from the caller where it keeps its job list.
    jobs: Cow<'a, [JobSpec]>,
    expected_workers: usize,
    workers: BTreeSet<Endpoint>,
    /// blob → endpoints known to hold it completely (orchestrator
    /// included implicitly).
    holders: BTreeMap<u64, BTreeSet<Endpoint>>,
    results: JobResults,
    assignment: BTreeMap<u64, Endpoint>,
    dispatched: bool,
    done: bool,
    metrics: NodeMetrics,
    events: Vec<TransportEvent>,
}

impl<'a, T: Transport> OrchestratorNode<'a, T> {
    /// `modules` pairs each dispatchable module's identity with its blob;
    /// blobs are seeded into the orchestrator's chunk store so it is the
    /// origin provider for every blob. `jobs` may be owned or lent.
    pub fn new(
        t: T,
        chunk_bytes: u64,
        modules: Vec<(ModuleInfo, ModuleBlob)>,
        jobs: impl Into<Cow<'a, [JobSpec]>>,
        expected_workers: usize,
        obs: obs::Obs,
    ) -> Self {
        let mut store = ChunkStore::new(chunk_bytes);
        let mut index = BTreeMap::new();
        for (info, blob) in modules {
            debug_assert_eq!(blob.hash, info.hash, "module info/blob mismatch");
            store.seed_blob(&blob);
            index.insert(info.hash, info);
        }
        OrchestratorNode {
            t,
            chunk_bytes,
            store,
            modules: index,
            jobs: jobs.into(),
            expected_workers,
            workers: BTreeSet::new(),
            holders: BTreeMap::new(),
            results: BTreeMap::new(),
            assignment: BTreeMap::new(),
            dispatched: false,
            done: false,
            metrics: NodeMetrics::new(&obs),
            events: Vec::new(),
        }
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    pub fn transport(&self) -> &T {
        &self.t
    }

    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.t
    }

    /// Completed jobs: job id → (worker, outputs).
    pub fn results(&self) -> &JobResults {
        &self.results
    }

    /// Which worker each job was dispatched to.
    pub fn assignment(&self) -> &BTreeMap<u64, Endpoint> {
        &self.assignment
    }

    /// The finished farm's results and assignment, moved out rather than
    /// copied.
    pub fn into_results(self) -> (JobResults, BTreeMap<u64, Endpoint>) {
        (self.results, self.assignment)
    }

    /// Drive the node: drain transport events and react. Call in a loop.
    pub fn pump(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        self.t.poll(&mut events);
        for ev in events.drain(..) {
            match ev {
                TransportEvent::Delivered { from, payload } => match GridMsg::decode(&payload) {
                    Ok(msg) => self.on_msg(from, msg),
                    Err(_) => self.metrics.proto_errors.incr(),
                },
                TransportEvent::PeerDead { .. } => {
                    // A worker that died mid-farm would stall the run;
                    // the harness watchdog surfaces it. Restart-based
                    // recovery is exercised by re-running the farm over
                    // the same durable directories.
                }
            }
        }
        self.events = events;
    }

    fn on_msg(&mut self, from: Endpoint, msg: GridMsg) {
        match msg {
            GridMsg::Hello { have } => {
                self.workers.insert(from);
                for blob in have {
                    self.holders.entry(blob).or_default().insert(from);
                }
                let welcome = GridMsg::Welcome {
                    jobs_total: self.jobs.len() as u64,
                };
                let _ = self.t.send(from, welcome.encode());
                if self.workers.len() >= self.expected_workers && !self.dispatched {
                    self.dispatch_all();
                }
            }
            GridMsg::ChunkRequest { blob, index, .. } => {
                serve_chunk(&mut self.t, &self.store, &self.metrics, from, blob, index);
            }
            GridMsg::HaveBlob { blob } => {
                self.holders.entry(blob).or_default().insert(from);
            }
            GridMsg::JobResult { job, outputs } => {
                self.results.entry(job).or_insert((from, outputs));
                self.metrics.jobs_completed.incr();
                if self.results.len() == self.jobs.len() && !self.done {
                    for &w in &self.workers {
                        let _ = self.t.send(w, GridMsg::Shutdown.encode());
                    }
                    self.done = true;
                }
            }
            _ => {}
        }
    }

    /// All expected workers enrolled: hand out provider maps, then
    /// dispatch every job **round-robin by job index over the sorted
    /// worker set**. Deliberately not load-balanced by idleness: the
    /// assignment depends only on the job list and the worker set, so
    /// the sim and socket backends compute identical farms.
    fn dispatch_all(&mut self) {
        self.dispatched = true;
        let workers: Vec<Endpoint> = self.workers.iter().copied().collect();
        // Every worker learns the provider set of every module: the
        // orchestrator (origin) plus any worker that already holds the
        // blob (recovered from a previous run).
        for info in self.modules.values() {
            let mut providers = vec![self.t.local()];
            if let Some(holders) = self.holders.get(&info.hash) {
                providers.extend(holders.iter().copied());
            }
            let adverts: Vec<Advertisement> = providers
                .iter()
                .map(|&ep| blob_advert(ep, info, self.chunk_bytes))
                .collect();
            let msg = GridMsg::Providers {
                blob: info.hash,
                adverts,
            };
            for &w in &workers {
                let _ = self.t.send(w, msg.encode());
            }
        }
        for (i, job) in self.jobs.iter().enumerate() {
            let w = workers[i % workers.len()];
            self.assignment.insert(i as u64, w);
            let payload = GridMsg::encode_dispatch(i as u64, &job.module, &job.input);
            let _ = self.t.send(w, payload);
            self.metrics.jobs_dispatched.incr();
        }
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// A consumer-grid worker: enrols with the orchestrator, fetches module
/// blobs chunk-by-chunk from the swarm, verifies and caches them, runs
/// dispatched jobs through the prepared-execution cache, and serves its
/// own chunks onward.
pub struct WorkerNode<T> {
    t: T,
    orch: Endpoint,
    cache: ModuleCache,
    store: ChunkStore,
    durable: Option<DurableStore>,
    policy: SandboxPolicy,
    ctx: ExecContext,
    providers: BTreeMap<u64, Vec<Endpoint>>,
    /// Blobs being fetched: blob → the module it carries.
    fetching: BTreeMap<u64, ModuleInfo>,
    /// Jobs waiting for a blob fetch: blob → (job, input).
    waiting: BTreeMap<u64, Vec<(u64, Vec<f64>)>>,
    recovered_chunks: u64,
    done: bool,
    /// For job execution (metered by the TVM); counters use `metrics`.
    obs: obs::Obs,
    metrics: NodeMetrics,
    events: Vec<TransportEvent>,
}

impl<T: Transport> WorkerNode<T> {
    /// Build a worker. With `durable_dir`, peer state is recovered from
    /// and persisted to disk: recovered chunks are loaded back into the
    /// in-memory store (metered as `transport.recovered_chunks`), and
    /// sealed blobs go straight back into the module cache after
    /// re-verification.
    pub fn new(
        t: T,
        orch: Endpoint,
        chunk_bytes: u64,
        cache_capacity: u64,
        durable_dir: Option<&Path>,
        obs: obs::Obs,
    ) -> Self {
        let mut store = ChunkStore::new(chunk_bytes);
        let mut cache = ModuleCache::new(cache_capacity);
        cache.set_obs(obs.clone());
        let mut recovered_chunks = 0;
        let durable = durable_dir.map(|dir| {
            let d = DurableStore::open(dir).expect("open durable store");
            recovered_chunks = d.load_into(&mut store).expect("load recovered chunks");
            obs.add("transport.recovered_chunks", recovered_chunks);
            obs.add("transport.dropped_chunks", d.report().dropped_chunks);
            // Re-admit sealed blobs to the cache; assemble() re-verifies
            // the content hash, so a torn store can never resurrect a
            // corrupt module.
            for (name, version, blob) in d.sealed() {
                if store.is_complete(blob) {
                    if let Ok(module_blob) = store.assemble(blob) {
                        cache.insert(ModuleKey::new(&name, version), module_blob);
                    }
                }
            }
            d
        });
        WorkerNode {
            t,
            orch,
            cache,
            store,
            durable,
            policy: SandboxPolicy::standard(),
            ctx: ExecContext::default(),
            providers: BTreeMap::new(),
            fetching: BTreeMap::new(),
            waiting: BTreeMap::new(),
            recovered_chunks,
            done: false,
            metrics: NodeMetrics::new(&obs),
            obs,
            events: Vec::new(),
        }
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    pub fn transport(&self) -> &T {
        &self.t
    }

    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.t
    }

    /// Chunks recovered from the durable store at startup.
    pub fn recovered_chunks(&self) -> u64 {
        self.recovered_chunks
    }

    /// Cached modules as (name, version, hash), sorted — the
    /// backend-independent cache fingerprint the parity test compares.
    pub fn cached_modules(&self) -> Vec<(String, u32, u64)> {
        let mut v: Vec<(String, u32, u64)> = self
            .cache
            .entries()
            .map(|(k, blob)| (k.name.clone(), k.version, blob.hash))
            .collect();
        v.sort();
        v
    }

    /// Announce this worker to the orchestrator; call once before
    /// pumping. The Hello lists every complete blob already held (e.g.
    /// recovered from disk) so the orchestrator can advertise this
    /// worker as a provider.
    pub fn start(&mut self) {
        let mut have: Vec<u64> = self
            .durable
            .as_ref()
            .map(|d| {
                d.sealed()
                    .iter()
                    .filter(|(_, _, b)| self.store.is_complete(*b))
                    .map(|(_, _, b)| b.0)
                    .collect()
            })
            .unwrap_or_default();
        have.sort_unstable();
        let _ = self.t.send(self.orch, GridMsg::Hello { have }.encode());
    }

    /// Drive the node: drain transport events and react. Call in a loop.
    pub fn pump(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        self.t.poll(&mut events);
        for ev in events.drain(..) {
            match ev {
                TransportEvent::Delivered { from, payload } => match GridMsg::decode(&payload) {
                    Ok(msg) => self.on_msg(from, msg),
                    Err(_) => self.metrics.proto_errors.incr(),
                },
                TransportEvent::PeerDead { peer } => {
                    if peer == self.orch {
                        // Orchestrator unreachable: nothing left to work
                        // for.
                        self.done = true;
                    }
                }
            }
        }
        self.events = events;
    }

    fn on_msg(&mut self, from: Endpoint, msg: GridMsg) {
        match msg {
            GridMsg::Providers { blob, adverts } => {
                let mut eps: Vec<Endpoint> = adverts
                    .iter()
                    .filter_map(|a| match &a.body {
                        AdvertBody::Blob(b) if b.blob == blob => {
                            Some(Endpoint(u64::from(b.provider.0)))
                        }
                        _ => None,
                    })
                    .filter(|&ep| ep != self.t.local())
                    .collect();
                eps.sort_unstable();
                eps.dedup();
                self.providers.insert(blob, eps);
            }
            GridMsg::Dispatch { job, module, input } => {
                let key = ModuleKey::new(&module.name, module.version);
                if self.cache.contains(&key) {
                    self.run_job(job, &key, &input);
                } else if self.store.is_complete(BlobId(module.hash)) {
                    self.install_blob(&module);
                    self.run_job(job, &key, &input);
                } else {
                    self.waiting
                        .entry(module.hash)
                        .or_default()
                        .push((job, input));
                    self.begin_fetch(&module);
                }
            }
            GridMsg::ChunkRequest { blob, index, .. } => {
                serve_chunk(&mut self.t, &self.store, &self.metrics, from, blob, index);
            }
            GridMsg::ChunkData {
                blob,
                blob_len,
                index,
                bytes,
            } => {
                let id = BlobId(blob);
                if self.store.insert_chunk(id, blob_len, index, bytes.clone()) {
                    if let Some(d) = self.durable.as_mut() {
                        let _ = d.admit_chunk(id, blob_len, index, &bytes);
                    }
                }
                if self.store.is_complete(id) {
                    if let Some(module) = self.fetching.remove(&blob) {
                        self.finish_fetch(&module);
                    }
                }
            }
            GridMsg::Shutdown => {
                self.done = true;
            }
            _ => {}
        }
    }

    /// Request every missing chunk of a blob, striping requests
    /// round-robin across the provider set (the swarm pattern from
    /// `store::assign_round_robin`, here over a wire).
    fn begin_fetch(&mut self, module: &ModuleInfo) {
        if self.fetching.contains_key(&module.hash) {
            return;
        }
        let providers = self
            .providers
            .get(&module.hash)
            .cloned()
            .filter(|p| !p.is_empty())
            .unwrap_or_else(|| vec![self.orch]);
        let missing = self.store.missing(BlobId(module.hash), module.blob_len);
        for (i, index) in missing.into_iter().enumerate() {
            let target = providers[i % providers.len()];
            let req = GridMsg::ChunkRequest {
                blob: module.hash,
                blob_len: module.blob_len,
                index,
            };
            let _ = self.t.send(target, req.encode());
            self.metrics.chunks_requested.incr();
        }
        self.fetching.insert(module.hash, module.clone());
    }

    /// All chunks arrived: assemble, verify, cache, seal, announce, and
    /// run any jobs that were waiting on the blob.
    fn finish_fetch(&mut self, module: &ModuleInfo) {
        let id = BlobId(module.hash);
        match self.store.assemble(id) {
            Ok(blob) => {
                let key = ModuleKey::new(&module.name, module.version);
                self.cache.insert(key.clone(), blob);
                if let Some(d) = self.durable.as_mut() {
                    let _ = d.seal(id, &module.name, module.version);
                }
                let _ = self
                    .t
                    .send(self.orch, GridMsg::HaveBlob { blob: module.hash }.encode());
                // One cache lookup serves the whole backlog.
                let waiting = self.waiting.remove(&module.hash).unwrap_or_default();
                let prepared = self.cache.get_prepared(&key);
                for (job, input) in &waiting {
                    self.execute_and_reply(*job, prepared.as_deref(), input);
                }
            }
            Err(StoreError::HashMismatch { .. }) => {
                // Poisoned transfer: drop everything and re-fetch.
                self.metrics.verify_failures.incr();
                self.store.release(id);
                if let Some(d) = self.durable.as_mut() {
                    let _ = d.release(id);
                }
                self.begin_fetch(module);
            }
            Err(_) => {}
        }
    }

    /// A complete blob is already in the store (recovered): verify and
    /// admit it to the cache.
    fn install_blob(&mut self, module: &ModuleInfo) {
        let id = BlobId(module.hash);
        match self.store.assemble(id) {
            Ok(blob) => {
                self.cache
                    .insert(ModuleKey::new(&module.name, module.version), blob);
            }
            Err(_) => {
                // Recovered bytes fail verification: treat as absent.
                self.store.release(id);
                if let Some(d) = self.durable.as_mut() {
                    let _ = d.release(id);
                }
            }
        }
    }

    fn run_job(&mut self, job: u64, key: &ModuleKey, input: &[f64]) {
        let prepared = self.cache.get_prepared(key);
        self.execute_and_reply(job, prepared.as_deref(), input);
    }

    /// The one job path: execute the admitted module (a module that failed
    /// admission, or a run the sandbox killed, yields no outputs) and send
    /// the `JobResult`.
    fn execute_and_reply(&mut self, job: u64, prepared: Option<&PreparedModule>, input: &[f64]) {
        let inputs: &[&[f64]] = if input.is_empty() {
            &[]
        } else {
            std::slice::from_ref(&input)
        };
        let ran = prepared.map(|p| p.run_obs(inputs, &self.policy, &mut self.ctx, &self.obs));
        let outputs = match ran {
            Some(Ok(_stats)) => self.ctx.outputs(),
            _ => &[],
        };
        let msg = GridMsg::encode_job_result(job, outputs);
        let _ = self.t.send(self.orch, msg);
    }
}
