//! On-demand module management (§3.3).
//!
//! "When distributing an application, a Triana peer can send a connectivity
//! graph to another peer node … the peer can request executable code for
//! modules that are present within the connectivity graph. This dynamic
//! download of code … allows the peer to only host code that is necessary –
//! and overcomes the problem of having inconsistent versions of executables
//! … A resource-constrained device may also decide to selectively download
//! and release executable modules."
//!
//! * [`ModuleLibrary`] — the owner side: (name, version) → blob.
//! * [`ModuleCache`] — the hosting peer side: an LRU cache bounded in bytes,
//!   the "selectively download and release" mechanism.

use obs::Obs;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tvm::{ExecTier, ModuleBlob, PrepareError, TierPolicy};

/// Identity of a module: name plus version. Content hash disambiguates
/// further (stale copies of the same version are detected by hash).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleKey {
    pub name: String,
    pub version: u32,
}

impl ModuleKey {
    pub fn new(name: &str, version: u32) -> Self {
        ModuleKey {
            name: name.to_string(),
            version,
        }
    }
}

/// The code owner's library: source of truth for module blobs.
#[derive(Debug, Default)]
pub struct ModuleLibrary {
    blobs: HashMap<ModuleKey, ModuleBlob>,
}

impl ModuleLibrary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a blob. Re-publishing the same key replaces the blob —
    /// because peers always re-request from the owner, every subsequent
    /// execution uses the new code (the paper's version-consistency
    /// property).
    pub fn publish(&mut self, key: ModuleKey, blob: ModuleBlob) {
        self.blobs.insert(key, blob);
    }

    pub fn fetch(&self, key: &ModuleKey) -> Option<&ModuleBlob> {
        self.blobs.get(key)
    }

    /// Latest version of a named module.
    pub fn latest(&self, name: &str) -> Option<&ModuleKey> {
        self.blobs
            .keys()
            .filter(|k| k.name == name)
            .max_by_key(|k| k.version)
    }

    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

/// Cache statistics for experiment E8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Bytes inserted into the cache over its lifetime (= bytes downloaded).
    pub bytes_fetched: u64,
    /// High-water resident size.
    pub peak_resident: u64,
    /// Verify-once preparations performed at admission.
    pub prepares: u64,
    /// `get_prepared` lookups that found a resident prepared module.
    pub prepared_hits: u64,
    /// `get_prepared` lookups that found nothing prepared for the key.
    pub prepared_misses: u64,
}

/// Admissions already performed for the caches of one scheduler.
///
/// Every simulated worker of a farm admits the same few blobs, and
/// admission (integrity check, verification, translation) is a pure
/// function of the blob bytes and the [`TierPolicy`]; an [`ExecTier`] is
/// immutable and `Send + Sync`. So the caches of one scheduler share the
/// result: the first admission of a blob does the work, later ones get the
/// same `Arc`. Entries are found by content hash and policy and confirmed
/// by comparing every byte, so a colliding or forged `hash` field can
/// never hand out another blob's tier. Failed admissions are not kept.
///
/// The memo belongs to the scheduler that created it — one per world, so
/// a fresh world pays its own admissions — and never evicts: it holds one
/// entry per distinct blob the world's library ever served.
#[derive(Clone, Default)]
pub(crate) struct TierMemo(Arc<Mutex<Vec<Admitted>>>);

/// One successful admission: what was asked for and what came back.
struct Admitted {
    blob: ModuleBlob,
    policy: TierPolicy,
    tier: Arc<dyn ExecTier>,
}

impl TierMemo {
    fn admit(
        &self,
        blob: &ModuleBlob,
        policy: TierPolicy,
    ) -> Result<Arc<dyn ExecTier>, PrepareError> {
        let mut memo = self
            .0
            .lock()
            .expect("a cache panicked while admitting; the memo may be half-written");
        // A handful of entries, one per distinct blob of the world; the
        // hash comes first so bytes are only compared on the match.
        let known = memo
            .iter()
            .find(|a| a.blob.hash == blob.hash && a.policy == policy && a.blob.bytes == blob.bytes);
        if let Some(a) = known {
            return Ok(Arc::clone(&a.tier));
        }
        let tier = tvm::tier::admit(blob, policy)?;
        memo.push(Admitted {
            blob: blob.clone(),
            policy,
            tier: Arc::clone(&tier),
        });
        Ok(tier)
    }
}

/// A byte-bounded LRU cache of module blobs on a hosting peer.
///
/// Admission is also the verify-once point and the execution-tier
/// selection point: every cached blob is admitted through
/// [`tvm::tier::admit`] exactly once, so steady-state execution never
/// re-runs the bytecode verifier (the paper's JVM analogue: class
/// verification happens at load, not per invocation). Under the default
/// [`TierPolicy::Auto`], modules with translatable hot loops come back as
/// tier 2, straight-line code as the prepared tier.
pub struct ModuleCache {
    capacity: u64,
    resident: u64,
    /// Insertion/access order: front = least recently used.
    order: Vec<ModuleKey>,
    blobs: HashMap<ModuleKey, ModuleBlob>,
    /// Admitted execution tier of each resident blob (absent only if the
    /// blob failed to verify — corrupt entries stay resident for
    /// integrity audits).
    prepared: HashMap<ModuleKey, Arc<dyn ExecTier>>,
    tier_policy: TierPolicy,
    /// Shared admissions of the owning scheduler; `None` for a standalone
    /// cache, which admits every blob itself.
    memo: Option<TierMemo>,
    stats: CacheStats,
    obs: Obs,
}

impl std::fmt::Debug for ModuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleCache")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident)
            .field("order", &self.order)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ModuleCache {
    /// `capacity` in bytes — on a handheld this is small (§3.3's
    /// "limited capability to host code locally – due to memory
    /// constraints").
    pub fn new(capacity: u64) -> Self {
        ModuleCache {
            capacity,
            resident: 0,
            order: Vec::new(),
            blobs: HashMap::new(),
            prepared: HashMap::new(),
            tier_policy: TierPolicy::default(),
            memo: None,
            stats: CacheStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// A cache that shares admissions with the other caches holding
    /// `memo`. Behaves like [`ModuleCache::new`] in every observable way —
    /// statistics and metrics included — except that equal blobs come back
    /// as the same `Arc`.
    pub(crate) fn with_memo(capacity: u64, memo: TierMemo) -> Self {
        ModuleCache {
            memo: Some(memo),
            ..ModuleCache::new(capacity)
        }
    }

    /// Attach an observability handle; preparations and prepared-lookup
    /// hits/misses are metered through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Choose which execution tier future admissions construct. Already
    /// resident modules keep the tier they were admitted under.
    pub fn set_tier_policy(&mut self, policy: TierPolicy) {
        self.tier_policy = policy;
    }

    pub fn tier_policy(&self) -> TierPolicy {
        self.tier_policy
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn contains(&self, key: &ModuleKey) -> bool {
        self.blobs.contains_key(key)
    }

    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Iterate over resident entries without touching recency or hit/miss
    /// accounting. Iteration follows LRU order (least recent first) so
    /// walks are deterministic; integrity audits re-hash each blob against
    /// the content id expected for its key.
    pub fn entries(&self) -> impl Iterator<Item = (&ModuleKey, &ModuleBlob)> {
        self.order.iter().map(|k| (k, &self.blobs[k]))
    }

    /// Look up a blob, updating recency and hit/miss counters.
    pub fn get(&mut self, key: &ModuleKey) -> Option<&ModuleBlob> {
        if self.blobs.contains_key(key) {
            self.stats.hits += 1;
            self.touch(key);
            self.blobs.get(key)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Look up the admitted execution tier of a resident module, updating
    /// recency and prepared hit/miss counters. This is the execution-path
    /// accessor: workers call it once per run and reuse the returned
    /// [`Arc`] across an [`tvm::ExecContext`].
    pub fn get_prepared(&mut self, key: &ModuleKey) -> Option<Arc<dyn ExecTier>> {
        if let Some(p) = self.prepared.get(key) {
            let p = Arc::clone(p);
            self.stats.prepared_hits += 1;
            self.obs.incr("tvm.prepared_cache_hits");
            self.touch(key);
            Some(p)
        } else {
            self.stats.prepared_misses += 1;
            self.obs.incr("tvm.prepared_cache_misses");
            None
        }
    }

    /// Admitted tier of a resident module without touching recency or
    /// hit/miss accounting — for integrity audits (chaos invariants check
    /// that every admitted module still matches its key's content id).
    pub fn prepared_of(&self, key: &ModuleKey) -> Option<&Arc<dyn ExecTier>> {
        self.prepared.get(key)
    }

    /// Insert a downloaded blob, evicting least-recently-used entries until
    /// it fits. Returns `false` (and caches nothing) if the blob alone
    /// exceeds capacity — the device executes it streaming-style without
    /// retention. Admitted blobs are verified and prepared exactly once,
    /// here; blobs that fail verification stay resident (integrity audits
    /// want to see them) but have no prepared form.
    pub fn insert(&mut self, key: ModuleKey, blob: ModuleBlob) -> bool {
        let size = blob.len() as u64;
        self.stats.bytes_fetched += size;
        if size > self.capacity {
            return false;
        }
        if let Some(old) = self.blobs.remove(&key) {
            self.resident -= old.len() as u64;
            self.order.retain(|k| k != &key);
            self.prepared.remove(&key);
        }
        while self.resident + size > self.capacity {
            let victim = self.order.remove(0);
            let evicted = self
                .blobs
                .remove(&victim)
                .expect("order and map out of sync");
            self.prepared.remove(&victim);
            self.resident -= evicted.len() as u64;
            self.stats.evictions += 1;
        }
        let admitted = match &self.memo {
            Some(memo) => memo.admit(&blob, self.tier_policy),
            None => tvm::tier::admit(&blob, self.tier_policy),
        };
        match admitted {
            Ok(tier) => {
                self.stats.prepares += 1;
                self.obs.incr("tvm.prepares");
                self.obs
                    .observe("tvm.prepare_us", tier.modeled_prepare_us());
                let regions = tier.regions_translated() as u64;
                if regions > 0 {
                    self.obs.add("tvm.tier2_regions", regions);
                }
                self.prepared.insert(key.clone(), tier);
            }
            Err(_) => {
                self.obs.incr("tvm.prepare_failures");
            }
        }
        self.resident += size;
        self.order.push(key.clone());
        self.blobs.insert(key, blob);
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident);
        true
    }

    /// Explicitly release a module ("download and release code modules
    /// on-demand").
    pub fn release(&mut self, key: &ModuleKey) -> bool {
        if let Some(b) = self.blobs.remove(key) {
            self.resident -= b.len() as u64;
            self.order.retain(|k| k != key);
            self.prepared.remove(key);
            true
        } else {
            false
        }
    }

    fn touch(&mut self, key: &ModuleKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvm::asm::assemble;

    fn blob_of_size(name: &str, approx: usize) -> ModuleBlob {
        // Pad with push/pop pairs (9+1 bytes each) to reach ~approx bytes.
        let pairs = approx / 10;
        let mut src = format!(".module {name} 1 0 0\n.func main 0\n");
        for _ in 0..pairs {
            src.push_str(" push 1\n pop\n");
        }
        src.push_str(" halt\n");
        assemble(&src).unwrap().to_blob()
    }

    #[test]
    fn library_publish_fetch_latest() {
        let mut lib = ModuleLibrary::new();
        lib.publish(ModuleKey::new("FFT", 1), blob_of_size("FFT", 100));
        lib.publish(ModuleKey::new("FFT", 3), blob_of_size("FFT", 100));
        lib.publish(ModuleKey::new("Wave", 2), blob_of_size("Wave", 100));
        assert_eq!(lib.latest("FFT"), Some(&ModuleKey::new("FFT", 3)));
        assert!(lib.fetch(&ModuleKey::new("FFT", 1)).is_some());
        assert!(lib.fetch(&ModuleKey::new("FFT", 2)).is_none());
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn republish_replaces_blob() {
        let mut lib = ModuleLibrary::new();
        let k = ModuleKey::new("M", 1);
        let b1 = blob_of_size("M", 50);
        let b2 = blob_of_size("M", 500);
        lib.publish(k.clone(), b1.clone());
        lib.publish(k.clone(), b2.clone());
        assert_eq!(lib.fetch(&k).unwrap().hash, b2.hash);
        assert_ne!(b1.hash, b2.hash);
    }

    #[test]
    fn cache_hits_and_misses_counted() {
        let mut cache = ModuleCache::new(10_000);
        let k = ModuleKey::new("A", 1);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), blob_of_size("A", 100));
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let a = blob_of_size("A", 400);
        let b = blob_of_size("B", 400);
        let c = blob_of_size("C", 400);
        let cap = a.len() as u64 + b.len() as u64 + 10; // fits two
        let mut cache = ModuleCache::new(cap);
        cache.insert(ModuleKey::new("A", 1), a);
        cache.insert(ModuleKey::new("B", 1), b);
        // Touch A so B becomes LRU.
        assert!(cache.get(&ModuleKey::new("A", 1)).is_some());
        cache.insert(ModuleKey::new("C", 1), c);
        assert!(cache.contains(&ModuleKey::new("A", 1)));
        assert!(
            !cache.contains(&ModuleKey::new("B", 1)),
            "B should be evicted"
        );
        assert!(cache.contains(&ModuleKey::new("C", 1)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_blob_is_not_cached() {
        let mut cache = ModuleCache::new(100);
        let big = blob_of_size("Big", 5_000);
        assert!(!cache.insert(ModuleKey::new("Big", 1), big.clone()));
        assert!(cache.is_empty());
        // but the download still counted
        assert_eq!(cache.stats().bytes_fetched, big.len() as u64);
    }

    #[test]
    fn resident_bytes_tracked_through_insert_release() {
        let mut cache = ModuleCache::new(100_000);
        let a = blob_of_size("A", 1_000);
        let sz = a.len() as u64;
        cache.insert(ModuleKey::new("A", 1), a);
        assert_eq!(cache.resident_bytes(), sz);
        assert!(cache.release(&ModuleKey::new("A", 1)));
        assert_eq!(cache.resident_bytes(), 0);
        assert!(!cache.release(&ModuleKey::new("A", 1)));
        assert_eq!(cache.stats().peak_resident, sz);
    }

    #[test]
    fn admission_prepares_exactly_once() {
        let mut cache = ModuleCache::new(100_000);
        let k = ModuleKey::new("A", 1);
        let blob = blob_of_size("A", 200);
        cache.insert(k.clone(), blob.clone());
        assert_eq!(cache.stats().prepares, 1);
        let p1 = cache.get_prepared(&k).expect("prepared at admission");
        let p2 = cache.get_prepared(&k).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "same prepared instance reused");
        assert_eq!(p1.source_hash(), blob.hash);
        let s = cache.stats();
        assert_eq!((s.prepared_hits, s.prepared_misses), (2, 0));
        // Lookups of non-resident keys meter as prepared misses.
        assert!(cache.get_prepared(&ModuleKey::new("B", 1)).is_none());
        assert_eq!(cache.stats().prepared_misses, 1);
    }

    #[test]
    fn corrupt_blob_admitted_without_prepared_form() {
        let mut cache = ModuleCache::new(100_000);
        let mut blob = blob_of_size("A", 200);
        let last = blob.bytes.len() - 1;
        blob.bytes[last] ^= 0xff; // break content integrity
        let k = ModuleKey::new("A", 1);
        assert!(cache.insert(k.clone(), blob));
        assert!(cache.contains(&k), "corrupt blob stays resident for audits");
        assert!(cache.get_prepared(&k).is_none());
        assert_eq!(cache.stats().prepares, 0);
        assert_eq!(cache.stats().prepared_misses, 1);
    }

    #[test]
    fn eviction_and_release_drop_prepared_forms() {
        let a = blob_of_size("A", 400);
        let b = blob_of_size("B", 400);
        let cap = a.len() as u64 + 10; // fits one
        let mut cache = ModuleCache::new(cap);
        let ka = ModuleKey::new("A", 1);
        let kb = ModuleKey::new("B", 1);
        cache.insert(ka.clone(), a);
        cache.insert(kb.clone(), b);
        assert!(cache.prepared_of(&ka).is_none(), "evicted with its blob");
        assert!(cache.prepared_of(&kb).is_some());
        cache.release(&kb);
        assert!(cache.prepared_of(&kb).is_none());
    }

    #[test]
    fn auto_admission_selects_tier_per_module() {
        let mut cache = ModuleCache::new(100_000);
        cache.insert(ModuleKey::new("A", 1), blob_of_size("A", 100));
        let straight = cache.prepared_of(&ModuleKey::new("A", 1)).unwrap();
        assert_eq!(straight.tier_name(), "prepared");
        assert_eq!(straight.regions_translated(), 0);
        let blob = assemble(LOOP_SRC).unwrap().to_blob();
        cache.insert(ModuleKey::new("Loop", 1), blob);
        let tier = cache.prepared_of(&ModuleKey::new("Loop", 1)).unwrap();
        assert_eq!(tier.tier_name(), "tier2");
        assert_eq!(tier.regions_translated(), 1);
        // An explicit policy overrides Auto for subsequent admissions.
        cache.set_tier_policy(TierPolicy::Legacy);
        cache.insert(ModuleKey::new("B", 1), blob_of_size("B", 100));
        let legacy = cache.prepared_of(&ModuleKey::new("B", 1)).unwrap();
        assert_eq!(legacy.tier_name(), "legacy");
    }

    const LOOP_SRC: &str = "\
.module Loop 1 0 1
.func main 1
 push 4
 store 0
loop:
 load 0
 outpush 0
 load 0
 push 1
 sub
 store 0
 load 0
 jnz loop
 halt
";

    /// Insert `blob` into a fresh cache built by `make`, observed by its
    /// own registry; returns the cache and the registry's snapshot.
    fn admit_observed(
        make: impl FnOnce() -> ModuleCache,
        blob: &ModuleBlob,
    ) -> (ModuleCache, String) {
        let obs = Obs::enabled();
        let mut cache = make();
        cache.set_obs(obs.clone());
        assert!(cache.insert(ModuleKey::new("M", 1), blob.clone()));
        let snapshot = obs.registry().expect("enabled").snapshot_json();
        (cache, snapshot)
    }

    #[test]
    fn shared_admission_is_invisible_except_for_the_arc() {
        let blob = assemble(LOOP_SRC).unwrap().to_blob();
        let memo = TierMemo::default();
        let (alone, alone_obs) = admit_observed(|| ModuleCache::new(100_000), &blob);
        let (first, first_obs) =
            admit_observed(|| ModuleCache::with_memo(100_000, memo.clone()), &blob);
        let (second, second_obs) =
            admit_observed(|| ModuleCache::with_memo(100_000, memo.clone()), &blob);
        // Each cache counts its own admission, memo hit or not, and meters
        // the same prepares / prepare_us / tier2_regions.
        assert_eq!(alone.stats().prepares, 1);
        assert_eq!(first.stats(), alone.stats());
        assert_eq!(second.stats(), alone.stats());
        assert_eq!(first_obs, alone_obs);
        assert_eq!(second_obs, alone_obs);
        let k = ModuleKey::new("M", 1);
        let (a, f, s) = (
            alone.prepared_of(&k).unwrap(),
            first.prepared_of(&k).unwrap(),
            second.prepared_of(&k).unwrap(),
        );
        assert!(Arc::ptr_eq(f, s), "caches of one memo share the tier");
        assert!(!Arc::ptr_eq(a, f), "a standalone cache admits for itself");
        assert_eq!((f.tier_name(), f.regions_translated()), ("tier2", 1));
        // Another scheduler's memo starts cold.
        let (other, _) = admit_observed(
            || ModuleCache::with_memo(100_000, TierMemo::default()),
            &blob,
        );
        assert!(!Arc::ptr_eq(other.prepared_of(&k).unwrap(), f));
    }

    #[test]
    fn memo_confirms_bytes_and_never_keeps_a_failure() {
        let memo = TierMemo::default();
        let good = blob_of_size("A", 200);
        // Same claimed hash, other bytes: must not be handed A's tier.
        let mut forged = blob_of_size("B", 300);
        forged.hash = good.hash;
        // A's bytes damaged in transit, hash field intact.
        let mut torn = good.clone();
        let last = torn.bytes.len() - 1;
        torn.bytes[last] ^= 0xff;

        // Failures first: nothing they leave behind may satisfy `good`.
        assert!(memo.admit(&torn, TierPolicy::Auto).is_err());
        assert!(memo.admit(&forged, TierPolicy::Auto).is_err());
        let tier = memo.admit(&good, TierPolicy::Auto).expect("valid blob");
        assert_eq!(tier.source_hash(), good.hash);
        // And with `good` memoised, its hash still opens no door.
        assert!(memo.admit(&torn, TierPolicy::Auto).is_err());
        assert!(memo.admit(&forged, TierPolicy::Auto).is_err());
        assert!(Arc::ptr_eq(
            &memo.admit(&good, TierPolicy::Auto).unwrap(),
            &tier
        ));

        // Through a cache: the forged blob stays resident without a tier.
        let mut cache = ModuleCache::with_memo(100_000, memo.clone());
        cache.insert(ModuleKey::new("A", 1), good);
        cache.insert(ModuleKey::new("B", 1), forged);
        assert!(cache.prepared_of(&ModuleKey::new("A", 1)).is_some());
        assert!(cache.prepared_of(&ModuleKey::new("B", 1)).is_none());
        assert_eq!(cache.stats().prepares, 1);
    }

    #[test]
    fn memo_keeps_tier_policies_apart() {
        let memo = TierMemo::default();
        let blob = assemble(LOOP_SRC).unwrap().to_blob();
        let names: Vec<&str> = [
            TierPolicy::Legacy,
            TierPolicy::Prepared,
            TierPolicy::Tier2,
            TierPolicy::Auto,
        ]
        .into_iter()
        .map(|policy| {
            let mut cache = ModuleCache::with_memo(100_000, memo.clone());
            cache.set_tier_policy(policy);
            cache.insert(ModuleKey::new("Loop", 1), blob.clone());
            cache
                .prepared_of(&ModuleKey::new("Loop", 1))
                .unwrap()
                .tier_name()
        })
        .collect();
        assert_eq!(names, ["legacy", "prepared", "tier2", "tier2"]);
        // Tier2 and Auto agree on this blob but were asked for separately.
        let t2 = memo.admit(&blob, TierPolicy::Tier2).unwrap();
        let auto = memo.admit(&blob, TierPolicy::Auto).unwrap();
        assert!(!Arc::ptr_eq(&t2, &auto));
    }

    #[test]
    fn reinsert_same_key_does_not_double_count() {
        let mut cache = ModuleCache::new(100_000);
        let a = blob_of_size("A", 1_000);
        let sz = a.len() as u64;
        cache.insert(ModuleKey::new("A", 1), a.clone());
        cache.insert(ModuleKey::new("A", 1), a);
        assert_eq!(cache.resident_bytes(), sz);
        assert_eq!(cache.len(), 1);
    }
}
