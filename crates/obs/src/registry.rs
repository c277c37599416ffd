//! The metrics registry: counters, gauges, fixed-bucket histograms and a
//! bounded log of typed [`Event`]s.
//!
//! All collections are `BTreeMap`s so snapshot emission is deterministic
//! without a sort pass. Counters and histograms map each name to the one
//! slot its handles share (see [`crate::handle`]). Wall-clock measurements
//! go into the separate *volatile* section, which
//! [`Registry::snapshot_json`] excludes — the deterministic snapshot of a
//! seeded run must be byte-identical across machines and runs.

use crate::handle::{CounterSlot, HistogramSlot};
use crate::json;
use crate::Event;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on retained events; older events are dropped (and counted).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Power-of-two bucketed histogram of `u64` samples, as read out of its
/// slot for a snapshot (samples are recorded through the slot).
///
/// Bucket `i` counts samples `v` with `2^(i-1) < v <= 2^i` (bucket 0 takes
/// `v <= 1`). Only non-empty buckets appear in snapshots.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub(crate) buckets: [u64; 64],
}

impl Histogram {
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            (64 - (value - 1).leading_zeros() as usize).min(63)
        }
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Non-empty `(upper_bound, count)` pairs in ascending bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
            .collect()
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<CounterSlot>>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Arc<HistogramSlot>>,
    /// `(virtual time in microseconds, event)`, oldest first.
    events: VecDeque<(u64, Event)>,
    events_dropped: u64,
    /// Wall-clock / host-dependent values, excluded from the deterministic
    /// snapshot.
    volatile: BTreeMap<String, f64>,
}

/// Shared metrics store. Cheap to clone via `Arc` inside [`crate::Obs`].
/// The mutex guards the maps: it is taken to register a metric, on the
/// by-name paths, for gauges and events, and to snapshot — never by a
/// handle bump.
pub struct Registry {
    inner: Mutex<Inner>,
    event_capacity: usize,
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl Registry {
    pub fn with_event_capacity(event_capacity: usize) -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            event_capacity,
        }
    }

    /// The maps are valid after any partial update, so a thread that
    /// panicked holding the lock (a socket-farm worker's budget assert)
    /// does not turn every later bump and snapshot into a second panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot behind counter `name`, registered (invisible) on first use.
    pub(crate) fn counter_slot(&self, name: &str) -> Arc<CounterSlot> {
        with_slot(&mut self.lock().counters, name, Arc::clone)
    }

    /// The slot behind histogram `name`, registered (invisible) on first use.
    pub(crate) fn histogram_slot(&self, name: &str) -> Arc<HistogramSlot> {
        with_slot(&mut self.lock().histograms, name, Arc::clone)
    }

    pub fn add_counter(&self, name: &str, delta: u64) {
        with_slot(&mut self.lock().counters, name, |slot| slot.add(delta));
    }

    pub fn set_gauge(&self, name: &str, value: i64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Set the gauge to `value` only if it exceeds the current value
    /// (high-water marks such as peak queue depth).
    pub fn max_gauge(&self, name: &str, value: i64) {
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    pub fn observe(&self, name: &str, value: u64) {
        with_slot(&mut self.lock().histograms, name, |slot| slot.record(value));
    }

    /// Append `event` at virtual time `t_micros`, dropping (and counting)
    /// the oldest once the log is full. Allocates only while the log is
    /// still growing towards its capacity.
    pub fn record_event(&self, t_micros: u64, event: Event) {
        let mut inner = self.lock();
        if inner.events.len() >= self.event_capacity {
            inner.events.pop_front();
            inner.events_dropped += 1;
        }
        inner.events.push_back((t_micros, event));
    }

    pub fn set_volatile(&self, name: &str, value: f64) {
        self.lock().volatile.insert(name.to_string(), value);
    }

    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).map_or(0, |slot| slot.get())
    }

    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.lock().gauges.get(name).copied()
    }

    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// The deterministic snapshot: fixed top-level key order, `BTreeMap`
    /// iteration order inside each section, virtual-time timestamps only,
    /// and only the metrics that were bumped. Two identically-seeded runs
    /// produce byte-identical output.
    pub fn snapshot_json(&self) -> String {
        self.emit(false)
    }

    /// Deterministic snapshot plus the volatile (wall-clock) section; for
    /// human consumption, not for byte-comparison.
    pub fn snapshot_json_full(&self) -> String {
        self.emit(true)
    }

    fn emit(&self, with_volatile: bool) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"triana-obs/1\",\"counters\":{");
        let counters = inner.counters.iter().filter(|(_, slot)| slot.visible());
        for (i, (k, slot)) in counters.enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, k);
            out.push(':');
            out.push_str(&slot.get().to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        let histograms = inner
            .histograms
            .iter()
            .filter_map(|(k, slot)| Some((k, slot.load()?)));
        for (i, (k, h)) in histograms.enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, k);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (bound, count)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bound},{count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"events\":[");
        let mut detail = String::new();
        for (i, (t, e)) in inner.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"t\":{t},\"kind\":"));
            json::push_string(&mut out, e.kind());
            out.push_str(",\"detail\":");
            detail.clear();
            let _ = write!(detail, "{e}");
            json::push_string(&mut out, &detail);
            out.push('}');
        }
        out.push_str(&format!("],\"events_dropped\":{}", inner.events_dropped));
        if with_volatile {
            out.push_str(",\"volatile\":{");
            for (i, (k, v)) in inner.volatile.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, k);
                out.push(':');
                out.push_str(&format!("{v}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Run `f` on the slot behind `name`, inserting a fresh one first if the
/// name is new. One map walk when it exists; the name is copied only when
/// it does not.
fn with_slot<S: Default, R>(
    map: &mut BTreeMap<String, Arc<S>>,
    name: &str,
    f: impl FnOnce(&Arc<S>) -> R,
) -> R {
    if let Some(slot) = map.get(name) {
        return f(slot);
    }
    let slot = Arc::default();
    let out = f(&slot);
    map.insert(name.to_string(), slot);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::default();
        r.add_counter("a", 2);
        r.add_counter("a", 3);
        assert_eq!(r.counter_value("a"), 5);
        r.add_counter("b", u64::MAX);
        r.add_counter("b", 10);
        assert_eq!(r.counter_value("b"), u64::MAX);
    }

    #[test]
    fn gauges_set_and_max() {
        let r = Registry::default();
        r.set_gauge("depth", 4);
        r.set_gauge("depth", 2);
        assert_eq!(r.gauge_value("depth"), Some(2));
        r.max_gauge("peak", 3);
        r.max_gauge("peak", 1);
        r.max_gauge("peak", 9);
        assert_eq!(r.gauge_value("peak"), Some(9));
    }

    #[test]
    fn histogram_buckets_power_of_two() {
        let slot = HistogramSlot::default();
        for v in [0, 1, 2, 3, 4, 5, 1000] {
            slot.record(v);
        }
        let h = slot.load().expect("holds samples");
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1015);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0,1 -> bound 1; 2 -> 2; 3,4 -> 4; 5 -> 8; 1000 -> 1024
        assert_eq!(
            h.nonzero_buckets(),
            vec![(1, 2), (2, 1), (4, 2), (8, 1), (1024, 1)]
        );
    }

    #[test]
    fn histogram_extremes() {
        let slot = HistogramSlot::default();
        assert!(slot.load().is_none(), "an empty histogram is not emitted");
        slot.record(u64::MAX);
        let h = slot.load().expect("holds a sample");
        assert_eq!(h.nonzero_buckets(), vec![(u64::MAX, 1)]);
    }

    #[test]
    fn event_ring_bounds_and_counts_drops() {
        let r = Registry::with_event_capacity(3);
        for i in 0..5u64 {
            r.record_event(
                i,
                Event::FarmWorkerUp {
                    worker: 90 + i as u32,
                },
            );
        }
        assert_eq!(r.event_count(), 3);
        let snap = r.snapshot_json();
        assert!(snap.contains("\"events_dropped\":2"));
        assert!(snap.contains("worker=94"));
        assert!(!snap.contains("worker=90"));
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let r = Registry::default();
            r.add_counter("z.last", 1);
            r.add_counter("a.first", 2);
            r.observe("lat", 7);
            r.record_event(10, Event::FarmDispatch { job: 1, worker: 2 });
            r.set_volatile("wall_secs", 1.25);
            r.snapshot_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        // BTreeMap ordering: a.first before z.last.
        let ai = a.find("a.first").unwrap();
        let zi = a.find("z.last").unwrap();
        assert!(ai < zi);
        // Volatile section excluded from the deterministic snapshot.
        assert!(!a.contains("wall_secs"));
        assert!(!a.contains("volatile"));
    }

    /// The emitter escapes every string it writes; typed events render
    /// only digits and names, so the escaping is checked on the writer.
    #[test]
    fn quoted_text_is_escaped() {
        let mut out = String::new();
        json::push_string(&mut out, "detail \"quoted\"");
        assert_eq!(out, r#""detail \"quoted\"""#);
    }

    #[test]
    fn events_render_at_snapshot_time() {
        let r = Registry::default();
        r.record_event(7, Event::P2pQueryHit { id: 3, provider: 1 });
        let snap = r.snapshot_json();
        assert!(
            snap.contains(
                "\"events\":[{\"t\":7,\"kind\":\"p2p.query_hit\",\"detail\":\"id=3 provider=1\"}]"
            ),
            "{snap}"
        );
    }

    #[test]
    fn a_panic_holding_the_lock_does_not_take_obs_down() {
        let r = Arc::new(Registry::default());
        r.add_counter("before", 1);
        let holder = Arc::clone(&r);
        let joined = std::thread::spawn(move || {
            let _guard = holder.lock();
            panic!("worker assert while holding the registry");
        })
        .join();
        assert!(joined.is_err());
        assert!(r.inner.is_poisoned());
        r.add_counter("after", 2);
        r.observe("lat", 3);
        assert_eq!(r.counter_value("before"), 1);
        let snap = r.snapshot_json();
        assert!(snap.contains("\"after\":2,\"before\":1"), "{snap}");
    }

    #[test]
    fn full_snapshot_includes_volatile() {
        let r = Registry::default();
        r.set_volatile("wall_secs", 0.5);
        let full = r.snapshot_json_full();
        assert!(full.contains("\"volatile\":{\"wall_secs\":0.5}"));
    }
}
