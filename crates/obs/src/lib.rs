//! Grid-wide observability for the consumer-grid workspace.
//!
//! Three pieces:
//!
//! * a metrics [`Registry`] — monotonic counters, gauges, power-of-two
//!   bucketed latency [`Histogram`]s — plus a bounded log of typed
//!   [`Event`]s keyed on **virtual** (simulation) time. An event is a
//!   `Copy` value carrying its ids; its kind and detail text are rendered
//!   only by a snapshot, so recording into a full log allocates nothing;
//! * a cheap handle, [`Obs`], threaded through the engine, grid
//!   schedulers, P2P overlay and TVM. A disabled handle is a single
//!   `Option` branch per call site, so instrumentation costs nothing when
//!   off (the default everywhere);
//! * typed metric handles, [`Counter`] and [`HistogramHandle`], resolved
//!   once by name from an `Obs` and bumped on per-message paths with one
//!   relaxed atomic add — no lock, no map lookup, no allocation. The
//!   by-name methods on `Obs` resolve and bump in one call, for cold sites.
//!   A layer declares its handles once with [`handles!`], each field beside
//!   its metric name, and keeps no second count beside them.
//!
//! Snapshots serialize to JSON with a fixed key order and no wall-clock
//! data, so two identically-seeded runs emit byte-identical files; see
//! [`Registry::snapshot_json`]. Wall-clock measurements live in a separate
//! volatile section surfaced only by [`Registry::snapshot_json_full`].
//!
//! The crate is dependency-free (it ships its own tiny JSON emitter and
//! parser in [`json`]) so every other crate can depend on it without
//! widening the build graph.

pub mod event;
pub mod handle;
pub mod json;
pub mod registry;

pub use event::Event;
pub use handle::{Counter, HistogramHandle};
pub use registry::{Histogram, Registry, DEFAULT_EVENT_CAPACITY};

use std::sync::Arc;

/// Cheap, cloneable observability handle.
///
/// `Obs::disabled()` (also `Obs::default()`) is a `None` inside: every
/// recording method is one branch and returns. `Obs::enabled()` allocates
/// a shared [`Registry`] that all clones feed.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Registry>>,
}

impl Obs {
    /// The no-op handle; recording methods do nothing.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A recording handle backed by a fresh shared registry.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A recording handle with a bounded event log of `capacity` entries.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Registry::with_event_capacity(capacity))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The backing registry, if enabled (for snapshots).
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.as_ref()
    }

    /// Resolve the named counter once, for a path that bumps it often.
    /// The handle shares its value with the by-name methods; it appears in
    /// the snapshot only once bumped.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|r| r.counter_slot(name)))
    }

    /// Resolve the named histogram once; see [`Obs::counter`].
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.inner.as_ref().map(|r| r.histogram_slot(name)))
    }

    /// Add `delta` to the named monotonic counter.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.inner {
            r.add_counter(name, delta);
        }
    }

    /// Increment the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set a gauge to an absolute value.
    pub fn gauge(&self, name: &str, value: i64) {
        if let Some(r) = &self.inner {
            r.set_gauge(name, value);
        }
    }

    /// Raise a gauge to `value` if it is a new high-water mark.
    pub fn gauge_max(&self, name: &str, value: i64) {
        if let Some(r) = &self.inner {
            r.max_gauge(name, value);
        }
    }

    /// Record one sample into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.inner {
            r.observe(name, value);
        }
    }

    /// Append a typed event at virtual time `t_micros`.
    pub fn event(&self, t_micros: u64, event: Event) {
        if let Some(r) = &self.inner {
            r.record_event(t_micros, event);
        }
    }

    /// Record a wall-clock / host-dependent value; excluded from the
    /// deterministic snapshot.
    pub fn volatile(&self, name: &str, value: f64) {
        if let Some(r) = &self.inner {
            r.set_volatile(name, value);
        }
    }

    /// Deterministic JSON snapshot, or `None` when disabled.
    pub fn snapshot_json(&self) -> Option<String> {
        self.inner.as_ref().map(|r| r.snapshot_json())
    }

    /// Snapshot including the volatile section, or `None` when disabled.
    pub fn snapshot_json_full(&self) -> Option<String> {
        self.inner.as_ref().map(|r| r.snapshot_json_full())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.incr("x");
        obs.gauge("g", 1);
        obs.observe("h", 1);
        obs.event(0, Event::FarmWorkerUp { worker: 0 });
        assert!(!obs.is_enabled());
        assert!(obs.snapshot_json().is_none());
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let other = obs.clone();
        obs.incr("shared");
        other.add("shared", 4);
        assert_eq!(obs.registry().unwrap().counter_value("shared"), 5);
    }

    #[test]
    fn snapshot_parses_with_expected_sections() {
        let obs = Obs::enabled();
        obs.incr("engine.fires");
        obs.observe("lat", 3);
        obs.event(1_000_000, Event::FarmDispatch { job: 1, worker: 4 });
        let snap = obs.snapshot_json().unwrap();
        let v = json::parse(&snap).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("triana-obs/1"));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("engine.fires")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("t").unwrap().as_u64(), Some(1_000_000));
        assert_eq!(
            events[0].get("kind").unwrap().as_str(),
            Some("farm.dispatch")
        );
        assert_eq!(
            events[0].get("detail").unwrap().as_str(),
            Some("job=1 worker=4")
        );
        assert_eq!(v.get("events_dropped").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn a_handle_appears_only_once_bumped_and_add_zero_bumps() {
        let obs = Obs::enabled();
        let _idle = obs.counter("idle");
        let zero = obs.counter("zero");
        let _hist = obs.histogram("lat");
        let empty = Obs::enabled().snapshot_json().unwrap();
        assert_eq!(obs.snapshot_json().unwrap(), empty);
        zero.add(0);
        let snap = obs.snapshot_json().unwrap();
        assert!(snap.contains("\"counters\":{\"zero\":0}"), "{snap}");
    }

    #[test]
    fn handle_and_by_name_share_one_value() {
        let obs = Obs::enabled();
        let c = obs.counter("shared");
        c.incr();
        obs.add("shared", 4);
        c.add(2);
        assert_eq!(obs.registry().unwrap().counter_value("shared"), 7);
        assert_eq!(obs.counter("shared").0.unwrap().get(), 7);
    }

    #[test]
    fn handles_saturate() {
        let obs = Obs::enabled();
        let c = obs.counter("big");
        c.add(u64::MAX - 1);
        c.add(5);
        c.incr();
        obs.add("big", 3);
        assert_eq!(obs.registry().unwrap().counter_value("big"), u64::MAX);
        let h = obs.histogram("h");
        h.observe(u64::MAX);
        h.observe(7);
        let snap = obs.snapshot_json().unwrap();
        let doc = json::parse(&snap).unwrap();
        let h = doc.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(h.get("min").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn default_and_disabled_handles_are_inert() {
        Counter::default().add(3);
        HistogramHandle::default().observe(3);
        let off = Obs::disabled();
        let (c, h) = (off.counter("c"), off.histogram("h"));
        c.incr();
        h.observe(1);
        assert!(c.0.is_none() && h.0.is_none());
        assert!(off.snapshot_json().is_none());
    }

    #[test]
    fn handles_from_clones_share_a_slot() {
        let obs = Obs::enabled();
        let other = obs.clone();
        let (a, b) = (obs.counter("n"), other.counter("n"));
        assert!(Arc::ptr_eq(a.0.as_ref().unwrap(), b.0.as_ref().unwrap()));
        a.incr();
        b.add(2);
        assert_eq!(other.registry().unwrap().counter_value("n"), 3);
    }

    #[test]
    fn concurrent_bumps_sum_exactly() {
        let obs = Obs::enabled();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, h) = (obs.counter("bumps"), obs.histogram("samples"));
                std::thread::spawn(move || {
                    for i in 0..100_000u64 {
                        c.incr();
                        h.observe(i % 5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(obs.registry().unwrap().counter_value("bumps"), 400_000);
        let snap = json::parse(&obs.snapshot_json().unwrap()).unwrap();
        let h = snap.get("histograms").unwrap().get("samples").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(400_000));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(4 * 200_000));
    }

    #[test]
    fn histogram_handle_matches_by_name_observe() {
        let samples = [0, 1, 2, 3, 900, 17, 1 << 40, u64::MAX, 5];
        let by_name = Obs::enabled();
        let handled = Obs::enabled();
        let h = handled.histogram("lat");
        for v in samples {
            by_name.observe("lat", v);
            h.observe(v);
        }
        assert_eq!(by_name.snapshot_json(), handled.snapshot_json());
    }

    crate::handles! {
        struct Declared {
            first: Counter = "layer.first",
            second: Counter = "layer.second",
            latency: HistogramHandle = "layer.latency_us",
        }
    }

    #[test]
    fn declared_handles_record_exactly_their_names() {
        let obs = Obs::enabled();
        let declared = Declared::new(&obs);
        declared.first.incr();
        declared.second.incr();
        declared.latency.observe(7);
        let snap = json::parse(&obs.snapshot_json().unwrap()).unwrap();
        let names = |section: &str| -> Vec<String> {
            let map = snap.get(section).unwrap().as_object().unwrap();
            map.keys().cloned().collect()
        };
        assert_eq!(names("counters"), ["layer.first", "layer.second"]);
        assert_eq!(names("histograms"), ["layer.latency_us"]);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("layer.first"), 1);
        assert_eq!(reg.counter_value("layer.second"), 1);

        let inert = Declared::default();
        inert.first.incr();
        inert.latency.observe(7);
        assert!(inert.first.0.is_none() && inert.second.0.is_none());
        assert!(inert.latency.0.is_none());
    }

    #[test]
    fn identical_recording_gives_identical_bytes() {
        let run = || {
            let obs = Obs::enabled();
            for i in 0..10u64 {
                obs.add("c", i);
                obs.observe("h", i * 17);
                obs.event(
                    i * 5,
                    Event::PipelineEmit {
                        token: i,
                        attempt: 0,
                    },
                );
            }
            obs.snapshot_json().unwrap()
        };
        assert_eq!(run(), run());
    }
}
