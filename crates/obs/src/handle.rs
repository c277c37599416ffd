//! Typed metric handles: a counter or histogram resolved once by name,
//! then bumped without the registry lock.
//!
//! Each metric has exactly one slot, owned by the [`crate::Registry`] map
//! and shared (`Arc`) by every handle resolved for that name and by the
//! by-name path, so a handle, `Obs::incr(name)` and
//! `Registry::counter_value(name)` all see one value. A bump is a branch
//! on the handle's `Option` and relaxed atomic adds on the slot: no lock,
//! no map walk, no allocation. Atomics rather than `Cell`s because one
//! observer is shared by the worker threads of a socket farm.
//!
//! A slot is created at registration but is only *visible* — emitted in
//! the snapshot — once it has been bumped, so resolving handles for paths
//! a run never takes leaves the snapshot exactly as if the metric had
//! only ever been used by name.
//!
//! [`crate::handles!`] declares a layer's handle struct with each metric's
//! name written once, beside its field; [`Resolve`] is how it builds each
//! field.

use crate::registry::Histogram;
use crate::Obs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// `slot += delta`, saturating at `u64::MAX`.
#[inline]
fn saturating_add(slot: &AtomicU64, delta: u64) {
    if slot.fetch_add(delta, Relaxed).checked_add(delta).is_none() {
        slot.store(u64::MAX, Relaxed);
    }
}

/// One counter's storage.
#[derive(Debug, Default)]
pub(crate) struct CounterSlot {
    value: AtomicU64,
    /// Set by `add(0)`, which makes a counter appear as it does by name;
    /// any other bump leaves `value` non-zero, which is visible already.
    touched: AtomicBool,
}

impl CounterSlot {
    #[inline]
    pub(crate) fn add(&self, delta: u64) {
        if delta == 0 {
            self.touched.store(true, Relaxed);
        } else {
            saturating_add(&self.value, delta);
        }
    }

    pub(crate) fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    pub(crate) fn visible(&self) -> bool {
        self.get() != 0 || self.touched.load(Relaxed)
    }
}

/// One histogram's storage: [`Histogram`] with every field atomic, and the
/// count kept as the sum of the buckets.
#[derive(Debug)]
pub(crate) struct HistogramSlot {
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 64],
}

impl Default for HistogramSlot {
    fn default() -> Self {
        HistogramSlot {
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistogramSlot {
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Relaxed);
        saturating_add(&self.sum, value);
        // Extremes rarely move: a plain load skips the read-modify-write.
        if value < self.min.load(Relaxed) {
            self.min.fetch_min(value, Relaxed);
        }
        if value > self.max.load(Relaxed) {
            self.max.fetch_max(value, Relaxed);
        }
    }

    /// Visible once it holds a sample.
    pub(crate) fn load(&self) -> Option<Histogram> {
        let buckets: [u64; 64] = std::array::from_fn(|i| self.buckets[i].load(Relaxed));
        let count = buckets.iter().sum();
        (count > 0).then(|| Histogram {
            count,
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets,
        })
    }
}

/// A monotonic counter resolved once by name ([`crate::Obs::counter`]).
/// `Counter::default()`, and any counter resolved from a disabled `Obs`,
/// does nothing.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterSlot>>);

impl Counter {
    /// Add `delta` (saturating). `add(0)` still makes the counter appear
    /// in the snapshot.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(slot) = &self.0 {
            slot.add(delta);
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A histogram resolved once by name ([`crate::Obs::histogram`]); inert
/// when default or resolved from a disabled `Obs`.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<HistogramSlot>>);

impl HistogramHandle {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(slot) = &self.0 {
            slot.record(value);
        }
    }
}

/// A handle [`crate::handles!`] can resolve by its metric name.
pub trait Resolve: Default {
    fn resolve(obs: &Obs, name: &str) -> Self;
}

impl Resolve for Counter {
    fn resolve(obs: &Obs, name: &str) -> Self {
        obs.counter(name)
    }
}

impl Resolve for HistogramHandle {
    fn resolve(obs: &Obs, name: &str) -> Self {
        obs.histogram(name)
    }
}

/// Declare a struct of metric handles, each field written once beside its
/// metric name. The struct derives `Default` (every handle inert) and gets
/// `fn new(&Obs) -> Self`, which resolves every handle by its name; the
/// fields take the struct's visibility.
///
/// ```
/// obs::handles! {
///     struct Frames {
///         sent: obs::Counter = "frames.sent",
///         size: obs::HistogramHandle = "frames.size",
///     }
/// }
/// Frames::new(&obs::Obs::enabled()).sent.incr();
/// ```
#[macro_export]
macro_rules! handles {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $ty:ty = $metric:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $($vis $field: $ty,)*
        }

        impl $name {
            /// Resolve every handle from `obs`.
            $vis fn new(obs: &$crate::Obs) -> Self {
                $name {
                    $($field: <$ty as $crate::handle::Resolve>::resolve(obs, $metric),)*
                }
            }
        }
    };
}
