//! The discrete-event engine: a clock plus a total-ordered event queue.
//!
//! `Sim<Ev>` is generic over the event payload so each layer (overlay,
//! workflow engine, experiment harness) can define its own event enum and
//! compose them with `From` impls. Ties in time are broken by insertion
//! sequence number, giving a total, deterministic order.
//!
//! The queue itself is a *calendar queue* (Brown, CACM 31(10), 1988): an
//! array of time buckets of fixed width, indexed by `(t / width) %
//! nbuckets`, each bucket a sorted chain of slot indices through one key
//! array beside the payload slab. Push appends to a chain in O(1) for
//! ties and later events and pop takes a chain's head, so both are O(1)
//! amortised versus the binary heap's O(log n) — the difference that
//! makes 10⁵-peer overlay experiments tractable. The pop order is
//! *exactly* the `(timestamp, insertion-seq)` total order of the old heap,
//! so every seeded experiment remains byte-identical.

use crate::rng::Pcg32;
use crate::time::{Duration, SimTime};

/// Minimum and maximum bucket-array sizes. The array is always a power of
/// two so the `% nbuckets` in the index computation compiles to a mask.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;

/// "No slot": the end of a bucket chain or of the free list, an empty
/// bucket's head and tail, and the cached minimum of an empty queue.
const NIL: u32 = u32::MAX;

/// The sort key of one slab slot, kept apart from the payload so chain
/// walks and window checks never touch the payload slab — it is read
/// exactly once per event, when it pops.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    seq: u64,
    /// A live slot's successor in its bucket chain; a free slot's
    /// successor in the free list. `NIL` ends either.
    next: u32,
}

/// One calendar bucket: the two ends of its chain, `NIL` when empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A standalone priority queue of timestamped events (earliest first,
/// FIFO among equal timestamps), implemented as a calendar queue over an
/// arena-backed payload slab.
///
/// Hot-path layout (see DESIGN.md "Hot-path memory layout"):
/// - Slot `i` of the slab holds a payload and `keys[i]` its `(at, seq)`
///   key plus one link. A bucket is the `head`/`tail` pair of a chain
///   through `keys`, ascending by `(at, seq)`, so a pending event costs
///   its slot plus a 24-byte key and a bucket costs 8 bytes. Push appends
///   (every tie, and any event no earlier than its bucket's tail),
///   prepends, or walks from the head; pop takes a head.
/// - The bucket width is a power of two, stored as `shift`, so the bucket
///   index is a shift and a mask. It is derived from the events due next
///   whenever the array resizes, and re-derived when the slow paths
///   (walks, empty-bucket scans) show it has gone stale.
/// - The cached global minimum is a slot index, making `peek_time` one
///   key read.
///
/// Push and pop allocate only when the slab outgrows its high-water mark
/// or the bucket array resizes, so a steady population allocates nothing.
pub struct EventQueue<Ev> {
    /// Event payloads; `None` exactly when the slot is on the free list.
    slab: Vec<Option<Ev>>,
    /// One key per slab slot; `next` threads the bucket chains and the
    /// free list.
    keys: Vec<Key>,
    /// Head of the free-slot list.
    free: u32,
    /// `buckets[i]` chains the events with `(at >> shift) % nbuckets == i`.
    buckets: Vec<Bucket>,
    /// log2 of the bucket width in microseconds.
    shift: u32,
    /// `buckets.len() - 1`.
    mask: usize,
    /// Slot of the global minimum, kept current on every push and pop so
    /// `peek_time` is O(1) and `&self`.
    min: u32,
    len: usize,
    next_seq: u64,
    /// Slow-path work metered since `window_seq` (see `charge`).
    work: usize,
    /// `next_seq` when the metering window opened.
    window_seq: u64,
    /// Every step ever charged (tests bound the work per push with it).
    #[cfg(test)]
    steps: u64,
}

impl<Ev> Default for EventQueue<Ev> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            keys: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY; MIN_BUCKETS],
            shift: 10,
            mask: MIN_BUCKETS - 1,
            min: NIL,
            len: 0,
            next_seq: 0,
            work: 0,
            window_seq: 0,
            #[cfg(test)]
            steps: 0,
        }
    }
}

impl<Ev> EventQueue<Ev> {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(&self, at: u64) -> usize {
        ((at >> self.shift) as usize) & self.mask
    }

    #[inline]
    fn key(&self, i: u32) -> (u64, u64) {
        let k = &self.keys[i as usize];
        (k.at, k.seq)
    }

    #[inline]
    pub fn push(&mut self, at: SimTime, ev: Ev) {
        let at = at.0;
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = Key { at, seq, next: NIL };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.keys[i as usize].next;
            self.slab[i as usize] = Some(ev);
            self.keys[i as usize] = key;
            i
        } else {
            self.slab.push(Some(ev));
            self.keys.push(key);
            (self.keys.len() - 1) as u32
        };
        self.len += 1;
        // `seq` is the largest yet, so the new key sorts after every key
        // with the same `at`: comparing times alone places it.
        let b = self.bucket_of(at);
        let Bucket { head, tail } = self.buckets[b];
        let mut walked = 0;
        if head == NIL {
            self.buckets[b] = Bucket { head: i, tail: i };
        } else if at >= self.keys[tail as usize].at {
            self.keys[tail as usize].next = i;
            self.buckets[b].tail = i;
        } else if at < self.keys[head as usize].at {
            self.keys[i as usize].next = head;
            self.buckets[b].head = i;
        } else {
            // head.at <= at < tail.at, so the walk stops before the tail.
            let mut p = head;
            loop {
                let n = self.keys[p as usize].next;
                walked += 1;
                if self.keys[n as usize].at > at {
                    break;
                }
                p = n;
            }
            self.keys[i as usize].next = self.keys[p as usize].next;
            self.keys[p as usize].next = i;
        }
        if self.min == NIL || at < self.keys[self.min as usize].at {
            self.min = i;
        }
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        } else if walked > 0 {
            self.charge(walked);
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let i = self.min;
        if i == NIL {
            return None;
        }
        let Key { at, next, .. } = self.keys[i as usize];
        let b = self.bucket_of(at);
        debug_assert_eq!(self.buckets[b].head, i, "the minimum heads its bucket");
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
        }
        let ev = self.slab[i as usize].take().expect("the minimum is live");
        self.keys[i as usize].next = self.free;
        self.free = i;
        self.len -= 1;
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        } else if next != NIL && (self.keys[next as usize].at ^ at) >> self.shift == 0 {
            // Fast path: the bucket's new head is in the popped event's
            // window, so it is the global minimum.
            self.min = next;
        } else {
            let (min, scanned) = self.find_next_after(b, at >> self.shift);
            self.min = min;
            self.charge(scanned);
        }
        Some((SimTime(at), ev))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        (self.min != NIL).then(|| SimTime(self.keys[self.min as usize].at))
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Find the minimum, scanning buckets calendar-style from the
    /// successor of bucket `after`, whose window `window` (a timestamp
    /// `>> shift`) `pop` has just emptied. Every pending event is at or
    /// after that window, so the head of the bucket `k` steps on is the
    /// minimum iff it lies in window `window + k` — written as a
    /// difference so no timestamp arithmetic can overflow. One empty lap
    /// falls back to a direct scan of the heads. Returns the minimum's
    /// slot and the buckets the search looked at.
    fn find_next_after(&self, after: usize, window: u64) -> (u32, usize) {
        if self.len == 0 {
            return (NIL, 0);
        }
        let mut b = after;
        for k in 1..self.buckets.len() {
            b = (b + 1) & self.mask;
            let head = self.buckets[b].head;
            if head != NIL && (self.keys[head as usize].at >> self.shift) - window == k as u64 {
                return (head, k);
            }
        }
        // Sparse year: jump straight to the global minimum.
        let min = self
            .buckets
            .iter()
            .map(|b| b.head)
            .filter(|&h| h != NIL)
            .min_by_key(|&h| self.key(h))
            .unwrap_or(NIL);
        (min, 2 * self.buckets.len())
    }

    /// Meter slow-path work: chain steps a push walked, buckets a pop
    /// scanned. A width goes stale when the events due next change shape
    /// while the population neither doubles nor quarters — a dense
    /// start-up burst followed by a sparse hold leaves 2 µs buckets under
    /// events 100 ms apart, and every pop laps the calendar. The hot path
    /// is one add and one compare; every `8 × nbuckets` steps,
    /// `recheck_width` decides.
    #[inline]
    fn charge(&mut self, steps: usize) {
        #[cfg(test)]
        {
            self.steps += steps as u64;
        }
        self.work += steps;
        if self.work > 8 * self.buckets.len() {
            self.recheck_width();
        }
    }

    /// If the metered work came to more than 8 steps a push (about twice
    /// the worst a benchmark workload costs), resize to re-derive the
    /// width; otherwise open a new metering window. A resize is bought by
    /// at least `8 × nbuckets` wasted steps, and the work depends only on
    /// the operation sequence, so this stays deterministic.
    #[cold]
    fn recheck_width(&mut self) {
        if self.work > 8 * (self.next_seq - self.window_seq) as usize {
            self.resize();
        } else {
            self.work = 0;
            self.window_seq = self.next_seq;
        }
    }

    /// Rebuild the bucket array for the current population: nbuckets is
    /// the next power of two ≥ len (clamped), and the width is twice the
    /// mean gap between the *earliest quarter* of the pending events,
    /// rounded up to a power of two. Sizing from the events due next, not
    /// from the whole span, keeps a far-future tail from crowding the near
    /// events into a few long chains (Brown samples the head for the same
    /// reason; on `grid_farm` the earliest half still reaches seconds
    /// ahead). A slightly-too-wide bucket costs a step on push, a
    /// too-narrow one a scan step on pop. Both depend only on queue
    /// contents, so resizing is deterministic.
    fn resize(&mut self) {
        let mut live = Vec::with_capacity(self.len);
        for b in &self.buckets {
            let mut i = b.head;
            while i != NIL {
                live.push(i);
                i = self.keys[i as usize].next;
            }
        }
        live.sort_unstable_by_key(|&i| self.key(i));
        let nbuckets = live
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let head = &live[..live.len().div_ceil(4)];
        let gap = match (head.first(), head.last()) {
            (Some(&f), Some(&l)) => {
                (self.keys[l as usize].at - self.keys[f as usize].at) / head.len() as u64
            }
            _ => 0,
        };
        // width = 2 × next_power_of_two(max(gap, 1)), capped at 2⁶³.
        self.shift = (u64::BITS - gap.saturating_sub(1).leading_zeros() + 1).min(63);
        self.mask = nbuckets - 1;
        self.buckets = vec![EMPTY; nbuckets];
        // Ascending order makes every rebuilt chain ascending.
        for &i in &live {
            self.keys[i as usize].next = NIL;
            let b = self.bucket_of(self.keys[i as usize].at);
            let bucket = &mut self.buckets[b];
            if bucket.tail == NIL {
                bucket.head = i;
            } else {
                self.keys[bucket.tail as usize].next = i;
            }
            bucket.tail = i;
        }
        self.min = live.first().copied().unwrap_or(NIL);
        self.work = 0;
        self.window_seq = self.next_seq;
    }
}

/// What an [`EventTap`] decides to do with an event popped from the queue,
/// *before* it reaches the handler.
pub enum Intercept<Ev> {
    /// Deliver this (possibly substituted) event now.
    Deliver(Ev),
    /// Swallow the event entirely: the handler never sees it.
    Drop,
    /// Deliver the first event now and schedule the second `delay` later
    /// (message duplication).
    DeliverAndSchedule(Ev, Duration, Ev),
    /// Do not deliver now; push the event back `delay` into the future
    /// (message delay / reorder).
    Reschedule(Duration, Ev),
}

/// A fault-injection hook threaded through [`Sim::step`]: every event popped
/// from the queue is offered to the tap, which may deliver, drop, duplicate
/// or defer it. Ownership of the event passes through the tap, so `Ev` needs
/// no `Clone` bound — duplication is the tap's job (it must construct the
/// copy itself).
pub trait EventTap<Ev> {
    fn intercept(&mut self, now: SimTime, ev: Ev) -> Intercept<Ev>;
}

/// The simulator: current time, pending events, and a root random stream.
pub struct Sim<Ev> {
    now: SimTime,
    queue: EventQueue<Ev>,
    rng: Pcg32,
    processed: u64,
    /// Optional hard stop; events scheduled later than this are still queued
    /// but `run` will not dispatch past it.
    horizon: Option<SimTime>,
    tap: Option<Box<dyn EventTap<Ev>>>,
}

impl<Ev> Sim<Ev> {
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: Pcg32::new(seed, 0xCAFE),
            processed: 0,
            horizon: None,
            tap: None,
        }
    }

    /// Install a fault-injection tap (see [`EventTap`]). Replaces any
    /// previous tap.
    pub fn set_tap(&mut self, tap: Box<dyn EventTap<Ev>>) {
        self.tap = Some(tap);
    }

    /// Remove the tap, returning it.
    pub fn take_tap(&mut self) -> Option<Box<dyn EventTap<Ev>>> {
        self.tap.take()
    }

    /// Timestamp of the next pending event, if any (does not advance time).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Root random stream (split it rather than drawing from it directly in
    /// per-entity code).
    pub fn rng(&mut self) -> &mut Pcg32 {
        &mut self.rng
    }

    /// Derive an independent random stream for an entity.
    pub fn stream(&mut self, id: u64) -> Pcg32 {
        self.rng.split(id)
    }

    /// Stop dispatching events after this instant.
    pub fn set_horizon(&mut self, at: SimTime) {
        self.horizon = Some(at);
    }

    /// Schedule an event `delay` after now.
    pub fn schedule(&mut self, delay: Duration, ev: Ev) {
        self.queue.push(self.now + delay, ev);
    }

    /// Schedule an event at an absolute instant (clamped to now if earlier;
    /// the past cannot be revisited).
    pub fn schedule_at(&mut self, at: SimTime, ev: Ev) {
        self.queue.push(at.max(self.now), ev);
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pop the next event, advancing the clock. Returns `None` when the
    /// queue is empty or the horizon is reached.
    pub fn step(&mut self) -> Option<Ev> {
        loop {
            let at = self.queue.peek_time()?;
            if let Some(h) = self.horizon {
                if at > h {
                    self.now = h;
                    return None;
                }
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            let ev = if let Some(tap) = self.tap.as_mut() {
                match tap.intercept(at, ev) {
                    Intercept::Deliver(ev) => ev,
                    Intercept::Drop => continue,
                    Intercept::DeliverAndSchedule(ev, delay, copy) => {
                        // A zero delay would still be FIFO-after the original
                        // (insertion seq breaks the tie), so no clamp needed.
                        self.queue.push(self.now + delay, copy);
                        ev
                    }
                    Intercept::Reschedule(delay, ev) => {
                        // Clamp to ≥1µs so a zero-delay defer cannot spin the
                        // loop forever re-popping the same event.
                        self.queue
                            .push(self.now + delay.max(Duration::from_micros(1)), ev);
                        continue;
                    }
                }
            } else {
                ev
            };
            self.processed += 1;
            return Some(ev);
        }
    }

    /// Run to completion (or horizon), dispatching each event to `handler`.
    /// The handler may schedule further events.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Sim<Ev>, Ev)) {
        while let Some(ev) = self.step() {
            handler(self, ev);
        }
    }

    /// Run until the given instant, then stop (events at exactly `until` are
    /// dispatched).
    pub fn run_until(&mut self, until: SimTime, mut handler: impl FnMut(&mut Sim<Ev>, Ev)) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    let ev = self.step().expect("peeked");
                    handler(self, ev);
                }
                _ => {
                    self.now = self.now.max(until.min(self.horizon.unwrap_or(until)));
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The binary-heap event queue the calendar queue replaced, kept as
    /// the reference it must agree with event for event (the differential
    /// tests below).
    struct BinaryHeapQueue<Ev: Ord> {
        heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
        next_seq: u64,
    }

    impl<Ev: Ord> BinaryHeapQueue<Ev> {
        fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, at: SimTime, ev: Ev) {
            self.heap.push(Reverse((at, self.next_seq, ev)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, Ev)> {
            self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, ..))| *at)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Duration::from_micros(30), 3);
        sim.schedule(Duration::from_micros(10), 1);
        sim.schedule(Duration::from_micros(20), 2);
        let mut seen = vec![];
        sim.run(|s, ev| seen.push((s.now().as_micros(), ev)));
        assert_eq!(seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim: Sim<u32> = Sim::new(1);
        for i in 0..5 {
            sim.schedule(Duration::from_micros(7), i);
        }
        let mut seen = vec![];
        sim.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Duration::from_micros(1), 0);
        let mut count = 0;
        sim.run(|s, ev| {
            count += 1;
            if ev < 4 {
                s.schedule(Duration::from_micros(1), ev + 1);
            }
        });
        assert_eq!(count, 5);
        assert_eq!(sim.now().as_micros(), 5);
        assert_eq!(sim.processed(), 5);
    }

    #[test]
    fn horizon_stops_dispatch() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.set_horizon(SimTime(15));
        sim.schedule(Duration::from_micros(10), 1);
        sim.schedule(Duration::from_micros(20), 2);
        let mut seen = vec![];
        sim.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.now(), SimTime(15));
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Duration::from_micros(5), 1);
        sim.schedule(Duration::from_micros(50), 2);
        let mut seen = vec![];
        sim.run_until(SimTime(10), |_, ev| seen.push(ev));
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.now(), SimTime(10));
        assert_eq!(sim.pending(), 1);
        sim.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec![1, 2]);
    }

    struct DropOdd;
    impl EventTap<u32> for DropOdd {
        fn intercept(&mut self, _now: SimTime, ev: u32) -> Intercept<u32> {
            if ev % 2 == 1 {
                Intercept::Drop
            } else {
                Intercept::Deliver(ev)
            }
        }
    }

    #[test]
    fn tap_can_drop_events() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.set_tap(Box::new(DropOdd));
        for i in 0..6 {
            sim.schedule(Duration::from_micros(i as u64 + 1), i);
        }
        let mut seen = vec![];
        sim.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec![0, 2, 4]);
        // Dropped events are not counted as processed.
        assert_eq!(sim.processed(), 3);
    }

    struct DupFirst {
        done: bool,
    }
    impl EventTap<u32> for DupFirst {
        fn intercept(&mut self, _now: SimTime, ev: u32) -> Intercept<u32> {
            if !self.done {
                self.done = true;
                Intercept::DeliverAndSchedule(ev, Duration::from_micros(5), ev + 100)
            } else {
                Intercept::Deliver(ev)
            }
        }
    }

    #[test]
    fn tap_can_duplicate_events() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.set_tap(Box::new(DupFirst { done: false }));
        sim.schedule(Duration::from_micros(1), 7);
        let mut seen = vec![];
        sim.run(|s, ev| seen.push((s.now().as_micros(), ev)));
        assert_eq!(seen, vec![(1, 7), (6, 107)]);
    }

    struct DeferOnce {
        deferred: bool,
    }
    impl EventTap<u32> for DeferOnce {
        fn intercept(&mut self, _now: SimTime, ev: u32) -> Intercept<u32> {
            if !self.deferred {
                self.deferred = true;
                Intercept::Reschedule(Duration::from_micros(10), ev)
            } else {
                Intercept::Deliver(ev)
            }
        }
    }

    #[test]
    fn tap_can_defer_and_reorder_events() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.set_tap(Box::new(DeferOnce { deferred: false }));
        sim.schedule(Duration::from_micros(1), 1); // deferred to t=11
        sim.schedule(Duration::from_micros(2), 2);
        let mut seen = vec![];
        sim.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec![2, 1]);
        assert!(sim.take_tap().is_some());
    }

    #[test]
    fn schedule_at_clamps_to_now() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Duration::from_micros(10), 1);
        let mut fired_late = false;
        sim.run(|s, ev| {
            if ev == 1 {
                s.schedule_at(SimTime(3), 2); // in the past: clamps to now=10
            } else {
                fired_late = s.now() >= SimTime(10);
            }
        });
        assert!(fired_late);
    }

    /// Drive the calendar queue and the reference heap through an identical
    /// seeded push/pop schedule and demand event-for-event agreement. This
    /// is the determinism contract: swapping the queue implementation must
    /// not reorder any experiment.
    #[test]
    fn calendar_queue_matches_heap_differentially() {
        for seed in 0..8u64 {
            let mut rng = Pcg32::new(seed, 0xBEEF);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
            let mut clock: u64 = 0;
            let mut tag: u64 = 0;
            for round in 0..2_000 {
                let burst = rng.below(4) + 1;
                for _ in 0..burst {
                    // Mix dense near-future with sparse far-future events,
                    // plus exact ties to exercise FIFO ordering.
                    let dt = match rng.below(10) {
                        0 => 0,
                        1..=6 => rng.below(50),
                        7 | 8 => rng.below(5_000),
                        _ => rng.below(1_000_000),
                    };
                    let at = SimTime(clock + dt);
                    cal.push(at, tag);
                    heap.push(at, tag);
                    tag += 1;
                }
                let pops = if round % 7 == 0 { burst + 2 } else { burst };
                for _ in 0..pops {
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "divergence at seed {seed} round {round}");
                    if let Some((t, _)) = a {
                        clock = t.0;
                    }
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.peek_time(), heap.peek_time());
            }
            while let Some(a) = cal.pop() {
                assert_eq!(Some(a), heap.pop());
            }
            assert!(heap.pop().is_none());
        }
    }

    /// Same-timestamp floods (the clique-broadcast pattern) must stay FIFO
    /// through grow/shrink resizes.
    #[test]
    fn calendar_queue_fifo_through_resize() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10_000u32 {
            q.push(SimTime(42), i);
        }
        for i in 0..10_000u32 {
            let (t, ev) = q.pop().expect("still full");
            assert_eq!((t, ev), (SimTime(42), i));
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// Widely-spaced events (sparse years) must still pop in order: the
    /// full-lap fallback to a direct minimum scan.
    #[test]
    fn calendar_queue_handles_sparse_far_future() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(5), 1);
        q.push(SimTime(10_000_000_000), 3);
        q.push(SimTime(7_000_000), 2);
        assert_eq!(q.pop(), Some((SimTime(5), 1)));
        assert_eq!(q.pop(), Some((SimTime(7_000_000), 2)));
        q.push(SimTime(8_000_000), 10);
        assert_eq!(q.pop(), Some((SimTime(8_000_000), 10)));
        assert_eq!(q.pop(), Some((SimTime(10_000_000_000), 3)));
        assert_eq!(q.pop(), None);
    }

    /// The arena must recycle slots: interleaved push/pop at steady state
    /// keeps the slab at the high-water mark instead of growing forever.
    #[test]
    fn calendar_queue_arena_reuses_slots() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..64u32 {
            q.push(SimTime(i as u64), i);
        }
        let high_water = q.slab.len();
        for i in 64..100_000u32 {
            q.pop();
            q.push(SimTime(i as u64), i);
        }
        assert_eq!(q.slab.len(), high_water);
        assert_eq!(q.len(), 64);
    }

    /// Pop one event from each queue and demand they agree, in the popped
    /// event and in what is left.
    fn pop_both(cal: &mut EventQueue<u64>, heap: &mut BinaryHeapQueue<u64>) -> Option<SimTime> {
        let popped = cal.pop();
        assert_eq!(popped, heap.pop());
        assert_eq!(cal.len(), heap.len());
        assert_eq!(cal.peek_time(), heap.peek_time());
        popped.map(|(t, _)| t)
    }

    /// The shapes a hold model never shows, through grow and shrink
    /// resizes: bursts of hundreds of exact ties, a near cluster spread
    /// over µs–ms, and a far tail up to `u64::MAX - 1` that stays pending
    /// while the near events drain around it (so shrink resizes see it).
    /// Miri runs the same shapes at a fraction of the size.
    #[test]
    fn calendar_queue_matches_heap_on_skewed_shapes() {
        const FAR: u64 = 1 << 62;
        let (episodes, rounds) = if cfg!(miri) { (2, 3) } else { (24, 12) };
        let (mut peak, mut shrank) = (0, false);
        for episode in 0..episodes {
            let mut rng = Pcg32::new(episode, 0x5EED);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
            let (mut clock, mut far, mut tag) = (0u64, 0usize, 0u64);
            for round in 0..rounds {
                let tie = clock + rng.below(1_000);
                for _ in 0..100 + rng.below(400) {
                    let at = match rng.below(64) {
                        0 => {
                            far += 1;
                            FAR + rng.below(u64::MAX - FAR)
                        }
                        1..=30 => tie,
                        _ => {
                            let spread = 10u64.pow(1 + rng.below(4) as u32);
                            clock + rng.below(spread)
                        }
                    };
                    cal.push(SimTime(at), tag);
                    heap.push(SimTime(at), tag);
                    tag += 1;
                }
                peak = peak.max(cal.buckets.len());
                // Every other round, drain the near events down to a few.
                if round % 2 == 1 {
                    let keep = far + rng.below(32) as usize;
                    while cal.len() > keep {
                        clock = pop_both(&mut cal, &mut heap).expect("non-empty").0;
                    }
                    shrank |= cal.buckets.len() < peak;
                }
            }
            while pop_both(&mut cal, &mut heap).is_some() {}
        }
        assert!(peak >= 256 && shrank, "the schedule must grow and shrink");
    }

    /// A resize of a few live events spanning ≈ 2⁶⁴: the width is the
    /// widest the rule allows and no timestamp arithmetic overflows.
    #[test]
    fn calendar_queue_width_survives_a_span_of_2_64() {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        // 41 events grow the array to 64 buckets; popping the 26 earliest
        // leaves 15, which shrinks it to 16 — a resize whose earliest
        // quarter is {26, MAX-13, MAX-12, MAX-11}, a span of 2⁶⁴ - 38.
        let times = (0..27).chain((0..13).map(|i| u64::MAX - 13 + i));
        for (tag, at) in times.enumerate() {
            cal.push(SimTime(at), tag as u64);
            heap.push(SimTime(at), tag as u64);
        }
        cal.push(SimTime(u64::MAX), 99);
        heap.push(SimTime(u64::MAX), 99);
        while cal.len() > 15 {
            pop_both(&mut cal, &mut heap);
        }
        assert_eq!(cal.buckets.len(), MIN_BUCKETS);
        assert_eq!(cal.shift, 63);
        while pop_both(&mut cal, &mut heap).is_some() {}
    }

    /// The sim at `now > 0` schedules a duration of `u64::MAX`: the instant
    /// saturates at the end of time instead of wrapping into the past, so
    /// the normal event pops first and the clock never goes backwards.
    #[test]
    fn far_future_saturates_instead_of_wrapping() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule(Duration::from_micros(5), 0);
        let mut seen = vec![];
        sim.run(|s, ev| {
            seen.push((s.now(), ev));
            if ev == 0 {
                s.schedule(Duration(u64::MAX), 2);
                s.schedule(Duration::from_millis(1), 1);
            }
        });
        assert_eq!(
            seen,
            vec![(SimTime(5), 0), (SimTime(1_005), 1), (SimTime(u64::MAX), 2)]
        );
    }

    /// The work a `grid_farm` round puts on the queue: ≈ 500 worker churn
    /// transitions over the next hour, a dispatch burst in the first
    /// millisecond, then a hold whose delays follow the histogram of
    /// `log2(at - now)` measured on that workload's pushes (0 to 70 min,
    /// mode at 33–260 ms). The bound is on chain steps per push plus empty
    /// buckets per pop, so it fails a width that ignores the near events
    /// (the whole-span rule shifts ≈ 200 entries per push here) and one
    /// that starves pops (without the re-width meter, the burst's 2 µs
    /// width costs ≈ 345 scan steps per push in the hold).
    #[test]
    #[cfg_attr(miri, ignore = "a work bound, not a memory-safety check")]
    fn push_walks_stay_short_on_a_farm_schedule() {
        // Relative frequency of a delay in [2^(b-1), 2^b) µs, index b
        // (b = 0: a delay of 0).
        const DELAY_LOG2_WEIGHTS: [u64; 33] = [
            11, 0, 0, 4, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 11, 60, 320, 100, 280, 100, 75, 65, 35, 11,
            11, 6, 1, 1, 1, 1, 1, 3, 4,
        ];
        let total: u64 = DELAY_LOG2_WEIGHTS.iter().sum();
        let delay = |rng: &mut Pcg32| {
            let mut pick = rng.below(total);
            let mut b = 0;
            while pick >= DELAY_LOG2_WEIGHTS[b] {
                pick -= DELAY_LOG2_WEIGHTS[b];
                b += 1;
            }
            match b {
                0 => 0,
                b => (1 << (b - 1)) + rng.below(1 << (b - 1)),
            }
        };
        let mut rng = Pcg32::new(7, 0xFA23);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..500 {
            q.push(SimTime(60_000_000 + rng.below(3_540_000_000)), i);
        }
        for i in 0..1_600 {
            q.push(SimTime(1_000 + rng.below(1_000)), i);
        }
        let setup = q.steps;
        let pushes = 100_000;
        for i in 0..pushes {
            let (now, _) = q.pop().expect("the hold keeps the population");
            q.push(SimTime(now.0 + delay(&mut rng)), i);
        }
        let per_push = (q.steps - setup) as f64 / pushes as f64;
        assert!(per_push <= 4.0, "{per_push:.2} steps per push");
    }
}
