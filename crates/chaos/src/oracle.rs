//! The fault oracle: the runtime half of a fault plan.
//!
//! The oracle owns the message-chaos state (drop/duplicate/delay windows)
//! and plugs into the two injection points the substrate exposes:
//!
//! * [`FaultOracle::tap`] — a [`netsim::EventTap`] installed on the event
//!   loop; it can swallow, duplicate or defer events *between* the queue
//!   and the handler.
//! * [`FaultOracle::send_filter`] — a predicate installed on the p2p
//!   overlay send path; it can discard a message before it ever touches
//!   the network.
//!
//! Safety taxonomy (why each fault is recoverable by design):
//! **drops** are restricted to discovery traffic (`Query`/`QueryHit`/
//! `Publish`) — losing discovery degrades to the controller fallback,
//! while dropping a `PipeData` or a local completion callback would strand
//! a token/job with no recovery path in the protocol; **duplicates** are
//! likewise restricted to discovery messages (receivers dedup hits and
//! adverts); **delays** may hit any overlay delivery because reordering is
//! something every handler must already tolerate. The `drop-output`
//! mutation deliberately breaks this taxonomy to prove the invariant
//! checker catches protocol-level loss.

use netsim::{Duration, EventTap, Intercept, Pcg32, SimTime};
use p2p::{Message, P2pEvent, PeerId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use triana_core::grid::{GridEvent, JobId, WorkerId};

fn is_discovery(msg: &Message) -> bool {
    // Flood-mode discovery plus the routed overlay's lookup/store traffic:
    // all of it is loss-tolerant (requests re-fire via lookup timeouts,
    // provider stores are republished) and idempotent under duplication,
    // so the oracle may drop and dup it freely without wedging the grid.
    matches!(
        msg,
        Message::Query { .. }
            | Message::QueryHit { .. }
            | Message::Publish { .. }
            | Message::FindNode { .. }
            | Message::FindNodeReply { .. }
            | Message::FindValue { .. }
            | Message::FindValueReply { .. }
            | Message::StoreProvider { .. }
    )
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Discovery messages discarded at the send path.
    pub drops: u64,
    /// Extra overlay deliveries injected (each adds one receive).
    pub dups: u64,
    /// Overlay deliveries deferred at least once.
    pub delays: u64,
    /// Events swallowed by the `drop-output` mutation.
    pub mutations: u64,
}

struct OracleState {
    rng: Pcg32,
    drop_until: SimTime,
    drop_pct: u8,
    dup_until: SimTime,
    dup_pct: u8,
    delay_until: SimTime,
    delay_pct: u8,
    delay_max: Duration,
    counters: ChaosCounters,
    mutate_drop_output: bool,
    /// While the mutation is armed: per job, the one worker its input has
    /// reached — `None` once a second worker (a retry or a speculative
    /// duplicate) has received it too.
    sole_copy: HashMap<JobId, Option<WorkerId>>,
}

/// Shared handle over the oracle state: the tap, the send filter, the
/// driver (window updates) and the invariant checker (counters) all hold
/// clones of it.
#[derive(Clone)]
pub struct FaultOracle {
    state: Rc<RefCell<OracleState>>,
}

impl FaultOracle {
    pub fn new(seed: u64) -> Self {
        FaultOracle {
            state: Rc::new(RefCell::new(OracleState {
                rng: Pcg32::new(seed, 0x0DDC),
                drop_until: SimTime::ZERO,
                drop_pct: 0,
                dup_until: SimTime::ZERO,
                dup_pct: 0,
                delay_until: SimTime::ZERO,
                delay_pct: 0,
                delay_max: Duration::ZERO,
                counters: ChaosCounters::default(),
                mutate_drop_output: false,
                sole_copy: HashMap::new(),
            })),
        }
    }

    /// Arm the `drop-output` mutation: the tap swallows the first
    /// `OutputArrived` of a job only one worker ever received — a delivered
    /// result no other copy will replace, lost at the protocol layer (a
    /// speculative duplicate's result, or the primary's it races, is not
    /// such a loss: the other copy completes the job). Used to prove the
    /// invariant checker + shrinker catch it.
    pub fn set_mutate_drop_output(&self, on: bool) {
        self.state.borrow_mut().mutate_drop_output = on;
    }

    pub fn set_drop_window(&self, until: SimTime, pct: u8) {
        let mut s = self.state.borrow_mut();
        s.drop_until = until;
        s.drop_pct = pct;
    }

    pub fn set_dup_window(&self, until: SimTime, pct: u8) {
        let mut s = self.state.borrow_mut();
        s.dup_until = until;
        s.dup_pct = pct;
    }

    pub fn set_delay_window(&self, until: SimTime, pct: u8, max: Duration) {
        let mut s = self.state.borrow_mut();
        s.delay_until = until;
        s.delay_pct = pct;
        s.delay_max = max;
    }

    pub fn counters(&self) -> ChaosCounters {
        self.state.borrow().counters
    }

    /// The overlay send filter half: install with `P2p::set_send_filter`.
    #[allow(clippy::type_complexity)]
    pub fn send_filter(&self) -> Box<dyn FnMut(SimTime, PeerId, PeerId, &Message) -> bool> {
        let state = Rc::clone(&self.state);
        Box::new(move |now, _from, _to, msg| {
            let mut s = state.borrow_mut();
            if now < s.drop_until && is_discovery(msg) {
                let pct = s.drop_pct as u64;
                if s.rng.below(100) < pct {
                    s.counters.drops += 1;
                    return false;
                }
            }
            true
        })
    }

    /// The event-tap half: install with `Sim::set_tap`.
    pub fn tap(&self) -> Box<dyn EventTap<GridEvent>> {
        struct Tap(Rc<RefCell<OracleState>>);
        impl EventTap<GridEvent> for Tap {
            fn intercept(&mut self, now: SimTime, ev: GridEvent) -> Intercept<GridEvent> {
                let mut s = self.0.borrow_mut();
                if s.mutate_drop_output && s.counters.mutations == 0 {
                    match ev {
                        GridEvent::InputArrived { job, worker, .. } => {
                            let sole = s.sole_copy.entry(job).or_insert(Some(worker));
                            if *sole != Some(worker) {
                                *sole = None;
                            }
                        }
                        GridEvent::OutputArrived { job, worker, .. }
                            if s.sole_copy.get(&job) == Some(&Some(worker)) =>
                        {
                            s.counters.mutations += 1;
                            return Intercept::Drop;
                        }
                        _ => {}
                    }
                }
                if let GridEvent::P2p(P2pEvent::Delivered { msg, .. }) = &ev {
                    if now < s.dup_until && is_discovery(msg) {
                        let pct = s.dup_pct as u64;
                        if s.rng.below(100) < pct {
                            s.counters.dups += 1;
                            let jitter = Duration::from_micros(1_000 + s.rng.below(50_000));
                            let copy = ev.clone();
                            return Intercept::DeliverAndSchedule(ev, jitter, copy);
                        }
                    }
                    if now < s.delay_until {
                        let pct = s.delay_pct as u64;
                        if s.rng.below(100) < pct {
                            s.counters.delays += 1;
                            let max = s.delay_max.as_micros().max(1);
                            let d = Duration::from_micros(1 + s.rng.below(max));
                            return Intercept::Reschedule(d, ev);
                        }
                    }
                }
                Intercept::Deliver(ev)
            }
        }
        Box::new(Tap(Rc::clone(&self.state)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_gate_the_filter() {
        let oracle = FaultOracle::new(1);
        let mut filter = oracle.send_filter();
        let q = Message::Query {
            id: p2p::QueryId(1),
            origin: PeerId(0),
            prev_hop: PeerId(0),
            ttl: 2,
            kind: p2p::QueryKind::ByService("x".into()),
        };
        // No window armed: everything passes.
        for _ in 0..50 {
            assert!(filter(SimTime::ZERO, PeerId(0), PeerId(1), &q));
        }
        // A 100% drop window eats every discovery message inside it…
        oracle.set_drop_window(SimTime::from_secs(10), 100);
        assert!(!filter(SimTime::from_secs(1), PeerId(0), PeerId(1), &q));
        // …but not past its end.
        assert!(filter(SimTime::from_secs(10), PeerId(0), PeerId(1), &q));
        assert_eq!(oracle.counters().drops, 1);
    }

    #[test]
    fn drop_filter_never_touches_pipe_data() {
        let oracle = FaultOracle::new(2);
        oracle.set_drop_window(SimTime::from_secs(1_000), 100);
        let mut filter = oracle.send_filter();
        let data = Message::PipeData {
            pipe: p2p::PipeId(3),
            tag: 7,
            bytes: 100,
        };
        for _ in 0..50 {
            assert!(filter(SimTime::ZERO, PeerId(0), PeerId(1), &data));
        }
        assert_eq!(oracle.counters().drops, 0);
    }
}
