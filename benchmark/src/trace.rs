//! Driver spans: the traced run wraps every call it makes into a product
//! layer in a span — name, start, end, parent, round — recorded here, in
//! the benchmark's own files. Spans inside the product are a later issue.
//!
//! All spans come from one thread and nest strictly, so a span's self
//! time is its duration minus the durations of its direct children. Full
//! spans are kept for round 0 only (up to [`MAX_FULL_SPANS`]); every round
//! feeds the per-name aggregates the shares are computed from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Cap on spans kept in full: a 1500-job grid farm records half a million
/// per round, and the file is for reading one round's shape, not all of it.
pub const MAX_FULL_SPANS: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list, if it was kept.
    pub parent: Option<u32>,
    pub round: u32,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot in `spans` when this span is being kept in full.
    slot: Option<u32>,
}

pub struct Tracer {
    epoch: Instant,
    round: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

/// Handle returned by [`Tracer::enter`]; spans close innermost first.
#[must_use]
pub struct SpanId(usize);

/// Run `body` under a span named `name` when there is a tracer, bare
/// when there is none: the one driver loop serves both kinds of round.
pub fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    body: impl FnOnce() -> T,
) -> T {
    let id = tracer.as_deref_mut().map(|t| t.enter(name));
    let out = body();
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.exit(id);
    }
    out
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            round: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::new(),
            dropped: 0,
            aggregates: BTreeMap::new(),
        }
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.open(name, start_ns)
    }

    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.close(id, end_ns);
    }

    fn open(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let slot = if self.round != 0 {
            None
        } else if self.spans.len() < MAX_FULL_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.slot),
                round: self.round,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
        SpanId(self.stack.len())
    }

    fn close(&mut self, id: SpanId, end_ns: u64) {
        assert_eq!(id.0, self.stack.len(), "spans must close innermost first");
        let open = self.stack.pop().expect("asserted non-empty");
        let total = end_ns.saturating_sub(open.start_ns);
        let agg = self.aggregates.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
    }

    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name` as a share of the total time of `whole`.
    pub fn self_share(&self, name: &str, whole: &str) -> f64 {
        crate::stats::share(
            self.aggregate(name).self_ns as f64,
            self.aggregate(whole).total_ns as f64,
        )
    }

    /// The trace file: round-0 spans in full, every round's aggregates.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_dropped\":{},\"aggregates\":{{",
            self.dropped
        );
        for (i, (name, a)) in self.aggregates.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        s.push_str("},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.round
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// round[0..100] { a[10..40] { b[20..30] }  a[50..70] }
    fn nested() -> Tracer {
        let mut t = Tracer::new();
        let round = t.open("round", 0);
        let a = t.open("a", 10);
        let b = t.open("b", 20);
        t.close(b, 30);
        t.close(a, 40);
        let a = t.open("a", 50);
        t.close(a, 70);
        t.close(round, 100);
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = nested();
        assert_eq!(
            t.aggregate("a"),
            Aggregate {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t.aggregate("b").self_ns, 10);
        // The round's own time excludes a (50) but not b, which a covers.
        assert_eq!(t.aggregate("round").self_ns, 50);
        assert_eq!(t.aggregate("missing"), Aggregate::default());
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let t = nested();
        let sum: u64 = ["round", "a", "b"]
            .iter()
            .map(|n| t.aggregate(n).self_ns)
            .sum();
        assert_eq!(sum, t.aggregate("round").total_ns);
        assert_eq!(t.self_share("a", "round"), 0.4);
        assert_eq!(t.self_share("a", "missing"), 0.0);
    }

    #[test]
    fn round_zero_is_kept_in_full_with_parents_later_rounds_are_not() {
        let mut t = nested();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (20, 30));
        t.set_round(1);
        let r = t.open("round", 200);
        t.close(r, 300);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.aggregate("round").count, 2);
        let json = t.to_json("w", 7);
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":7,\"spans_dropped\":0,"));
        assert_eq!(json.matches("\"name\":").count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.open("a", 0);
        let _b = t.open("b", 1);
        t.close(a, 2);
    }
}
