//! The iterative lookup state machine (`FIND_NODE` / `FIND_VALUE`).
//!
//! Kademlia lookups are *iterative*: the initiator keeps a shortlist of
//! the closest contacts it has heard of, queries up to α of them in
//! parallel, merges the closer contacts each reply brings back, and stops
//! when the k closest entries on the shortlist have all responded. This
//! module holds only the decision state — who to ask next, when we are
//! done — while the network layer owns the actual messages and timeouts.
//!
//! Hop accounting: every contact carries the depth at which it was
//! learned (seeds are depth 1; a contact first reported by a depth-d
//! responder is depth d+1). The lookup's hop count is the maximum depth
//! of any contact actually queried, i.e. the length of the longest
//! referral chain the walk followed — the routed analogue of a flooded
//! query's TTL consumption.

use crate::bucket::Contact;
use crate::id::NodeId;

/// Tuning knobs for an iterative lookup.
#[derive(Clone, Copy, Debug)]
pub struct LookupConfig {
    /// Result-set size: terminate when the `k` closest known are queried.
    pub k: usize,
    /// Parallelism: at most `alpha` requests in flight.
    pub alpha: usize,
}

impl Default for LookupConfig {
    fn default() -> Self {
        LookupConfig { k: 8, alpha: 3 }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EntryState {
    /// Known but not yet queried.
    New,
    /// Query sent, awaiting reply or timeout.
    InFlight,
    /// Replied.
    Responded,
    /// Timed out / refused.
    Failed,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    c: Contact,
    state: EntryState,
    depth: u32,
}

/// One in-progress iterative lookup.
pub struct Lookup {
    target: NodeId,
    cfg: LookupConfig,
    /// Sorted ascending by XOR distance to `target`; IDs unique.
    entries: Vec<Entry>,
    in_flight: usize,
}

impl Lookup {
    /// Start a lookup seeded from the initiator's routing table. Seeds are
    /// depth-1 contacts.
    pub fn new(
        target: NodeId,
        cfg: LookupConfig,
        seeds: impl IntoIterator<Item = Contact>,
    ) -> Self {
        let mut l = Lookup {
            target,
            cfg,
            entries: Vec::new(),
            in_flight: 0,
        };
        for c in seeds {
            l.offer(c, 1);
        }
        l
    }

    pub fn target(&self) -> NodeId {
        self.target
    }

    fn offer(&mut self, c: Contact, depth: u32) {
        if self.entries.iter().any(|e| e.c.id == c.id) {
            return;
        }
        let d = c.id.distance(self.target);
        let pos = self
            .entries
            .partition_point(|e| e.c.id.distance(self.target) < d);
        self.entries.insert(
            pos,
            Entry {
                c,
                state: EntryState::New,
                depth,
            },
        );
    }

    /// Contacts to query now: the closest `New` entries, up to the α
    /// in-flight budget, restricted to the candidate window (an entry
    /// farther than the k closest non-failed entries is never useful).
    /// Marks them in flight. Call after construction and after every
    /// `on_reply`/`on_fail`. Fills the caller's buffer (cleared first), so
    /// a lookup step need not allocate.
    pub fn next_batch(&mut self, out: &mut Vec<Contact>) {
        out.clear();
        let window = self.window_end();
        let mut budget = self.cfg.alpha.saturating_sub(self.in_flight);
        for e in self.entries.iter_mut().take(window) {
            if budget == 0 {
                break;
            }
            if e.state == EntryState::New {
                e.state = EntryState::InFlight;
                self.in_flight += 1;
                budget -= 1;
                out.push(e.c);
            }
        }
    }

    /// Index one past the last entry worth querying: the position of the
    /// k-th non-failed entry (inclusive window).
    fn window_end(&self) -> usize {
        let mut live = 0;
        for (i, e) in self.entries.iter().enumerate() {
            if e.state != EntryState::Failed {
                live += 1;
                if live == self.cfg.k {
                    return i + 1;
                }
            }
        }
        self.entries.len()
    }

    /// A queried contact replied with its closer contacts.
    pub fn on_reply(&mut self, from: NodeId, closer: impl IntoIterator<Item = Contact>) {
        let mut from_depth = 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.c.id == from) {
            if e.state == EntryState::InFlight {
                self.in_flight -= 1;
            }
            e.state = EntryState::Responded;
            from_depth = e.depth;
        }
        for c in closer {
            self.offer(c, from_depth + 1);
        }
    }

    /// A queried contact failed (timeout, offline, refused). Only an
    /// in-flight entry can fail: a timeout that races a reply that already
    /// arrived must not clobber the responded state. Returns whether the
    /// entry actually transitioned (callers meter real failures, not
    /// no-op timer fires).
    pub fn on_fail(&mut self, from: NodeId) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.c.id == from) {
            if e.state == EntryState::InFlight {
                self.in_flight -= 1;
                e.state = EntryState::Failed;
                return true;
            }
        }
        false
    }

    /// Done when nothing is in flight and every entry in the k-closest
    /// window is resolved (responded or failed).
    pub fn is_done(&self) -> bool {
        if self.in_flight > 0 {
            return false;
        }
        let window = self.window_end();
        self.entries[..window]
            .iter()
            .all(|e| matches!(e.state, EntryState::Responded | EntryState::Failed))
    }

    /// The k closest contacts that responded, ascending by distance — the
    /// lookup's result set (store targets for a publish, nearest-k for a
    /// join).
    pub fn closest_responded(&self) -> Vec<Contact> {
        self.entries
            .iter()
            .filter(|e| e.state == EntryState::Responded)
            .take(self.cfg.k)
            .map(|e| e.c)
            .collect()
    }

    /// Longest referral chain actually queried (see module docs).
    pub fn hops(&self) -> u32 {
        self.entries
            .iter()
            .filter(|e| {
                matches!(
                    e.state,
                    EntryState::InFlight | EntryState::Responded | EntryState::Failed
                )
            })
            .map(|e| e.depth)
            .max()
            .unwrap_or(0)
    }

    /// Contacts on the shortlist, in any state.
    pub fn known(&self) -> usize {
        self.entries.len()
    }

    /// Total number of queries issued so far.
    pub fn queried(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.state != EntryState::New)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u64) -> Contact {
        Contact {
            id: NodeId(id),
            peer: id as u32,
        }
    }

    fn batch(l: &mut Lookup) -> Vec<Contact> {
        let mut out = Vec::new();
        l.next_batch(&mut out);
        out
    }

    /// Run a full lookup against an in-memory network where every node
    /// knows `closest_of` its neighbours; returns the result set.
    fn drive(
        target: NodeId,
        cfg: LookupConfig,
        seeds: Vec<Contact>,
        answer: impl Fn(Contact) -> Option<Vec<Contact>>,
    ) -> Lookup {
        let mut l = Lookup::new(target, cfg, seeds);
        let mut guard = 0;
        while !l.is_done() {
            let batch = batch(&mut l);
            assert!(
                !batch.is_empty() || l.in_flight > 0,
                "not done but nothing to do"
            );
            for q in batch {
                match answer(q) {
                    Some(closer) => l.on_reply(q.id, closer),
                    None => {
                        l.on_fail(q.id);
                    }
                }
            }
            guard += 1;
            assert!(guard < 10_000, "lookup did not terminate");
        }
        l
    }

    #[test]
    fn lookup_converges_on_fully_known_network() {
        // 64 nodes, everyone knows everyone: one hop must suffice.
        let all: Vec<Contact> = (1..=64u64).map(|i| c(i * 97)).collect();
        let target = NodeId(1000);
        let cfg = LookupConfig { k: 4, alpha: 3 };
        let l = drive(target, cfg, all.clone(), |_q| Some(all.clone()));
        let mut want = all.clone();
        want.sort_unstable_by_key(|x| x.id.distance(target));
        want.truncate(4);
        assert_eq!(l.closest_responded(), want);
    }

    #[test]
    fn lookup_routes_through_referrals() {
        // A chain: seed knows only the next node, which knows the next…
        // The lookup must walk the chain to reach the target's
        // neighbourhood, and the hop count must reflect the chain depth.
        let chain: Vec<Contact> = (0..10u64).map(|i| c(1 << i)).collect();
        let target = NodeId(1); // closest is chain[0]
        let cfg = LookupConfig { k: 2, alpha: 1 };
        // Seed only with the farthest node; each node refers one closer.
        let seeds = vec![chain[9]];
        let l = drive(target, cfg, seeds, |q| {
            let idx = chain.iter().position(|x| x.id == q.id).unwrap();
            Some(if idx == 0 {
                vec![]
            } else {
                vec![chain[idx - 1]]
            })
        });
        let got = l.closest_responded();
        assert_eq!(got[0], chain[0]);
        assert_eq!(l.hops(), 10, "walked the full referral chain");
    }

    #[test]
    fn failures_do_not_stall_termination() {
        let all: Vec<Contact> = (1..=16u64).map(|i| c(i * 7)).collect();
        let target = NodeId(50);
        let cfg = LookupConfig { k: 4, alpha: 2 };
        // Every odd peer is dead.
        let l = drive(target, cfg, all.clone(), |q| {
            if q.peer % 2 == 1 {
                None
            } else {
                Some(all.clone())
            }
        });
        assert!(l.is_done());
        assert!(!l.closest_responded().is_empty());
        // The window widened past failed entries: responded set contains
        // only even peers.
        assert!(l.closest_responded().iter().all(|x| x.peer % 2 == 0));
    }

    #[test]
    fn all_dead_terminates_empty() {
        let seeds: Vec<Contact> = (1..=5u64).map(c).collect();
        let l = drive(NodeId(9), LookupConfig::default(), seeds, |_q| None);
        assert!(l.is_done());
        assert!(l.closest_responded().is_empty());
        assert_eq!(l.queried(), 5);
    }

    #[test]
    fn no_seeds_is_immediately_done() {
        let l = Lookup::new(NodeId(1), LookupConfig::default(), vec![]);
        assert!(l.is_done());
        assert_eq!(l.hops(), 0);
    }

    #[test]
    fn alpha_bounds_in_flight() {
        let seeds: Vec<Contact> = (1..=10u64).map(c).collect();
        let mut l = Lookup::new(NodeId(0), LookupConfig { k: 8, alpha: 3 }, seeds);
        assert_eq!(batch(&mut l).len(), 3);
        assert_eq!(batch(&mut l).len(), 0, "alpha exhausted until replies");
        l.on_reply(NodeId(1), vec![]);
        assert_eq!(batch(&mut l).len(), 1, "one slot freed");
    }
}
