//! The Kademlia routing table: prefix-split k-buckets with LRU order,
//! packed into one contact array.
//!
//! The table starts as one bucket covering the whole ID space. When a
//! bucket fills and it covers the node's *own* ID, it splits into two
//! half-range buckets; buckets away from the own ID never split, which is
//! what bounds the table at O(k log n) contacts while keeping complete
//! knowledge of the node's own neighbourhood.
//!
//! Because only the own bucket ever splits, after `d` splits bucket
//! `j < d` is exactly "shares `j` leading bits with the own ID" and the
//! own bucket is "shares at least `d`". A contact's bucket is therefore
//! `min((id ^ own).leading_zeros(), d)` — no search — and the buckets sit
//! back to back, in that order, as runs of one `Vec<Contact>`.
//!
//! Within a run, contacts sit in least-recently-seen order: its first
//! slot is the LRU candidate for eviction. The table itself never decides
//! liveness — a full bucket surfaces its LRU contact through
//! [`Insert::Full`] and the network layer pings it, then calls
//! [`RoutingTable::replace_lru`] (evict the dead) or
//! [`RoutingTable::touch`] (refresh the live, dropping the newcomer, which
//! is Kademlia's bias toward long-lived peers).

use crate::id::NodeId;
use std::ops::Range;

/// A routing-table entry: an overlay ID plus the opaque peer handle the
/// network layer routes by (the p2p peer index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contact {
    pub id: NodeId,
    pub peer: u32,
}

/// Outcome of [`RoutingTable::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// New contact stored.
    Added,
    /// Already present; moved to most-recently-seen.
    Refreshed,
    /// Own ID or malformed; not stored.
    Ignored,
    /// The covering bucket is full and unsplittable. The caller should
    /// ping `lru` and either [`RoutingTable::replace_lru`] (dead) or
    /// [`RoutingTable::touch`] it (alive; newcomer is dropped).
    Full { lru: Contact },
}

/// The own bucket stops splitting at this depth: it then covers the own
/// ID and its last-bit sibling only.
const MAX_DEPTH: usize = 63;

/// Contact slots added per reallocation. A table holds a few dozen
/// contacts and there is one per DHT member, so doubling would strand
/// more memory than the table uses.
const GROW: usize = 4;

/// One peer's view of the overlay.
pub struct RoutingTable {
    own: NodeId,
    k: usize,
    /// Every contact: run `j` (bucket `j`) directly follows run `j - 1`,
    /// the own bucket comes last, LRU first within a run.
    contacts: Vec<Contact>,
    /// `ends[j]` is one past the last slot of run `j`, for each of the
    /// `ends.len()` split-off buckets; the own bucket's run ends where
    /// `contacts` does. Empty until the first split.
    ends: Vec<u16>,
}

impl RoutingTable {
    pub fn new(own: NodeId, k: usize) -> Self {
        assert!(k >= 1, "bucket capacity must be at least 1");
        assert!(
            k * (MAX_DEPTH + 1) <= u16::MAX as usize,
            "bucket capacity {k} overflows the run offsets"
        );
        RoutingTable {
            own,
            k,
            contacts: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// How many times the own bucket has split; also its bucket index.
    fn depth(&self) -> usize {
        self.ends.len()
    }

    fn bucket_of(&self, id: NodeId) -> usize {
        (self.own.distance(id).leading_zeros() as usize).min(self.depth())
    }

    /// The slots of bucket `j`.
    fn run(&self, j: usize) -> Range<usize> {
        let start = if j == 0 { 0 } else { self.ends[j - 1] as usize };
        let end = self
            .ends
            .get(j)
            .map_or(self.contacts.len(), |&e| e as usize);
        start..end
    }

    /// The bucket covering `id`, its run, and the slot holding `id` if it
    /// is stored (`contacts[slot..run.end].rotate_left(1)` makes it MRU).
    fn find(&self, id: NodeId) -> (usize, Range<usize>, Option<usize>) {
        let j = self.bucket_of(id);
        let run = self.run(j);
        let at = self.contacts[run.clone()].iter().position(|c| c.id == id);
        let at = at.map(|pos| run.start + pos);
        (j, run, at)
    }

    /// Store `c` at the MRU end of bucket `j`, whose run is `run`.
    fn push(&mut self, j: usize, run: &Range<usize>, c: Contact) {
        if self.contacts.len() == self.contacts.capacity() {
            self.contacts.reserve_exact(GROW);
        }
        self.contacts.insert(run.end, c);
        for e in &mut self.ends[j..] {
            *e += 1;
        }
    }

    /// Offer a contact to the table.
    pub fn insert(&mut self, c: Contact) -> Insert {
        if c.id == self.own {
            return Insert::Ignored;
        }
        loop {
            let (j, run, at) = self.find(c.id);
            if let Some(at) = at {
                self.contacts[at..run.end].rotate_left(1);
                return Insert::Refreshed;
            }
            if run.len() < self.k {
                self.push(j, &run, c);
                return Insert::Added;
            }
            if j == self.depth() && j < MAX_DEPTH {
                self.split();
                continue;
            }
            return Insert::Full {
                lru: self.contacts[run.start],
            };
        }
    }

    /// Split the own bucket: its contacts that differ from the own ID at
    /// the next bit become the new last split-off bucket, the rest stay.
    /// Both halves keep their LRU order.
    fn split(&mut self) {
        let (own, d) = (self.own, self.depth());
        let bit = 1u64 << (MAX_DEPTH - d);
        let start = self.run(d).start;
        let run = &mut self.contacts[start..];
        let mut moved = 0;
        for i in 0..run.len() {
            if own.distance(run[i].id) & bit != 0 {
                run[moved..=i].rotate_right(1);
                moved += 1;
            }
        }
        self.ends.push((start + moved) as u16);
    }

    /// Mark a contact as just-seen (moves it to the MRU end).
    pub fn touch(&mut self, id: NodeId) -> bool {
        let (_, run, at) = self.find(id);
        if let Some(at) = at {
            self.contacts[at..run.end].rotate_left(1);
        }
        at.is_some()
    }

    /// Evict the LRU contact of the bucket covering `c.id` and store `c`
    /// in its place (the liveness ping failed). Returns the evicted
    /// contact, or `None` if the bucket had room after all (then `c` is
    /// simply inserted).
    pub fn replace_lru(&mut self, c: Contact) -> Option<Contact> {
        if c.id == self.own {
            return None;
        }
        let (j, run, at) = self.find(c.id);
        if let Some(at) = at {
            self.contacts[at..run.end].rotate_left(1);
            return None;
        }
        if run.len() < self.k {
            self.push(j, &run, c);
            return None;
        }
        let evicted = std::mem::replace(&mut self.contacts[run.start], c);
        self.contacts[run].rotate_left(1);
        Some(evicted)
    }

    /// Drop a contact wherever it is (routing-table poison repair, or a
    /// peer observed dead outside the ping path).
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (j, _, at) = self.find(id);
        if let Some(at) = at {
            self.contacts.remove(at);
            for e in &mut self.ends[j..] {
                *e -= 1;
            }
        }
        at.is_some()
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.find(id).2.is_some()
    }

    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    pub fn n_buckets(&self) -> usize {
        self.depth() + 1
    }

    /// Bucket indices by ascending ID prefix: the split-off buckets below
    /// the own ID (own bit 1, rising index), the own bucket, those above
    /// it (own bit 0, falling index).
    fn buckets_by_prefix(&self) -> impl Iterator<Item = usize> {
        let (own, d) = (self.own.0, self.depth());
        let own_bit = move |j: &usize| own >> (MAX_DEPTH - j) & 1 == 1;
        (0..d)
            .filter(own_bit)
            .chain(std::iter::once(d))
            .chain((0..d).rev().filter(move |j| !own_bit(j)))
    }

    /// All contacts, bucket by bucket in ascending-prefix order (the order
    /// is pinned: `poison_routing_table` draws one random value per
    /// contact as it walks this, and the chaos digests follow).
    pub fn contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.buckets_by_prefix()
            .flat_map(|j| self.contacts[self.run(j)].iter().copied())
    }

    /// The `count` known contacts closest to `target` by XOR distance,
    /// ascending. Ties cannot occur (IDs are unique), so the order is
    /// deterministic.
    pub fn closest(&self, target: NodeId, count: usize) -> Vec<Contact> {
        let mut all = Vec::new();
        self.closest_into(target, count, &mut all);
        all
    }

    /// [`closest`](Self::closest) into a caller-owned buffer (cleared
    /// first). Hot reply paths pass a recycled scratch vector so serving a
    /// lookup step does not allocate.
    ///
    /// Buckets fall into distance bands around the bucket `t` covering
    /// `target`: its own contacts agree with the target on one bit more
    /// than anyone else and are strictly closest; every bucket beyond `t`
    /// first differs from the target at bit `t` (one band, contiguous in
    /// the array); bucket `j < t` first differs at bit `j`, so each is a
    /// band farther than the last. Each band is sorted only if the ones
    /// before it did not already yield `count`.
    pub fn closest_into(&self, target: NodeId, count: usize, out: &mut Vec<Contact>) {
        out.clear();
        let t = self.bucket_of(target);
        let beyond = self.run(t).end..self.contacts.len();
        let bands = [self.run(t), beyond]
            .into_iter()
            .chain((0..t).rev().map(|j| self.run(j)));
        for band in bands {
            if out.len() >= count {
                break;
            }
            let sorted = out.len();
            out.extend_from_slice(&self.contacts[band]);
            out[sorted..].sort_unstable_by_key(|c| c.id.distance(target));
        }
        out.truncate(count);
    }

    /// Test/diagnostic: per-bucket `(prefix, plen, len)` snapshot, in
    /// ascending-prefix order. A split-off bucket's prefix is the own ID's
    /// first `j + 1` bits with the last flipped; the own bucket's, `d` bits.
    pub fn bucket_shapes(&self) -> Vec<(u64, u32, usize)> {
        let d = self.depth();
        let shape = |j: usize| {
            let flip = if j < d { 1u64 << (MAX_DEPTH - j) } else { 0 };
            let plen = (j + 1).min(d) as u32;
            let mask = !u64::MAX.checked_shr(plen).unwrap_or(0);
            ((self.own.0 ^ flip) & mask, plen, self.run(j).len())
        };
        self.buckets_by_prefix().map(shape).collect()
    }

    /// Internal consistency: the runs tile the array in order, no bucket
    /// exceeds k, every contact lies in the prefix range of its run's
    /// bucket, and none is the own ID or stored twice. Used by proptests.
    pub fn check_invariants(&self) -> Result<(), String> {
        // `run(j)` spans two neighbours of this list, so the runs tile the
        // array exactly when it ascends.
        let ends = self.ends.iter().map(|&e| e as usize);
        let bounds: Vec<usize> = ends.chain([self.contacts.len()]).collect();
        if self.depth() > MAX_DEPTH || bounds.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("runs end at {bounds:?}"));
        }
        for j in 0..=self.depth() {
            let run = &self.contacts[self.run(j)];
            if run.len() > self.k {
                return Err(format!("bucket {j} holds {} > k={}", run.len(), self.k));
            }
            let stray = |c: &&Contact| c.id == self.own || self.bucket_of(c.id) != j;
            if let Some(c) = run.iter().find(stray) {
                return Err(format!("contact {c:?} stored in bucket {j}"));
            }
        }
        let mut ids: Vec<NodeId> = self.contacts.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        match ids.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(format!("contact {:?} stored twice", w[0])),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u64) -> Contact {
        Contact {
            id: NodeId(id),
            peer: (id & 0xFFFF) as u32,
        }
    }

    #[test]
    fn insert_refresh_and_lru_order() {
        let mut t = RoutingTable::new(NodeId(0), 3);
        assert_eq!(t.insert(c(1)), Insert::Added);
        assert_eq!(t.insert(c(2)), Insert::Added);
        assert_eq!(t.insert(c(1)), Insert::Refreshed);
        assert_eq!(t.len(), 2);
        assert_eq!(t.insert(c(0)), Insert::Ignored, "own id is never stored");
        t.check_invariants().unwrap();
    }

    #[test]
    fn full_far_bucket_surfaces_lru_without_splitting() {
        // Own ID has top bit 0; contacts with top bit 1 all land in the
        // far half, which must not split.
        let mut t = RoutingTable::new(NodeId(0), 2);
        let far = 1u64 << 63;
        assert_eq!(t.insert(c(far | 1)), Insert::Added);
        assert_eq!(t.insert(c(far | 2)), Insert::Added);
        match t.insert(c(far | 3)) {
            Insert::Full { lru } => assert_eq!(lru, c(far | 1), "LRU is the oldest"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Liveness ping says the LRU is alive: touch it; newcomer dropped.
        assert!(t.touch(NodeId(far | 1)));
        match t.insert(c(far | 3)) {
            Insert::Full { lru } => assert_eq!(lru, c(far | 2), "LRU rotated after touch"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Ping failed: evict and admit.
        let evicted = t.replace_lru(c(far | 3));
        assert_eq!(evicted, Some(c(far | 2)));
        assert!(t.contains(NodeId(far | 3)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn near_bucket_splits_instead_of_refusing() {
        let mut t = RoutingTable::new(NodeId(0), 2);
        // All contacts near own ID: bucket covering own ID keeps splitting.
        for id in 1..=8u64 {
            assert_ne!(
                t.insert(c(id)),
                Insert::Ignored,
                "near inserts must be accepted or split"
            );
        }
        assert!(t.n_buckets() > 1, "table must have split");
        assert!(t.len() >= 4);
        t.check_invariants().unwrap();
    }

    #[test]
    fn closest_returns_sorted_by_distance() {
        let mut t = RoutingTable::new(NodeId(0), 8);
        for id in [5u64, 9, 3, 200, 17] {
            t.insert(c(id));
        }
        let near = t.closest(NodeId(4), 3);
        let dists: Vec<u64> = near.iter().map(|x| x.id.distance(NodeId(4))).collect();
        let mut sorted = dists.clone();
        sorted.sort_unstable();
        assert_eq!(dists, sorted);
        assert_eq!(near[0].id, NodeId(5), "5 ^ 4 = 1 is the closest");
    }

    #[test]
    fn remove_repairs_poisoned_entries() {
        let mut t = RoutingTable::new(NodeId(0), 4);
        t.insert(c(42));
        assert!(t.contains(NodeId(42)));
        assert!(t.remove(NodeId(42)));
        assert!(!t.contains(NodeId(42)));
        assert!(!t.remove(NodeId(42)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn an_empty_table_owns_no_heap() {
        let t = RoutingTable::new(NodeId(7), 8);
        assert_eq!(t.contacts.capacity() + t.ends.capacity(), 0);
        assert_eq!(t.closest(NodeId(9), 8), vec![]);
        assert_eq!(t.bucket_shapes(), vec![(0, 0, 0)]);
    }
}
