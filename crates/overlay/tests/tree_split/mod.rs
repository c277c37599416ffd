//! The tree-split routing table the packed `overlay::RoutingTable`
//! replaced, kept as the reference its differential tests compare against:
//! a `Vec` of buckets in ascending-prefix order, each with its own contact
//! `Vec`, found by scanning, and a `closest` that sorts every contact.

use overlay::{Contact, Insert, NodeId};

struct Bucket {
    /// Top `plen` bits that every member ID shares.
    prefix: u64,
    plen: u32,
    /// LRU order: index 0 = least recently seen.
    contacts: Vec<Contact>,
}

impl Bucket {
    fn covers(&self, id: NodeId) -> bool {
        self.plen == 0 || (id.0 ^ self.prefix) >> (64 - self.plen) == 0
    }
}

/// One peer's view of the overlay.
pub struct TreeSplitTable {
    own: NodeId,
    k: usize,
    buckets: Vec<Bucket>,
}

impl TreeSplitTable {
    pub fn new(own: NodeId, k: usize) -> Self {
        assert!(k >= 1, "bucket capacity must be at least 1");
        TreeSplitTable {
            own,
            k,
            buckets: vec![Bucket {
                prefix: 0,
                plen: 0,
                contacts: Vec::new(),
            }],
        }
    }

    fn bucket_of(&self, id: NodeId) -> usize {
        self.buckets
            .iter()
            .position(|b| b.covers(id))
            .expect("buckets partition the ID space")
    }

    /// Offer a contact to the table.
    pub fn insert(&mut self, c: Contact) -> Insert {
        if c.id == self.own {
            return Insert::Ignored;
        }
        loop {
            let bi = self.bucket_of(c.id);
            let b = &mut self.buckets[bi];
            if let Some(pos) = b.contacts.iter().position(|x| x.id == c.id) {
                let existing = b.contacts.remove(pos);
                b.contacts.push(existing);
                return Insert::Refreshed;
            }
            if b.contacts.len() < self.k {
                b.contacts.push(c);
                return Insert::Added;
            }
            if b.covers(self.own) && b.plen < 63 {
                self.split(bi);
                continue;
            }
            return Insert::Full { lru: b.contacts[0] };
        }
    }

    /// Split bucket `bi` into its two half-prefix children, redistributing
    /// contacts. Only ever called for the bucket covering the own ID.
    fn split(&mut self, bi: usize) {
        let b = self.buckets.remove(bi);
        let plen = b.plen + 1;
        let bit = 1u64 << (64 - plen);
        let mut zero = Bucket {
            prefix: b.prefix,
            plen,
            contacts: Vec::new(),
        };
        let mut one = Bucket {
            prefix: b.prefix | bit,
            plen,
            contacts: Vec::new(),
        };
        for c in b.contacts {
            if c.id.0 & bit == 0 {
                zero.contacts.push(c);
            } else {
                one.contacts.push(c);
            }
        }
        self.buckets.insert(bi, one);
        self.buckets.insert(bi, zero);
    }

    /// Mark a contact as just-seen (moves it to the MRU end).
    pub fn touch(&mut self, id: NodeId) -> bool {
        let bi = self.bucket_of(id);
        let b = &mut self.buckets[bi];
        if let Some(pos) = b.contacts.iter().position(|x| x.id == id) {
            let c = b.contacts.remove(pos);
            b.contacts.push(c);
            true
        } else {
            false
        }
    }

    /// Evict the LRU contact of the bucket covering `c.id` and store `c`
    /// in its place (the liveness ping failed). Returns the evicted
    /// contact, or `None` if the bucket had room after all (then `c` is
    /// simply inserted).
    pub fn replace_lru(&mut self, c: Contact) -> Option<Contact> {
        if c.id == self.own {
            return None;
        }
        let bi = self.bucket_of(c.id);
        let b = &mut self.buckets[bi];
        if b.contacts.iter().any(|x| x.id == c.id) {
            self.touch(c.id);
            return None;
        }
        let evicted = if b.contacts.len() >= self.k {
            Some(b.contacts.remove(0))
        } else {
            None
        };
        self.buckets[bi].contacts.push(c);
        evicted
    }

    /// Drop a contact wherever it is (routing-table poison repair, or a
    /// peer observed dead outside the ping path).
    pub fn remove(&mut self, id: NodeId) -> bool {
        let bi = self.bucket_of(id);
        let b = &mut self.buckets[bi];
        let before = b.contacts.len();
        b.contacts.retain(|x| x.id != id);
        b.contacts.len() != before
    }

    pub fn contains(&self, id: NodeId) -> bool {
        let bi = self.bucket_of(id);
        self.buckets[bi].contacts.iter().any(|x| x.id == id)
    }

    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.contacts.len()).sum()
    }

    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// All contacts, bucket by bucket (test/diagnostic surface).
    pub fn contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.buckets.iter().flat_map(|b| b.contacts.iter().copied())
    }

    /// The `count` known contacts closest to `target` by XOR distance,
    /// ascending. Ties cannot occur (IDs are unique), so the order is
    /// deterministic.
    pub fn closest(&self, target: NodeId, count: usize) -> Vec<Contact> {
        let mut all: Vec<Contact> = self.contacts().collect();
        all.sort_unstable_by_key(|c| c.id.distance(target));
        all.truncate(count);
        all
    }

    /// Test/diagnostic: per-bucket `(prefix, plen, len)` snapshot.
    pub fn bucket_shapes(&self) -> Vec<(u64, u32, usize)> {
        self.buckets
            .iter()
            .map(|b| (b.prefix, b.plen, b.contacts.len()))
            .collect()
    }

    /// Internal consistency: buckets partition the space, every contact
    /// lies in its bucket's range, no bucket exceeds k, and only the chain
    /// of prefixes of the own ID may have split.
    pub fn check_invariants(&self) -> Result<(), String> {
        for b in &self.buckets {
            if b.contacts.len() > self.k {
                return Err(format!(
                    "bucket {:#x}/{} holds {} > k={}",
                    b.prefix,
                    b.plen,
                    b.contacts.len(),
                    self.k
                ));
            }
            for c in &b.contacts {
                if !b.covers(c.id) {
                    return Err(format!(
                        "contact {:?} outside bucket {:#x}/{}",
                        c, b.prefix, b.plen
                    ));
                }
                if c.id == self.own {
                    return Err("own ID stored as a contact".into());
                }
            }
        }
        // Partition: every ID pattern is covered exactly once. Check the
        // prefixes pairwise: no bucket's range may nest inside another's.
        for (i, a) in self.buckets.iter().enumerate() {
            for b in self.buckets.iter().skip(i + 1) {
                let plen = a.plen.min(b.plen);
                if plen == 0 || (a.prefix ^ b.prefix) >> (64 - plen) == 0 {
                    return Err(format!(
                        "buckets {:#x}/{} and {:#x}/{} overlap",
                        a.prefix, a.plen, b.prefix, b.plen
                    ));
                }
            }
        }
        let total_coverage: f64 = self
            .buckets
            .iter()
            .map(|b| (0.5f64).powi(b.plen as i32))
            .sum();
        if (total_coverage - 1.0).abs() > 1e-12 {
            return Err(format!("buckets cover {total_coverage} of the space"));
        }
        Ok(())
    }
}
