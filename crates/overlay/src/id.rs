//! The identifier space: 64-bit node and content IDs under the XOR metric.
//!
//! Kademlia's single trick is that `d(a, b) = a XOR b` is a metric with
//! unidirectional lookups: every step that fixes one more high bit of the
//! distance at least halves it, so iterative lookups converge in O(log n)
//! hops. 64 bits is plenty for the simulated populations (collisions at
//! 10⁶ peers have probability ~5·10⁻⁸ per pair) and keeps distances in a
//! machine word.

use std::fmt;

/// A point in the 64-bit XOR-metric identifier space. Both peers and
/// content keys live here; a provider record for key `K` is stored on the
/// k peers whose [`NodeId`]s are XOR-closest to `K`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:016x}", self.0)
    }
}

/// Finalizer of splitmix64: a strong 64→64 mixer, used so consecutive
/// peer indices land uniformly in the ID space.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: the content-key hash (same family the store layer
/// uses for blob ids).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl NodeId {
    /// Deterministic node ID for a peer, derived from its overlay index.
    /// Identity is stable across sessions of the same world, so routing
    /// tables can be rebuilt byte-identically.
    pub fn from_peer_index(index: u32) -> NodeId {
        NodeId(mix64(index as u64))
    }

    /// Content key for a namespaced name, e.g. `("svc", "triana")`.
    pub fn from_name(namespace: &str, name: &str) -> NodeId {
        let mut buf = Vec::with_capacity(namespace.len() + 1 + name.len());
        buf.extend_from_slice(namespace.as_bytes());
        buf.push(b':');
        buf.extend_from_slice(name.as_bytes());
        NodeId(fnv1a64(&buf))
    }

    /// Content key for a namespaced integer (blob hashes, versions).
    pub fn from_u64(namespace: &str, value: u64) -> NodeId {
        let mut buf = Vec::with_capacity(namespace.len() + 9);
        buf.extend_from_slice(namespace.as_bytes());
        buf.push(b':');
        buf.extend_from_slice(&value.to_le_bytes());
        NodeId(fnv1a64(&buf))
    }

    /// XOR distance to another ID.
    #[inline]
    pub fn distance(self, other: NodeId) -> u64 {
        self.0 ^ other.0
    }

    /// Index of the entry of `sorted` (ascending, no ID twice) XOR-nearest
    /// to `self`, `None` if there is none. Descends the bits from the top:
    /// the entries agreeing with `self` on a bit are closer than all that
    /// do not, and in a sorted slice each half is one `partition_point`.
    pub fn nearest_in(self, sorted: &[NodeId]) -> Option<usize> {
        let (mut lo, mut hi) = (0, sorted.len());
        for bit in (0..64).rev().map(|b| 1u64 << b) {
            if hi - lo <= 1 {
                break;
            }
            let ones = lo + sorted[lo..hi].partition_point(|id| id.0 & bit == 0);
            if ones == lo || ones == hi {
                continue; // the candidates all agree on this bit
            }
            if self.0 & bit != 0 {
                lo = ones;
            } else {
                hi = ones;
            }
        }
        (lo < hi).then_some(lo)
    }

    /// Index of the k-bucket this distance falls into for a flat table:
    /// position of the highest set bit of the distance (`None` for self).
    pub fn bucket_index(self, other: NodeId) -> Option<u32> {
        let d = self.distance(other);
        if d == 0 {
            None
        } else {
            Some(63 - d.leading_zeros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_distance_is_a_metric() {
        let a = NodeId(0b1010);
        let b = NodeId(0b0110);
        let c = NodeId(0b0001);
        assert_eq!(a.distance(a), 0);
        assert_eq!(a.distance(b), b.distance(a));
        // Triangle inequality holds for XOR (in fact d(a,c) <= d(a,b)^d(b,c)
        // bitwise, which implies <= d(a,b)+d(b,c)).
        assert!(a.distance(c) <= a.distance(b) + b.distance(c));
    }

    #[test]
    fn peer_ids_spread_across_the_space() {
        let ids: Vec<u64> = (0..64).map(|i| NodeId::from_peer_index(i).0).collect();
        let top_bits: std::collections::HashSet<u64> = ids.iter().map(|v| v >> 60).collect();
        assert!(
            top_bits.len() > 8,
            "mixer should spread indices over high nibbles, got {}",
            top_bits.len()
        );
        let uniq: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(uniq.len(), 64, "no collisions among small indices");
    }

    #[test]
    fn content_keys_are_namespaced() {
        assert_ne!(
            NodeId::from_name("svc", "triana"),
            NodeId::from_name("pipe", "triana")
        );
        assert_eq!(
            NodeId::from_u64("blob", 0xFEED),
            NodeId::from_u64("blob", 0xFEED)
        );
        assert_ne!(
            NodeId::from_u64("blob", 0xFEED),
            NodeId::from_u64("blob", 0xFEEE)
        );
    }

    #[test]
    fn nearest_in_matches_the_brute_force_scan() {
        let mut rng = netsim::Pcg32::new(0x1D, 7);
        assert_eq!(NodeId(5).nearest_in(&[]), None);
        for n in [1usize, 2, 3, 17, 400] {
            // Half the sets crowd into 2¹⁶ IDs so low bits decide.
            for shift in [0u32, 48] {
                let mut ids: Vec<NodeId> =
                    (0..n).map(|_| NodeId(rng.next_u64() >> shift)).collect();
                ids.sort_unstable();
                ids.dedup();
                for _ in 0..200 {
                    let target = NodeId(rng.next_u64() >> shift);
                    let scan = (0..ids.len()).min_by_key(|&i| ids[i].distance(target));
                    assert_eq!(target.nearest_in(&ids), scan, "{target:?} in {ids:?}");
                }
                assert_eq!(
                    ids[0].nearest_in(&ids),
                    Some(0),
                    "a member is its own nearest"
                );
            }
        }
    }

    #[test]
    fn bucket_index_is_highest_differing_bit() {
        let a = NodeId(0);
        assert_eq!(a.bucket_index(a), None);
        assert_eq!(a.bucket_index(NodeId(1)), Some(0));
        assert_eq!(a.bucket_index(NodeId(0b1000_0000)), Some(7));
        assert_eq!(a.bucket_index(NodeId(u64::MAX)), Some(63));
    }
}
