//! Property tests: the overlay's routing structures against brute-force
//! oracles.

use overlay::{Contact, Insert, Lookup, LookupConfig, NodeId, RoutingTable};
use proptest::prelude::*;

fn contact(id: u64) -> Contact {
    Contact {
        id: NodeId(id),
        peer: (id % 100_000) as u32,
    }
}

proptest! {
    /// XOR-distance ordering agrees with a brute-force comparator, and the
    /// metric is unidirectional: every distance from a target is realised
    /// by exactly one point (`x = t ^ d`), so sorts by distance never tie
    /// on distinct IDs.
    #[test]
    fn xor_distance_ordering_matches_oracle(
        target in proptest::arbitrary::any::<u64>(),
        ids in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 2..64),
    ) {
        let t = NodeId(target);
        let mut by_method: Vec<u64> = ids.clone();
        by_method.sort_unstable_by_key(|&x| NodeId(x).distance(t));
        let mut by_oracle: Vec<u64> = ids.clone();
        by_oracle.sort_unstable_by_key(|&x| x ^ target);
        prop_assert_eq!(&by_method, &by_oracle);
        for w in by_method.windows(2) {
            if w[0] != w[1] {
                prop_assert_ne!(
                    NodeId(w[0]).distance(t),
                    NodeId(w[1]).distance(t),
                    "distinct ids at equal distance from one target"
                );
            }
        }
    }

    /// K-bucket structural invariants survive any interleaving of insert,
    /// touch, replace-LRU and remove, and the table's `closest()` agrees
    /// with a brute-force nearest-k over exactly the contacts it retained.
    #[test]
    fn k_bucket_invariants_under_churn(
        own in proptest::arbitrary::any::<u64>(),
        k in 1usize..8,
        ops in proptest::collection::vec(
            (0u8..4, proptest::arbitrary::any::<u64>()),
            1..300,
        ),
    ) {
        let mut t = RoutingTable::new(NodeId(own), k);
        for (op, id) in ops {
            match op {
                0 | 1 => {
                    // insert dominates the mix; Full is allowed, everything
                    // else must keep the table consistent.
                    let _ = t.insert(contact(id));
                }
                2 => {
                    let _ = t.touch(NodeId(id));
                }
                _ => {
                    if id % 2 == 0 {
                        let _ = t.remove(NodeId(id));
                    } else {
                        let _ = t.replace_lru(contact(id));
                    }
                }
            }
            if let Err(e) = t.check_invariants() {
                panic!("invariant broken: {e}");
            }
        }
        // closest() is a faithful nearest-k over the retained contacts.
        let target = NodeId(own ^ 0x5555_5555_5555_5555);
        let mut oracle: Vec<Contact> = t.contacts().collect();
        oracle.sort_unstable_by_key(|c| c.id.distance(target));
        oracle.truncate(3);
        prop_assert_eq!(t.closest(target, 3), oracle);
    }

    /// A table never grows beyond k contacts per bucket, and while the
    /// population is at most k every distinct offered contact is retained
    /// (nothing is dropped before capacity forces it).
    #[test]
    fn k_bucket_retains_everything_below_capacity(
        own in proptest::arbitrary::any::<u64>(),
        ids in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..8),
    ) {
        let mut t = RoutingTable::new(NodeId(own), 8);
        let mut expect = 0usize;
        for &id in &ids {
            match t.insert(contact(id)) {
                Insert::Added => expect += 1,
                Insert::Refreshed | Insert::Ignored => {}
                Insert::Full { .. } => panic!("bucket full below global capacity k"),
            }
        }
        prop_assert_eq!(t.len(), expect);
    }

    /// Iterative lookups on random topologies converge to the brute-force
    /// global nearest-k, within the paper-level hop budget `⌈log₂ n⌉ + 2`.
    /// Every node's table is built by offering it every other node in a
    /// seeded random order, so far buckets are capacity-truncated exactly
    /// as they would be in a live network.
    #[test]
    fn iterative_lookup_matches_brute_force_nearest_k(
        seed in proptest::arbitrary::any::<u64>(),
        n in 8usize..72,
    ) {
        let mut rng = netsim::Pcg32::new(seed, 0x100C);
        let k = 16usize;
        let ids: Vec<NodeId> = (0..n as u32).map(NodeId::from_peer_index).collect();
        let mut tables: Vec<RoutingTable> = ids
            .iter()
            .map(|&id| RoutingTable::new(id, k))
            .collect();
        for (i, table) in tables.iter_mut().enumerate() {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for j in order {
                if i != j {
                    let _ = table.insert(Contact { id: ids[j], peer: j as u32 });
                }
            }
        }
        let target = NodeId(rng.next_u64());
        let origin = rng.below(n as u64) as usize;
        let cfg = LookupConfig { k: 8, alpha: 3 };
        let mut l = Lookup::new(target, cfg, tables[origin].closest(target, cfg.k));
        let mut guard = 0;
        let mut batch = Vec::new();
        loop {
            l.next_batch(&mut batch);
            if batch.is_empty() && l.is_done() {
                break;
            }
            for &q in &batch {
                let closer = tables[q.peer as usize].closest(target, cfg.k);
                l.on_reply(q.id, closer);
            }
            guard += 1;
            prop_assert!(guard < 1_000, "lookup did not terminate");
        }
        let mut oracle: Vec<NodeId> = ids.clone();
        oracle.sort_unstable_by_key(|id| id.distance(target));
        oracle.truncate(cfg.k);
        let got: Vec<NodeId> = l.closest_responded().iter().map(|c| c.id).collect();
        prop_assert_eq!(got, oracle, "lookup missed part of the true nearest-k (n={})", n);
        let budget = (n as f64).log2().ceil() as u32 + 2;
        prop_assert!(
            l.hops() <= budget,
            "lookup took {} hops, budget {} at n={}",
            l.hops(),
            budget,
            n
        );
    }
}
