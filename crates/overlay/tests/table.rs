//! The packed routing table against the tree-split table it replaced
//! (`tree_split`, kept only here) and against a sort-everything oracle.

mod tree_split;

use overlay::{Contact, NodeId, RoutingTable};
use proptest::prelude::*;
use tree_split::TreeSplitTable;

fn contact(id: u64) -> Contact {
    Contact {
        id: NodeId(id),
        peer: (id % 100_000) as u32,
    }
}

/// An ID sharing `shared` leading bits with `own`: uniform `shared` puts
/// half the draws within 2³² of the own ID, so its bucket splits deep.
fn near(own: u64, noise: u64, shared: u32) -> u64 {
    own ^ (noise >> shared)
}

/// Both tables, driven in lockstep; every step asserts they agree.
struct Pair {
    new: RoutingTable,
    old: TreeSplitTable,
}

impl Pair {
    fn new(own: u64, k: usize) -> Self {
        Pair {
            new: RoutingTable::new(NodeId(own), k),
            old: TreeSplitTable::new(NodeId(own), k),
        }
    }

    /// One operation on both. `pick` selects an ID that is stored (when
    /// even and the table is not empty) so touch/remove/refresh are hit.
    fn step(&mut self, op: u8, id: u64, pick: u64) {
        let id = match self.old.len() {
            n if n > 0 && pick.is_multiple_of(2) => {
                let stored = self.old.contacts().nth((pick / 2) as usize % n);
                stored.expect("index below len").id.0
            }
            _ => id,
        };
        match op {
            0 | 1 => assert_eq!(self.new.insert(contact(id)), self.old.insert(contact(id))),
            2 => assert_eq!(self.new.touch(NodeId(id)), self.old.touch(NodeId(id))),
            3 => assert_eq!(
                self.new.replace_lru(contact(id)),
                self.old.replace_lru(contact(id))
            ),
            _ => assert_eq!(self.new.remove(NodeId(id)), self.old.remove(NodeId(id))),
        }
        assert_eq!(self.new.contains(NodeId(id)), self.old.contains(NodeId(id)));
        self.assert_equal();
    }

    fn assert_equal(&self) {
        self.new.check_invariants().expect("packed table");
        self.old.check_invariants().expect("tree-split table");
        assert_eq!(self.new.len(), self.old.len());
        assert_eq!(self.new.n_buckets(), self.old.n_buckets());
        assert_eq!(self.new.bucket_shapes(), self.old.bucket_shapes());
        let (new, old): (Vec<_>, Vec<_>) =
            (self.new.contacts().collect(), self.old.contacts().collect());
        assert_eq!(new, old, "iteration order");
    }

    /// `closest` for every count from 0 to past the table's size.
    fn assert_closest(&self, target: u64) {
        let target = NodeId(target);
        for count in 0..=self.old.len() + 2 {
            assert_eq!(
                self.new.closest(target, count),
                self.old.closest(target, count),
                "closest({target:?}, {count})"
            );
        }
    }
}

type Op = (u8, u64, u32, u64);

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..5,
            proptest::arbitrary::any::<u64>(),
            0u32..64,
            proptest::arbitrary::any::<u64>(),
        ),
        1..max,
    )
}

proptest! {
    /// Any interleaving of insert / touch / replace_lru / remove leaves
    /// the packed table and the tree-split reference with equal outcomes,
    /// sizes, bucket shapes and iteration order.
    #[test]
    fn packed_table_matches_tree_split_reference(
        own in proptest::arbitrary::any::<u64>(),
        k in 1usize..9,
        ops in ops(400),
    ) {
        let mut pair = Pair::new(own, k);
        for (op, noise, shared, pick) in ops {
            pair.step(op, near(own, noise, shared), pick);
        }
    }

    /// The band walk of `closest_into` returns what sorting the whole
    /// table returns: for random and near-own targets, the own ID itself,
    /// any count, and after half the contacts were replaced by fabricated
    /// ones the way `poison_routing_table` does it.
    #[test]
    fn closest_matches_the_sort_everything_oracle(
        own in proptest::arbitrary::any::<u64>(),
        k in 1usize..9,
        ops in ops(200),
        targets in proptest::collection::vec(
            (proptest::arbitrary::any::<u64>(), 0u32..64),
            1..8,
        ),
        poison in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 200..201),
    ) {
        let mut pair = Pair::new(own, k);
        for (op, noise, shared, pick) in ops {
            pair.step(op, near(own, noise, shared), pick);
        }
        let check = |pair: &Pair| {
            pair.assert_closest(own);
            for &(noise, shared) in &targets {
                pair.assert_closest(noise);
                pair.assert_closest(near(own, noise, shared));
            }
        };
        check(&pair);
        let stored: Vec<Contact> = pair.old.contacts().collect();
        for (c, fabricated) in stored.into_iter().zip(poison) {
            if fabricated.is_multiple_of(2) {
                pair.step(4, c.id.0, 1);
                pair.step(0, fabricated, 1);
            }
        }
        check(&pair);
    }
}
