//! Worker slot accounting for the farm scheduler.
//!
//! A worker is *open* when it is up and has a free job slot. Dispatch only
//! ever places work on open workers, so the scheduler keeps that set as
//! state instead of rediscovering it by scanning the fleet on every event.
//! The fields the set is derived from are private to this module: the four
//! mutators below are the only code that can change them, and each one
//! re-files the worker before it returns.

use std::collections::BTreeSet;

use crate::grid::WorkerId;

struct Slot {
    up: bool,
    /// Concurrent job slots (1 = a plain PC; >1 models a cluster or SMP
    /// node behind a local resource manager, §3.1).
    capacity: u32,
    /// Slots currently taken (any in-flight state).
    active: u32,
}

/// Up/down state and slot occupancy of every worker, plus the derived set
/// of open workers in worker-id order.
#[derive(Default)]
pub(super) struct SlotTable {
    slots: Vec<Slot>,
    open: BTreeSet<WorkerId>,
}

impl SlotTable {
    /// Enrol the next worker; ids are dense and handed out in call order.
    pub(super) fn push(&mut self, up: bool, capacity: u32) -> WorkerId {
        let wid = WorkerId(self.slots.len() as u32);
        self.slots.push(Slot {
            up,
            capacity,
            active: 0,
        });
        self.refile(wid);
        wid
    }

    /// Occupy one slot. Callers pick `wid` from [`Self::open`], so a slot
    /// is free.
    pub(super) fn take(&mut self, wid: WorkerId) {
        self.slots[wid.0 as usize].active += 1;
        self.refile(wid);
    }

    /// Release one slot. Saturating only for a *down* worker, where a
    /// release can trail the availability flip that already emptied it; an
    /// up worker releasing a slot it does not hold is a scheduler bug.
    pub(super) fn free(&mut self, wid: WorkerId) {
        let s = &mut self.slots[wid.0 as usize];
        debug_assert!(
            !s.up || s.active > 0,
            "up worker {wid:?} released a slot it does not hold"
        );
        s.active = s.active.saturating_sub(1);
        self.refile(wid);
    }

    /// Availability transition: whatever the worker held is gone.
    pub(super) fn set_up(&mut self, wid: WorkerId, up: bool) {
        let s = &mut self.slots[wid.0 as usize];
        s.up = up;
        s.active = 0;
        self.refile(wid);
    }

    fn refile(&mut self, wid: WorkerId) {
        let s = &self.slots[wid.0 as usize];
        if s.up && s.active < s.capacity {
            self.open.insert(wid);
        } else {
            self.open.remove(&wid);
        }
    }

    pub(super) fn is_up(&self, wid: WorkerId) -> bool {
        self.slots[wid.0 as usize].up
    }

    pub(super) fn active(&self, wid: WorkerId) -> u32 {
        self.slots[wid.0 as usize].active
    }

    pub(super) fn capacity(&self, wid: WorkerId) -> u32 {
        self.slots[wid.0 as usize].capacity
    }

    pub(super) fn any_open(&self) -> bool {
        !self.open.is_empty()
    }

    /// Open workers in worker-id order.
    pub(super) fn open(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.open.iter().copied()
    }

    /// The open set recomputed from scratch — what [`Self::open`] must
    /// always equal.
    pub(super) fn recount_open(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.up && s.active < s.capacity)
            .map(|(i, _)| WorkerId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(t: &SlotTable) -> Vec<u32> {
        assert!(t.open().eq(t.recount_open()));
        t.open().map(|w| w.0).collect()
    }

    #[test]
    fn open_set_tracks_every_mutation() {
        let mut t = SlotTable::default();
        let a = t.push(true, 1);
        let b = t.push(false, 2);
        let c = t.push(true, 2);
        assert_eq!(open(&t), [0, 2]);
        t.take(a);
        t.take(c);
        assert_eq!(open(&t), [2], "c has a second slot");
        t.take(c);
        assert!(!t.any_open());
        t.set_up(b, true);
        assert_eq!(open(&t), [1]);
        t.free(c);
        t.set_up(a, false);
        assert_eq!(open(&t), [1, 2]);
        // A release trailing the flip must not underflow or reopen a
        // down worker.
        t.free(a);
        assert_eq!((t.active(a), t.is_up(a)), (0, false));
        assert_eq!(open(&t), [1, 2]);
        t.set_up(a, true);
        assert_eq!(open(&t), [0, 1, 2]);
        assert_eq!(t.capacity(c), 2);
    }
}
