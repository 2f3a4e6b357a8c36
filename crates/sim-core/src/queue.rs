//! The pending-event set.
//!
//! A binary heap keyed by `(time, sequence)`. The sequence number makes
//! ordering among same-timestamp events deterministic (FIFO in scheduling
//! order), which is what makes whole simulations bit-reproducible.
//!
//! Cancellation is O(1) via a slab of generation-tagged slots: a handle
//! packs `(generation, slot)`, cancelling flips the slot to a tombstone,
//! and `pop` discards tombstoned heap entries when they surface. Popping
//! an entry — live or tombstoned — frees its slot (bumping the
//! generation so stale handles can't alias a reused slot), so the
//! bookkeeping prunes itself; there is no hash lookup anywhere on the
//! hot path. When tombstones outnumber live entries the heap is
//! compacted in one O(n) rebuild, which keeps sift costs proportional
//! to the *live* population for models that cancel heavily (e.g. a
//! foreign job's completion event is cancelled and re-scheduled every
//! time the local workload preempts it).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Packs the slot's generation in the high 32 bits and the slot index
/// in the low 32; a handle whose generation no longer matches its slot
/// (the event fired, or was cancelled and the slot reused) is stale and
/// cancels as a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    fn pack(slot: u32, gen: u32) -> Self {
        EventHandle((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw packed value backing this handle (for logging).
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// No heap entry references this slot; it is on the free list.
    Vacant,
    /// The heap entry is live.
    Pending,
    /// Cancelled, but its heap entry has not surfaced yet.
    Tombstone,
}

struct Slot {
    gen: u32,
    state: SlotState,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic pending-event set.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    tombstones: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            tombstones: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Events at equal times fire in the order they were scheduled.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].state = SlotState::Pending;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(Slot { gen: 0, state: SlotState::Pending });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(Entry { at, seq, slot, event });
        self.live += 1;
        EventHandle::pack(slot, gen)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (and is now dead);
    /// `false` if it had already fired, was already cancelled, or the
    /// handle never came from this queue.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot() as usize) else {
            return false;
        };
        if slot.gen != handle.gen() || slot.state != SlotState::Pending {
            return false;
        }
        slot.state = SlotState::Tombstone;
        self.live -= 1;
        self.tombstones += 1;
        // Rebuild once tombstones dominate, so heap operations stay
        // O(log live) rather than O(log total-ever-cancelled).
        if self.tombstones > 64 && self.tombstones > self.live {
            self.compact();
        }
        true
    }

    /// Remove and return the earliest live event, with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.release(entry.slot) {
                self.live -= 1;
                return Some((entry.at, entry.event));
            }
            // Tombstone: slot already released, keep draining.
        }
        None
    }

    /// Remove and return the earliest live event if it fires at or
    /// before `horizon`; leave it pending (returning `None`) otherwise.
    ///
    /// This fuses `peek_time` + `pop` into one pass over the heap top,
    /// which is the engine's per-event hot path.
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        loop {
            let entry = self.heap.peek()?;
            if self.slots[entry.slot as usize].state != SlotState::Pending {
                let entry = self.heap.pop().expect("peeked entry exists");
                self.release(entry.slot);
                continue;
            }
            if entry.at > horizon {
                return None;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            self.release(entry.slot);
            self.live -= 1;
            return Some((entry.at, entry.event));
        }
    }

    /// Timestamp of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let entry = self.heap.peek()?;
            if self.slots[entry.slot as usize].state == SlotState::Pending {
                return Some(entry.at);
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            self.release(entry.slot);
        }
    }

    /// Number of live (not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of cancelled entries still occupying the heap (bounded by
    /// `max(64, len())` thanks to compaction).
    #[cfg(test)]
    fn cancelled_len(&self) -> usize {
        self.tombstones
    }

    /// Free `slot` after its heap entry was removed, bumping the
    /// generation so outstanding handles to it become stale. Returns
    /// `true` if the entry was live, `false` if it was a tombstone.
    fn release(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        let was_live = match s.state {
            SlotState::Pending => true,
            SlotState::Tombstone => {
                self.tombstones -= 1;
                false
            }
            SlotState::Vacant => unreachable!("heap entry referenced a vacant slot"),
        };
        s.gen = s.gen.wrapping_add(1);
        s.state = SlotState::Vacant;
        self.free.push(slot);
        was_live
    }

    /// Drop every tombstoned entry in one pass and re-heapify.
    fn compact(&mut self) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        let mut kept = Vec::with_capacity(self.live);
        for entry in entries {
            if self.slots[entry.slot as usize].state == SlotState::Pending {
                kept.push(entry);
            } else {
                self.release(entry.slot);
            }
        }
        debug_assert_eq!(self.tombstones, 0);
        self.heap = BinaryHeap::from(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.schedule(t(5), 2);
        q.schedule(t(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn ties_break_fifo_across_reused_slots() {
        // Slot indices get reused after pops; order must still follow
        // scheduling sequence, not slot numbering.
        let mut q = EventQueue::new();
        q.schedule(t(1), 0);
        q.schedule(t(1), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t(9), 90); // reuses a freed slot
        q.schedule(t(9), 91);
        q.schedule(t(9), 92); // fresh slot
        assert_eq!(q.pop().unwrap().1, 90);
        assert_eq!(q.pop().unwrap().1, 91);
        assert_eq!(q.pop().unwrap().1, 92);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "x");
        q.schedule(t(2), "y");
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "y")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "x");
        assert_eq!(q.pop(), Some((t(1), "x")));
        assert!(!q.cancel(h), "cancelling a fired event must not report success");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_handle_cannot_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), "first");
        q.pop();
        let h2 = q.schedule(t(2), "second"); // reuses slot 0, new generation
        assert_eq!(h1.raw() as u32, h2.raw() as u32, "slot should be reused");
        assert!(!q.cancel(h1), "stale handle must not hit the new occupant");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h2));
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "dead");
        q.schedule(t(2), "live");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "live")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn tombstones_are_pruned_when_discarded() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), 1);
        let h2 = q.schedule(t(2), 2);
        q.schedule(t(3), 3);
        q.cancel(h1);
        q.cancel(h2);
        assert_eq!(q.cancelled_len(), 2);
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.cancelled_len(), 0, "pop must discard and prune tombstones");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn heavy_cancellation_compacts() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..10_000u64).map(|i| q.schedule(t(i), i)).collect();
        for h in handles {
            assert!(q.cancel(h));
        }
        assert_eq!(q.len(), 0);
        assert!(
            q.cancelled_len() <= 65,
            "compaction should bound tombstones, got {}",
            q.cancelled_len()
        );
        assert_eq!(q.pop(), None);
        assert_eq!(q.cancelled_len(), 0);
    }

    #[test]
    fn compaction_preserves_order_and_liveness() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..1_000u64 {
            let h = q.schedule(t(i), i);
            if i % 10 == 0 {
                keep.push(i);
            } else {
                // Cancel 90% to force compaction mid-stream.
                q.cancel(h);
            }
        }
        assert_eq!(q.len(), keep.len());
        let mut fired = Vec::new();
        while let Some((_, e)) = q.pop() {
            fired.push(e);
        }
        assert_eq!(fired, keep);
    }

    #[test]
    fn pop_due_respects_horizon_and_tombstones() {
        let mut q = EventQueue::new();
        let dead = q.schedule(t(1), "dead");
        q.schedule(t(2), "early");
        q.schedule(t(5), "late");
        q.cancel(dead);
        assert_eq!(q.pop_due(t(3)), Some((t(2), "early")));
        assert_eq!(q.cancelled_len(), 0, "head tombstone pruned in passing");
        assert_eq!(q.pop_due(t(3)), None, "beyond-horizon event stays pending");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(5)), Some((t(5), "late")));
        assert_eq!(q.pop_due(SimTime::MAX), None);
    }

    #[test]
    fn interleaved_schedule_pop_cancel() {
        let mut q = EventQueue::new();
        let mut fired = Vec::new();
        let h1 = q.schedule(t(10), 10);
        q.schedule(t(5), 5);
        while let Some((_, e)) = q.pop() {
            fired.push(e);
            if e == 5 {
                q.cancel(h1);
                q.schedule(t(7), 7);
            }
        }
        assert_eq!(fired, vec![5, 7]);
    }
}
