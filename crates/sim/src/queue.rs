//! The deterministic event queue at the heart of the simulator.
//!
//! Events are totally ordered by `(time, sequence number)`: two events
//! scheduled for the same instant fire in the order they were scheduled.
//! This makes every run of the simulator bit-for-bit reproducible for a
//! given seed and workload, which the test suite relies on.
//!
//! Hot-path representation: the `(time, seq)` pair is packed into a single
//! `u128` key (`time << 64 | seq`), so every heap sift compares one
//! integer instead of a two-field tuple. Unsigned packing preserves the
//! lexicographic order exactly: times differ in the high 64 bits, ties
//! fall through to the sequence number in the low 64 bits.
//!
//! Payloads do *not* live in the heap. A simulated cluster message enum is
//! around a hundred bytes once wrapped in its delivery envelope, and a
//! binary-heap sift moves O(log n) elements per push/pop — at millions of
//! events per second that memcpy traffic dominated the event loop. The
//! heap instead orders 32-byte `(key, slot)` tickets while payloads sit
//! still in a slot arena. Freed slots are recycled through a free list, so
//! steady-state scheduling allocates nothing.
//!
//! The arena owns a payload from [`EventQueue::push`] until the one
//! [`EventQueue::take`] that hands it to its consumer. In between, the
//! event loop works on a 4-byte [`Slot`] handle: [`EventQueue::pop_slot`]
//! retires the earliest ticket without touching the payload,
//! [`EventQueue::payload`] inspects it in place, and a popped slot that is
//! not ready to be consumed is either held by the caller (a parked
//! receive) or given a new ticket with [`EventQueue::reticket`]. (A
//! sampling profile of the by-value loop put 40 % of its samples on
//! instructions that only moved the hundred-byte enum between stack
//! frames.) [`EventQueue::pop`] is `pop_slot` + `take`, for callers that
//! just want the value.

use std::collections::BinaryHeap;

use crate::time::Time;

/// A heap ticket: the packed ordering key plus the arena slot holding the
/// payload. `Ord` is reversed so the `BinaryHeap` max-heap pops the
/// earliest key first. Keys are unique (the sequence number is), so the
/// ordering is total and deterministic.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Ticket {
    /// `(time << 64) | seq` — see the module docs.
    key: u128,
    slot: u32,
}

// `u128` is 16-aligned, so the 20 bytes of fields pad to 32. The denser
// 24-byte `(u64, u64, u32)` layout was tried and measured slower
// (`perf/` `eventloop` run_s 1.17-1.23 s -> 1.36-1.93 s, CHANGES.md PR 18),
// so the padding stays; this fails the build if the layout moves either
// way unnoticed.
const _: () = assert!(std::mem::size_of::<Ticket>() == 32);

impl Ticket {
    fn time(&self) -> Time {
        Time::from_nanos((self.key >> 64) as u64)
    }
}

impl PartialOrd for Ticket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ticket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest event.
        other.key.cmp(&self.key)
    }
}

/// Handle to a payload resident in the arena of the [`EventQueue`] that
/// issued it: valid from the [`EventQueue::pop_slot`] that returned it
/// until the [`EventQueue::take`] that consumes it, after which the index
/// is recycled for a later push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(u32);

/// A priority queue of timestamped events with deterministic tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Ticket>,
    /// Slot arena: payload storage indexed by `Ticket::slot`.
    slots: Vec<Option<E>>,
    /// Recycled arena slots.
    free: Vec<u32>,
    next_seq: u64,
    /// High-water mark of ticketed events (capacity-planning telemetry).
    peak: usize,
    /// Pushes that found the pre-reserved heap capacity exhausted — each
    /// one implies a reallocation of the heap.
    grow_events: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `capacity` pending events, so
    /// steady-state scheduling never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            peak: 0,
            grow_events: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: Time, payload: E) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(payload);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Some(payload));
                s
            }
        };
        self.reticket(time, Slot(slot));
    }

    /// Schedules the payload already resident in `slot` — one that
    /// [`EventQueue::pop_slot`] returned and nobody has taken — to fire
    /// (again) at `time`. Draws a sequence number exactly as a
    /// [`EventQueue::push`] would, without moving the payload.
    pub fn reticket(&mut self, time: Time, slot: Slot) {
        debug_assert!(
            self.slots[slot.0 as usize].is_some(),
            "reticket of a freed slot"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = ((time.as_nanos() as u128) << 64) | seq as u128;
        if self.heap.len() == self.heap.capacity() {
            self.grow_events += 1;
        }
        self.heap.push(Ticket { key, slot: slot.0 });
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let (time, slot) = self.pop_slot()?;
        Some((time, self.take(slot)))
    }

    /// Retires the earliest ticket, if any, leaving its payload in the
    /// arena. The caller now holds the only reference to the slot and must
    /// eventually [`EventQueue::take`] it or [`EventQueue::reticket`] it.
    pub fn pop_slot(&mut self) -> Option<(Time, Slot)> {
        let t = self.heap.pop()?;
        Some((t.time(), Slot(t.slot)))
    }

    /// The payload resident in `slot`, in place.
    pub fn payload(&self, slot: Slot) -> &E {
        self.slots[slot.0 as usize]
            .as_ref()
            .expect("slot handle outlived its payload")
    }

    /// Moves the payload out of `slot` and recycles the slot.
    pub fn take(&mut self, slot: Slot) -> E {
        // Free-list first: with the one call that can unwind out of the
        // way, the payload moves from the arena straight into the
        // caller's frame instead of through a local kept for cleanup.
        self.free.push(slot.0);
        self.slots[slot.0 as usize]
            .take()
            .expect("slot handle outlived its payload")
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|t| t.time())
    }

    /// Number of pending (ticketed) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Payloads resident in the arena: the pending events plus every slot
    /// popped and not yet taken (a caller's parked handles).
    pub fn resident(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Arena high-water mark: slots ever allocated.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Largest number of simultaneously pending events observed. Counts
    /// tickets in the heap only: a slot held by the caller between
    /// `pop_slot` and `take`/`reticket` occupies the arena, not the heap.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Number of pushes (or retickets) that outgrew the pre-reserved heap
    /// capacity. Zero means [`EventQueue::with_capacity`] was sized right
    /// for the run. Like [`EventQueue::peak_len`] this watches the ticket
    /// heap; the arena grows in lockstep only while nothing is parked.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), "c");
        q.push(Time::from_nanos(10), "a");
        q.push(Time::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((Time::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::ZERO + Dur::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_nanos(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(7)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(Time::from_nanos(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn packed_key_round_trips_extreme_times() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(u64::MAX), "max");
        q.push(Time::ZERO, "zero");
        assert_eq!(q.pop(), Some((Time::ZERO, "zero")));
        assert_eq!(q.pop(), Some((Time::from_nanos(u64::MAX), "max")));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(512);
        assert!(q.is_empty());
        for i in (0..100u64).rev() {
            q.push(Time::from_nanos(i), i);
        }
        for i in 0..100u64 {
            assert_eq!(q.pop(), Some((Time::from_nanos(i), i)));
        }
    }

    #[test]
    fn slots_are_recycled() {
        // Interleaved push/pop must not grow the arena past the peak.
        let mut q = EventQueue::with_capacity(4);
        for round in 0..1000u64 {
            q.push(Time::from_nanos(round), round);
            q.push(Time::from_nanos(round), round + 1);
            assert_eq!(q.pop().unwrap().1, round);
            assert_eq!(q.pop().unwrap().1, round + 1);
        }
        assert!(q.peak_len() <= 2);
        assert_eq!(q.grow_events(), 0);
        assert!(q.arena_len() <= 2, "arena grew: {}", q.arena_len());

        // The parked path: each round pops two handles, holds them
        // across a push, re-tickets one and takes the other. Resident
        // payloads never exceed pending + held, and neither does the arena.
        let mut q = EventQueue::with_capacity(4);
        for round in 0..1000u64 {
            let at = Time::from_nanos(round);
            for i in 0..3 {
                q.push(at, round + i);
            }
            let (_, a) = q.pop_slot().unwrap();
            let (_, b) = q.pop_slot().unwrap();
            assert_eq!((q.len(), q.resident()), (1, 3));
            q.push(at, round + 3);
            q.reticket(at, b);
            assert_eq!(q.take(a), round);
            assert_eq!(q.pop().unwrap().1, round + 2);
            assert_eq!(q.pop().unwrap().1, round + 3);
            assert_eq!(q.pop().unwrap().1, round + 1);
            assert_eq!(q.resident(), 0);
        }
        assert!(q.peak_len() <= 3);
        assert_eq!(q.grow_events(), 0);
        assert!(q.arena_len() <= 4, "arena grew: {}", q.arena_len());
    }

    proptest! {
        /// The slot surface against a `BTreeMap<(time, seq), payload>`
        /// reference: identical pop order (same-instant ties included),
        /// `pop` ≡ `pop_slot` + `take`, `reticket` draws a sequence number
        /// like a push, a held handle keeps reading its own payload however
        /// many slots are recycled around it, and the telemetry counts
        /// tickets only.
        #[test]
        fn slot_surface_matches_the_btree_reference(
            cap in prop::sample::select(vec![0usize, 4, 64]),
            ops in prop::collection::vec((0u8..7, 0u64..6, any::<usize>()), 1..300),
        ) {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(cap);
            let mut model: BTreeMap<(Time, u64), u32> = BTreeMap::new();
            let mut held: Vec<(Slot, u32)> = Vec::new();
            let (mut seq, mut next, mut peak, mut peak_resident) = (0u64, 0u32, 0usize, 0usize);
            for (op, time, pick) in ops {
                let time = Time::from_nanos(time);
                match op {
                    0 | 1 => {
                        q.push(time, next);
                        model.insert((time, seq), next);
                        seq += 1;
                        next += 1;
                    }
                    2 => {
                        let want = model.pop_first();
                        prop_assert_eq!(q.pop(), want.map(|((t, _), v)| (t, v)));
                    }
                    3 => {
                        let want = model.pop_first();
                        let got = q.pop_slot();
                        prop_assert_eq!(got.map(|(t, _)| t), want.map(|((t, _), _)| t));
                        held.extend(got.zip(want).map(|((_, slot), (_, v))| (slot, v)));
                    }
                    4 if !held.is_empty() => {
                        let (slot, v) = held.swap_remove(pick % held.len());
                        prop_assert_eq!(q.take(slot), v);
                    }
                    5 if !held.is_empty() => {
                        let (slot, v) = held.swap_remove(pick % held.len());
                        q.reticket(time, slot);
                        model.insert((time, seq), v);
                        seq += 1;
                    }
                    _ => {}
                }
                peak = peak.max(model.len());
                peak_resident = peak_resident.max(model.len() + held.len());
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.resident(), model.len() + held.len());
                prop_assert_eq!(q.peek_time(), model.keys().next().map(|k| k.0));
                prop_assert_eq!(q.peak_len(), peak);
                for (slot, v) in &held {
                    prop_assert_eq!(q.payload(*slot), v);
                }
            }
            prop_assert!(peak > cap || q.grow_events() == 0);
            prop_assert_eq!(q.arena_len(), peak_resident);
            for (slot, v) in held {
                prop_assert_eq!(q.take(slot), v);
            }
            while let Some(((t, _), v)) = model.pop_first() {
                prop_assert_eq!(q.pop(), Some((t, v)));
            }
            prop_assert_eq!((q.pop(), q.resident()), (None, 0));
        }
    }

    #[test]
    fn growth_is_instrumented() {
        let mut q = EventQueue::with_capacity(2);
        for i in 0..8u64 {
            q.push(Time::from_nanos(i), i);
        }
        assert_eq!(q.peak_len(), 8);
        assert!(q.grow_events() > 0);
        // Telemetry never perturbs ordering.
        for i in 0..8u64 {
            assert_eq!(q.pop(), Some((Time::from_nanos(i), i)));
        }
    }
}
