//! The pending-event set.
//!
//! [`EventQueue`] orders events by `(time, seq)` where `seq` is a
//! monotonically increasing insertion counter. The counter makes ordering
//! **total and deterministic**: two events scheduled for the same instant
//! fire in the order they were scheduled (FIFO), which is the property
//! every experiment in this workspace relies on for bit-for-bit
//! reproducibility.
//!
//! # The timer wheel
//!
//! The queue is a **hierarchical timer wheel**: [`LEVELS`] fixed-size
//! levels of [`SLOTS`] slots each, level 0 at a granularity of
//! 2^[`SLOT_NS_BITS`] ns (≈1.05 ms), each higher level 64× coarser.
//! Scheduling an event hashes its due time to a slot — O(1) — and firing
//! takes whole slots at a time, so the dominant periodic-tick traffic
//! never pays the O(log n) sift of a binary heap. Events beyond the
//! wheel's span (≈2.2 years of simulated time from the cursor) wait in a
//! small overflow heap and are cascaded in as the cursor approaches them.
//!
//! Determinism is preserved structurally: the wheel keeps a *current*
//! list — all entries due at or before the cursor's slot, sorted by
//! `(time, seq)` — whose head is always the global minimum. Advancing to
//! the next occupied slot sorts that slot's entries once (an alloc-free
//! linked-list mergesort over the node arena), so ties stay FIFO and a
//! drain is seq-for-seq identical to a binary heap's.
//!
//! # The oracle
//!
//! [`ReferenceQueue`] is the original [`BinaryHeap`] queue, kept only as
//! the *oracle* the wheel is proven against: the property suites drain
//! random schedules through both and require identical output. Nothing at
//! run time builds one.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the level-0 slot width in nanoseconds: 2^20 ns ≈ 1.05 ms, finer
/// than any Table 2 sampling interval, so consecutive periodic ticks land
/// in distinct slots and each slot sort stays tiny.
const SLOT_NS_BITS: u32 = 20;
/// Log2 of the slot count per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Slot-index mask within a level.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels. Six levels of 64 slots cover 2^36 level-0 slots ≈ 2.2
/// simulated years from the cursor; anything farther overflows to a heap.
const LEVELS: usize = 6;
/// Null arena index (the intrusive lists' terminator).
const NIL: u32 = u32::MAX;
/// Mergesort bins — enough for runs of up to 2^32 nodes, the arena's
/// index-width ceiling.
const SORT_BINS: usize = 33;

/// A scheduled entry: a payload due at `time`, with an insertion sequence
/// number used to break ties deterministically.
#[derive(Debug)]
pub struct Scheduled<T> {
    /// When the entry is due.
    pub time: SimTime,
    /// Insertion order, unique per queue.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The level-0 slot tick a due time hashes to.
fn slot_tick(time: SimTime) -> u64 {
    time.as_nanos() >> SLOT_NS_BITS
}

/// The wheel level whose slot granularity separates `slot` from `cursor`.
/// Requires `slot > cursor`; a result `>= LEVELS` means overflow.
fn level_for(slot: u64, cursor: u64) -> usize {
    debug_assert!(slot > cursor);
    (((slot ^ cursor).leading_zeros() ^ 63) / LEVEL_BITS) as usize
}

/// One arena slot: an intrusive singly-linked node. `item` is `None` only
/// while the node sits on the free list (the crate forbids `unsafe`, so
/// the option is the vacancy marker; for payloads with a niche it is
/// layout-free).
struct Node<T> {
    time: SimTime,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// An overflow-heap key: the `(time, seq)` of an arena node whose due time
/// lies beyond the wheel's span.
struct FarEntry {
    time: SimTime,
    seq: u64,
    node: u32,
}

impl PartialEq for FarEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for FarEntry {}
impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, like `Scheduled`: earliest first out of the max-heap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timed events: the hierarchical timer
/// wheel described in the [module documentation](self).
///
/// Invariants (checked by the property/oracle suites):
///
/// 1. every wheel entry sits in a slot strictly after `cursor` at its
///    level; every overflow entry is beyond the wheel's span from
///    `cursor`;
/// 2. the *current* list holds every pending entry whose slot is `<=
///    cursor`, sorted ascending by `(time, seq)` — its head is the global
///    minimum (current times end before the next slot begins, wheel
///    levels order below higher levels, and the overflow is beyond the
///    whole wheel);
/// 3. eager advance: `len > 0` ⇔ `current != NIL`, which makes
///    [`EventQueue::peek_time`] a borrow-free O(1) read.
///
/// # Examples
///
/// ```
/// use iotse_sim::queue::EventQueue;
/// use iotse_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.push(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early-second");
/// assert_eq!(q.pop().map(|s| s.item), Some("early"));
/// assert_eq!(q.pop().map(|s| s.item), Some("early-second"));
/// assert_eq!(q.pop().map(|s| s.item), Some("late"));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<T> {
    /// Node storage; pops recycle indices through the free list, so the
    /// arena length is the high-water pending count.
    arena: Vec<Node<T>>,
    free_head: u32,
    free_len: usize,
    heads: [[u32; SLOTS]; LEVELS],
    tails: [[u32; SLOTS]; LEVELS],
    /// Per-level occupancy bitmaps: bit `s` set ⇔ slot `s` is non-empty.
    occupied: [u64; LEVELS],
    overflow: BinaryHeap<FarEntry>,
    /// The level-0 slot tick of the current list (`time >> SLOT_NS_BITS`).
    cursor: u64,
    current: u32,
    current_tail: u32,
    len: usize,
    next_seq: u64,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with node storage for `capacity`
    /// concurrently pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            arena: Vec::with_capacity(capacity),
            free_head: NIL,
            free_len: 0,
            heads: [[NIL; SLOTS]; LEVELS],
            tails: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            current: NIL,
            current_tail: NIL,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `item` at `time`. Returns the sequence number assigned,
    /// which is unique within this queue and reflects insertion order.
    // iotse-lint: hot-path
    pub fn push(&mut self, time: SimTime, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc_node(time, seq, item);
        self.len += 1;
        self.place_node(idx);
        if self.current == NIL {
            self.advance_wheel();
        }
        seq
    }

    /// Ensures space for at least `additional` more entries without
    /// regrowing the backing storage.
    pub fn reserve(&mut self, additional: usize) {
        // Recycled free-list nodes absorb pushes before the arena grows.
        self.arena.reserve(additional.saturating_sub(self.free_len));
    }

    /// Schedules every `(time, item)` pair of `batch`, reserving capacity
    /// up front so bulk scheduling does not regrow storage entry by entry.
    /// The reservation trusts the iterator's *upper* size hint when one is
    /// reported (an `ExactSizeIterator` reports `(n, Some(n))`; adapters
    /// like `take` may report a conservative lower bound with an exact
    /// upper), falling back to the lower bound otherwise. Sequence numbers
    /// are assigned in iteration order — the result is indistinguishable
    /// from calling [`EventQueue::push`] in a loop. Returns the number of
    /// entries pushed.
    pub fn push_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, T)>) -> usize {
        let batch = batch.into_iter();
        let (lo, hi) = batch.size_hint();
        self.reserve(hi.unwrap_or(lo));
        let mut pushed = 0;
        for (time, item) in batch {
            self.push(time, item);
            pushed += 1;
        }
        pushed
    }

    /// Removes and returns the earliest entry (FIFO among ties), or `None`
    /// if the queue is empty.
    // iotse-lint: hot-path
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        let idx = self.current;
        if idx == NIL {
            return None;
        }
        let i = idx as usize;
        let time = self.arena[i].time;
        let seq = self.arena[i].seq;
        let item = self.arena[i].item.take()?;
        self.current = self.arena[i].next;
        if self.current == NIL {
            self.current_tail = NIL;
        }
        self.arena[i].next = self.free_head;
        self.free_head = idx;
        self.free_len += 1;
        self.len -= 1;
        if self.current == NIL && self.len > 0 {
            self.advance_wheel();
        }
        Some(Scheduled { time, seq, item })
    }

    /// Removes and returns the earliest entry only if it is due exactly at
    /// `time`. The engine's run loop drains a whole tick with one slot
    /// visit this way: `pop_at(t)` until `None`, no re-peek per event.
    /// Because the current head is the global minimum, a `None` here means
    /// no pending entry is due at `time`.
    // iotse-lint: hot-path
    pub fn pop_at(&mut self, time: SimTime) -> Option<Scheduled<T>> {
        if self.current == NIL || self.arena[self.current as usize].time != time {
            return None;
        }
        self.pop()
    }

    /// The due time of the earliest entry without removing it.
    // iotse-lint: hot-path
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.current == NIL {
            None
        } else {
            Some(self.arena[self.current as usize].time)
        }
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the queue can hold concurrently without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Total number of entries ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Discards all pending entries (the sequence counter keeps advancing,
    /// so determinism is unaffected).
    pub fn clear(&mut self) {
        self.arena.clear();
        self.free_head = NIL;
        self.free_len = 0;
        self.heads = [[NIL; SLOTS]; LEVELS];
        self.tails = [[NIL; SLOTS]; LEVELS];
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.cursor = 0;
        self.current = NIL;
        self.current_tail = NIL;
        self.len = 0;
    }

    fn alloc_node(&mut self, time: SimTime, seq: u64, item: T) -> u32 {
        let idx = self.free_head;
        if idx != NIL {
            self.free_head = self.arena[idx as usize].next;
            self.free_len -= 1;
            let node = &mut self.arena[idx as usize];
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.item = Some(item);
            return idx;
        }
        assert!(
            self.arena.len() < NIL as usize,
            "event arena exhausted (u32 index space)"
        );
        self.arena.push(Node {
            time,
            seq,
            next: NIL,
            item: Some(item),
        });
        (self.arena.len() - 1) as u32
    }

    /// Routes a node to the current list, a wheel slot, or the overflow
    /// heap according to its slot's distance from the cursor.
    // iotse-lint: hot-path
    fn place_node(&mut self, idx: u32) {
        let time = self.arena[idx as usize].time;
        let slot = slot_tick(time);
        if slot <= self.cursor {
            self.link_current(idx);
            return;
        }
        let level = level_for(slot, self.cursor);
        if level >= LEVELS {
            let seq = self.arena[idx as usize].seq;
            self.overflow.push(FarEntry {
                time,
                seq,
                node: idx,
            });
            return;
        }
        let si = ((slot >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.arena[idx as usize].next = NIL;
        let tail = self.tails[level][si];
        if tail == NIL {
            self.heads[level][si] = idx;
        } else {
            self.arena[tail as usize].next = idx;
        }
        self.tails[level][si] = idx;
        self.occupied[level] |= 1 << si;
    }

    /// Sorted insert into the current list. Pushes carry fresh (maximal)
    /// sequence numbers, so the common case appends at the tail in O(1);
    /// the walk only runs for out-of-order times within the slot span.
    // iotse-lint: hot-path
    fn link_current(&mut self, idx: u32) {
        let time = self.arena[idx as usize].time;
        let seq = self.arena[idx as usize].seq;
        if self.current == NIL {
            self.arena[idx as usize].next = NIL;
            self.current = idx;
            self.current_tail = idx;
            return;
        }
        let tail = self.current_tail;
        let tail_key = (
            self.arena[tail as usize].time,
            self.arena[tail as usize].seq,
        );
        if tail_key <= (time, seq) {
            self.arena[idx as usize].next = NIL;
            self.arena[tail as usize].next = idx;
            self.current_tail = idx;
            return;
        }
        let mut prev = NIL;
        let mut cur = self.current;
        while cur != NIL {
            let key = (self.arena[cur as usize].time, self.arena[cur as usize].seq);
            if key > (time, seq) {
                break;
            }
            prev = cur;
            cur = self.arena[cur as usize].next;
        }
        self.arena[idx as usize].next = cur;
        if prev == NIL {
            self.current = idx;
        } else {
            self.arena[prev as usize].next = idx;
        }
        // The tail key was larger, so the insert landed strictly before
        // the tail and `current_tail` is unchanged.
    }

    fn take_slot(&mut self, level: usize, si: usize) -> u32 {
        let head = self.heads[level][si];
        self.heads[level][si] = NIL;
        self.tails[level][si] = NIL;
        self.occupied[level] &= !(1 << si);
        head
    }

    /// Moves the cursor to the next pending entry and rebuilds the
    /// current list from its slot. Precondition: current empty, `len > 0`.
    // iotse-lint: hot-path
    fn advance_wheel(&mut self) {
        debug_assert!(self.current == NIL && self.len > 0);
        loop {
            // Far-future events that now fit the wheel's span come in
            // first; the overflow minimum is beyond every wheel entry, so
            // refilling before the scan cannot reorder anything.
            self.refill_from_overflow();
            if self.current != NIL {
                return;
            }
            // Nearest occupied level-0 slot in the current window.
            let i0 = (self.cursor & SLOT_MASK) as u32;
            let future = if i0 as usize == SLOTS - 1 {
                0
            } else {
                !0u64 << (i0 + 1)
            };
            let avail = self.occupied[0] & future;
            if avail != 0 {
                let si = avail.trailing_zeros() as usize;
                self.cursor = (self.cursor & !SLOT_MASK) | si as u64;
                let head = self.take_slot(0, si);
                self.relink_current_sorted(head);
                return;
            }
            if self.cascade_one() {
                if self.current != NIL {
                    return;
                }
                continue;
            }
            // Wheel empty: re-anchor on the earliest far-future event;
            // the next refill pulls it (and any now-fitting followers) in.
            let Some(far) = self.overflow.peek() else {
                debug_assert!(false, "len > 0 with empty wheel and overflow");
                return;
            };
            self.cursor = slot_tick(far.time);
        }
    }

    /// Drains every overflow entry that fits the wheel (or is already due)
    /// back through [`EventQueue::place_node`].
    // iotse-lint: hot-path
    fn refill_from_overflow(&mut self) {
        while let Some(far) = self.overflow.peek() {
            let slot = slot_tick(far.time);
            if slot > self.cursor && level_for(slot, self.cursor) >= LEVELS {
                return;
            }
            let Some(far) = self.overflow.pop() else {
                return;
            };
            self.place_node(far.node);
        }
    }

    /// Cascades the nearest occupied slot of the lowest non-empty upper
    /// level: jumps the cursor to that slot's start and redistributes its
    /// entries to lower levels (or straight into the current list when
    /// they land on the cursor's own slot). Lower-level entries always
    /// precede higher-level ones, so taking the lowest level first
    /// preserves global order. Returns `false` when the wheel is empty.
    // iotse-lint: hot-path
    fn cascade_one(&mut self) -> bool {
        for level in 1..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let li = ((self.cursor >> shift) & SLOT_MASK) as u32;
            let future = if li as usize == SLOTS - 1 {
                0
            } else {
                !0u64 << (li + 1)
            };
            let avail = self.occupied[level] & future;
            if avail == 0 {
                continue;
            }
            let si = avail.trailing_zeros() as usize;
            // Cursor jumps to the start of the cascaded slot: bits above
            // the level keep their value, the level's index becomes `si`,
            // everything below resets to zero.
            let above = self.cursor >> (shift + LEVEL_BITS) << (shift + LEVEL_BITS);
            self.cursor = above | ((si as u64) << shift);
            let mut node = self.take_slot(level, si);
            while node != NIL {
                let next = self.arena[node as usize].next;
                self.place_node(node);
                node = next;
            }
            return true;
        }
        false
    }

    /// Sorts a freshly taken slot list and installs it as the current
    /// list.
    // iotse-lint: hot-path
    fn relink_current_sorted(&mut self, head: u32) {
        let sorted = self.sort_slot_list(head);
        self.current = sorted;
        let mut tail = sorted;
        if tail != NIL {
            while self.arena[tail as usize].next != NIL {
                tail = self.arena[tail as usize].next;
            }
        }
        self.current_tail = tail;
    }

    /// Alloc-free bottom-up linked-list mergesort by `(time, seq)`:
    /// `bins[i]` holds a sorted run of 2^i nodes (or `NIL`), runs carry-
    /// merge as singletons arrive, and the bins fold into one list at the
    /// end. Keys are unique (seqs never repeat), so the order is total.
    // iotse-lint: hot-path
    fn sort_slot_list(&mut self, head: u32) -> u32 {
        let mut bins = [NIL; SORT_BINS];
        let mut node = head;
        while node != NIL {
            let next = self.arena[node as usize].next;
            self.arena[node as usize].next = NIL;
            let mut run = node;
            let mut i = 0;
            while bins[i] != NIL {
                run = self.merge_sorted(bins[i], run);
                bins[i] = NIL;
                i += 1;
            }
            bins[i] = run;
            node = next;
        }
        let mut sorted = NIL;
        for bin in bins {
            if bin != NIL {
                sorted = if sorted == NIL {
                    bin
                } else {
                    self.merge_sorted(bin, sorted)
                };
            }
        }
        sorted
    }

    /// Merges two `(time, seq)`-sorted node lists.
    // iotse-lint: hot-path
    fn merge_sorted(&mut self, mut a: u32, mut b: u32) -> u32 {
        let mut head = NIL;
        let mut tail = NIL;
        while a != NIL && b != NIL {
            let ka = (self.arena[a as usize].time, self.arena[a as usize].seq);
            let kb = (self.arena[b as usize].time, self.arena[b as usize].seq);
            let pick = if ka <= kb {
                let n = a;
                a = self.arena[a as usize].next;
                n
            } else {
                let n = b;
                b = self.arena[b as usize].next;
                n
            };
            if tail == NIL {
                head = pick;
            } else {
                self.arena[tail as usize].next = pick;
            }
            tail = pick;
        }
        let rest = if a != NIL { a } else { b };
        if tail == NIL {
            head = rest;
        } else {
            self.arena[tail as usize].next = rest;
        }
        head
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The oracle: the original `(time, seq)`-ordered binary heap with its own
/// sequence counter. It honors the [`EventQueue`] ordering contract with a
/// plainly correct implementation, and the property suites drain random
/// schedules through both queues demanding seq-for-seq agreement. Only
/// tests use it; the engine always runs on the wheel.
#[derive(Debug)]
pub struct ReferenceQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> ReferenceQueue<T> {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `item` at `time`; returns its sequence number.
    pub fn push(&mut self, time: SimTime, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, item });
        seq
    }

    /// Removes and returns the earliest entry (FIFO among ties).
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.heap.pop()
    }

    /// Removes and returns the earliest entry only if it is due at `time`.
    pub fn pop_at(&mut self, time: SimTime) -> Option<Scheduled<T>> {
        match self.heap.peek() {
            Some(s) if s.time == time => self.heap.pop(),
            _ => None,
        }
    }

    /// The due time of the earliest entry.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of entries ever scheduled.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Discards all pending entries; the sequence counter keeps advancing.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> Default for ReferenceQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.item)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.item)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), "a");
        q.push(SimTime::from_nanos(1), "b");
        assert_eq!(q.pop().unwrap().item, "b");
        q.push(SimTime::from_nanos(2), "c");
        q.push(SimTime::from_nanos(9), "d");
        assert_eq!(q.pop().unwrap().item, "c");
        assert_eq!(q.pop().unwrap().item, "a");
        assert_eq!(q.pop().unwrap().item, "d");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batch_push_preserves_seq_order() {
        // A batch push must be indistinguishable from a push loop: ties
        // stay FIFO in iteration order, and interleaving with singleton
        // pushes keeps one monotone sequence.
        let t = SimTime::from_millis(3);
        let mut batched = EventQueue::new();
        batched.push(t, -1);
        let pushed = batched.push_batch((0..50).map(|i| {
            let time = if i % 2 == 0 {
                t
            } else {
                SimTime::from_millis(1)
            };
            (time, i)
        }));
        assert_eq!(pushed, 50);
        batched.push(SimTime::from_millis(1), 99);

        let mut looped = EventQueue::new();
        looped.push(t, -1);
        for i in 0..50 {
            let time = if i % 2 == 0 {
                t
            } else {
                SimTime::from_millis(1)
            };
            looped.push(time, i);
        }
        looped.push(SimTime::from_millis(1), 99);

        assert_eq!(batched.scheduled_total(), looped.scheduled_total());
        let drain = |mut q: EventQueue<i32>| -> Vec<(u64, i32)> {
            std::iter::from_fn(|| q.pop().map(|s| (s.seq, s.item))).collect()
        };
        assert_eq!(drain(batched), drain(looped));
    }

    #[test]
    fn batch_push_reserves_capacity() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.reserve(8);
        // An exact-size iterator's lower bound covers the whole batch, so
        // the push loop cannot regrow what reserve() set aside.
        let n = q.push_batch((0..8u32).map(|i| (SimTime::from_nanos(u64::from(i)), i)));
        assert_eq!(n, 8);
        assert_eq!(q.len(), 8);
        assert_eq!(q.pop().map(|s| s.item), Some(0));
    }

    #[test]
    fn batch_push_trusts_an_exact_upper_hint() {
        // Regression: an iterator with a conservative lower bound but an
        // honest upper bound must still reserve once, up front. The old
        // code reserved `size_hint().0` (here 0) and regrew push by push.
        struct Hinted {
            produced: u64,
        }
        impl Iterator for Hinted {
            type Item = (SimTime, u64);
            fn next(&mut self) -> Option<Self::Item> {
                if self.produced >= 8 {
                    return None;
                }
                self.produced += 1;
                Some((SimTime::from_nanos(self.produced), self.produced))
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (0, Some(100))
            }
        }
        let mut q = EventQueue::new();
        assert_eq!(q.push_batch(Hinted { produced: 0 }), 8);
        assert_eq!(q.len(), 8);
        assert!(
            q.capacity() >= 100,
            "upper hint not reserved: capacity {}",
            q.capacity()
        );
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        // Sequence numbers continue after clear.
        let seq = q.push(SimTime::ZERO, 3);
        assert_eq!(seq, 2);
    }

    #[test]
    fn clear_resets_the_wheel_for_reuse() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "wheel");
        q.push(SimTime::from_secs(500_000_000), "overflow");
        q.push(SimTime::from_nanos(3), "current");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|s| s.item), None);
        // The cleared wheel orders a fresh schedule correctly.
        q.push(SimTime::from_millis(2), "b");
        q.push(SimTime::from_millis(1), "a");
        assert_eq!(q.pop().map(|s| s.item), Some("a"));
        assert_eq!(q.pop().map(|s| s.item), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Beyond the wheel span (≈2.2 simulated years): overflow heap.
        let far = SimTime::from_secs(200_000_000);
        let farther = SimTime::from_secs(300_000_000);
        q.push(far, "far");
        q.push(SimTime::from_millis(1), "near");
        q.push(farther, "farther");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().map(|s| s.item), Some("near"));
        assert_eq!(q.pop().map(|s| s.item), Some("far"));
        // After the re-anchor on `far`, a "past" push (relative to the
        // advanced cursor) must still come out first.
        q.push(SimTime::from_secs(1), "late-but-early");
        assert_eq!(q.pop().map(|s| s.item), Some("late-but-early"));
        assert_eq!(q.pop().map(|s| s.item), Some("farther"));
        assert!(q.is_empty());
    }

    #[test]
    fn cascades_span_every_level() {
        // One event per wheel level (plus overflow), pushed in reverse.
        let mut q = EventQueue::new();
        let mut times: Vec<SimTime> = (0..7u32)
            .map(|k| SimTime::from_nanos(1u64 << (SLOT_NS_BITS + LEVEL_BITS * k)))
            .collect();
        times.push(SimTime::from_nanos(7));
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(t, i);
        }
        times.sort();
        let drained: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|s| s.time)).collect();
        assert_eq!(drained, times);
    }

    #[test]
    fn pop_at_only_matches_the_due_head() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::from_millis(9), 3);
        assert_eq!(q.pop_at(SimTime::from_millis(1)), None);
        assert_eq!(q.pop_at(t).map(|s| s.item), Some(1));
        assert_eq!(q.pop_at(t).map(|s| s.item), Some(2));
        assert_eq!(q.pop_at(t), None);
        assert_eq!(q.pop_at(SimTime::from_millis(9)).map(|s| s.item), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn reference_queue_honors_the_same_contract() {
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::new();
        for (t, v) in [(30u64, 3), (10, 1), (10, 2), (20, 4)] {
            wheel.push(SimTime::from_nanos(t), v);
            heap.push(SimTime::from_nanos(t), v);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(
                a.as_ref().map(|s| (s.time, s.seq, s.item)),
                b.as_ref().map(|s| (s.time, s.seq, s.item))
            );
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
    }

    #[test]
    fn wheel_matches_reference_on_random_interleavings() {
        // In-module mini-oracle (the full suite lives in
        // tests/properties.rs): random pushes at mixed magnitudes with
        // interleaved pops drain seq-for-seq identically on both queues.
        for case in 0..40u64 {
            let mut rng = SimRng::seed_from_u64(0x7EE1_0000 ^ case);
            let mut wheel = EventQueue::new();
            let mut heap = ReferenceQueue::new();
            for op in 0..300u64 {
                if rng.gen_bool(0.3) && !heap.is_empty() {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(
                        a.as_ref().map(|s| (s.time, s.seq, s.item)),
                        b.as_ref().map(|s| (s.time, s.seq, s.item)),
                        "case {case} op {op}"
                    );
                } else {
                    let magnitude = rng.gen_range(0..60u32);
                    let t = SimTime::from_nanos(rng.gen_range(0..(4u64 << magnitude)));
                    wheel.push(t, op);
                    heap.push(t, op);
                }
                assert_eq!(wheel.peek_time(), heap.peek_time(), "case {case} op {op}");
                assert_eq!(wheel.len(), heap.len());
            }
            while let Some(b) = heap.pop() {
                let a = wheel.pop().expect("wheel drained early");
                assert_eq!((a.time, a.seq, a.item), (b.time, b.seq, b.item));
            }
            assert!(wheel.is_empty());
        }
    }
}
