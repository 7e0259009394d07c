//! The event queue: pending events keyed on `(time, sequence)`.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO tie-breaking). This is what makes whole-grid runs
//! reproducible: the request arrivals, the 10-second advertisement ticks
//! and the task completions interleave identically on every run.
//!
//! The queue is a hierarchical timing wheel: seven levels of 64 slots,
//! each level covering 64× the span of the one below, with a one-word
//! occupancy bitmap per level so advancing the clock skips empty regions
//! with bit scans instead of walking ticks. Push is `O(1)`; pop cascades
//! an entry through at most six levels over its lifetime. Events beyond
//! the wheel's ~51-day span (and events pushed behind the current
//! instant, which the engine never does but the API tolerates) fall back
//! to a small binary heap. The tests check it against a plain binary-heap
//! model on `(time, seq)`, here and in `tests/proptests.rs`.
//!
//! Determinism argument for the wheel: delivery order is decided solely
//! by sorting the drained tick's entries on their insertion sequence
//! number — never by slot layout. A cascade can append an *older* entry
//! (lower sequence number) to a slot after a directly-pushed newer one,
//! so slot order alone would be wrong; the sort makes the wheel's output
//! a pure function of the `(time, seq)` pairs, exactly like the heap.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A future-event list with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    wheel: WheelQueue<E>,
    next_seq: u64,
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
            wheel: WheelQueue::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(at, seq, event);
    }

    /// Re-insert an entry under its *original* sequence number without
    /// advancing the sequence counter. This is the replay half of
    /// [`EventQueue::pop_entry`]: a driver that speculatively pops
    /// entries (the sharded batch collector) puts them back with the
    /// exact `(at, seq)` key they were issued, so subsequent delivery
    /// order — including FIFO ties against events that were never
    /// popped — is indistinguishable from never having popped them.
    ///
    /// `seq` must come from a prior `pop_entry` (it is below the
    /// sequence counter and unique among pending entries).
    pub fn push_at_seq(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "push_at_seq requires a recycled seq");
        // A restored entry may sort before entries already staged for
        // delivery; flush the staging buffer back into the wheel so the
        // next pop re-sorts the full instant.
        self.wheel.unstage();
        self.wheel.push(at, seq, event);
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(at, _, e)| (at, e))
    }

    /// Like [`EventQueue::pop`], but also returns the entry's sequence
    /// number so it can be restored verbatim via
    /// [`EventQueue::push_at_seq`].
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.wheel.pop()
    }

    /// The timestamp of the earliest pending event.
    ///
    /// Takes `&mut self` because the wheel may cascade entries down a
    /// level to locate its minimum; the queue's contents and delivery
    /// order are unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.wheel.clear();
    }

    /// Return the queue to its freshly-constructed state — clock origin
    /// and sequence counter back to zero — while keeping every slot,
    /// heap and staging allocation. A reset queue behaves exactly like a
    /// new one, so long-running drivers (the serve loop, fuzz corpora)
    /// can recycle one queue across sessions instead of re-growing the
    /// wheel each time.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
        self.wheel.current = 0;
    }

    /// Pre-size backing storage for about `additional` pending events
    /// (e.g. the bootstrap arrivals of a run, all pushed before the
    /// first pop). The wheel proper is allocation-cheap; this sizes the
    /// overflow heap and staging buffer that absorb bursts.
    pub fn reserve(&mut self, additional: usize) {
        self.wheel.overflow.reserve(additional);
        self.wheel.ready.reserve(additional.min(1024));
    }
}

/// An overflow-heap entry, ordered on `(time, seq)`.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event on top,
        // and among equal times the lowest sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level; one occupancy bit each fits a `u64` bitmap.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel depth. Seven levels span `64^7` ticks (microseconds) ≈ 51 days
/// of simulated time; anything further out uses the overflow heap.
const LEVELS: usize = 7;

/// A hierarchical timing wheel.
///
/// `current` is the tick of the most recently delivered event (0
/// initially); every entry stored in the wheel proper has `tick >=
/// current` and shares all 6-bit groups above its level with `current`
/// (aligned windows). An entry's level is the highest 6-bit group in
/// which its tick differs from `current` at insertion time; as `current`
/// advances into an occupied higher-level slot, that slot's entries
/// cascade to lower levels.
struct WheelQueue<E> {
    /// `slots[level][slot]`: unordered entries; sorted by seq at drain.
    slots: Vec<Vec<WheelEntry<E>>>,
    /// One occupancy bit per slot, one word per level.
    occupied: [u64; LEVELS],
    /// Far-future (beyond the wheel span) and past-time entries.
    overflow: BinaryHeap<Entry<E>>,
    /// Entries of the tick currently being delivered, seq-sorted,
    /// drained back to front.
    ready: Vec<WheelEntry<E>>,
    /// Tick of the last delivered (or currently draining) instant.
    current: u64,
    /// Total pending entries across slots, overflow and ready.
    len: usize,
}

struct WheelEntry<E> {
    tick: u64,
    seq: u64,
    event: E,
}

impl<E> WheelQueue<E> {
    fn new() -> Self {
        WheelQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: Vec::new(),
            current: 0,
            len: 0,
        }
    }

    /// The level whose aligned window holds `tick`, or `None` when the
    /// tick is outside the wheel (past, or beyond the top level's span).
    #[inline]
    fn level_for(&self, tick: u64) -> Option<usize> {
        if tick < self.current {
            return None;
        }
        let diff = tick ^ self.current;
        if diff == 0 {
            return Some(0);
        }
        let level = (63 - diff.leading_zeros()) / LEVEL_BITS;
        if (level as usize) < LEVELS {
            Some(level as usize)
        } else {
            None
        }
    }

    #[inline]
    fn slot_index(level: usize, tick: u64) -> usize {
        ((tick >> (LEVEL_BITS * level as u32)) as usize) & (SLOTS - 1)
    }

    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        self.len += 1;
        let tick = at.ticks();
        match self.level_for(tick) {
            Some(level) => self.insert(level, WheelEntry { tick, seq, event }),
            None => self.overflow.push(Entry { at, seq, event }),
        }
    }

    #[inline]
    fn insert(&mut self, level: usize, entry: WheelEntry<E>) {
        let slot = Self::slot_index(level, entry.tick);
        self.slots[level * SLOTS + slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.ready.is_empty() && !self.stage_next_tick() {
            return None;
        }
        if self.overflow_undercuts_ready() {
            let e = self.overflow.pop().expect("peeked entry");
            self.len -= 1;
            return Some((e.at, e.seq, e.event));
        }
        let e = self.ready.pop().expect("staged tick cannot be empty");
        self.len -= 1;
        Some((SimTime::from_ticks(e.tick), e.seq, e.event))
    }

    /// Move any staged-but-undelivered entries back into the wheel so a
    /// subsequent [`WheelQueue::push`] of an *older* sequence number at
    /// the staged instant is re-sorted ahead of them on the next pop.
    /// Staged entries normally have `tick == current` and re-insert at
    /// level 0; past-time entries (staged from the overflow heap) go
    /// back to overflow. Either way the next
    /// [`WheelQueue::stage_next_tick`] rebuilds the seq-sorted instant
    /// from scratch.
    fn unstage(&mut self) {
        while let Some(e) = self.ready.pop() {
            match self.level_for(e.tick) {
                Some(level) => self.insert(level, e),
                None => self.overflow.push(Entry {
                    at: SimTime::from_ticks(e.tick),
                    seq: e.seq,
                    event: e.event,
                }),
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && !self.stage_next_tick() {
            return None;
        }
        if self.overflow_undercuts_ready() {
            return self.overflow.peek().map(|e| e.at);
        }
        Some(SimTime::from_ticks(
            self.ready.last().expect("staged tick cannot be empty").tick,
        ))
    }

    /// After a tick is staged into `ready`, a push *behind* it can still
    /// arrive (the API tolerates past-time pushes); such entries always
    /// land in the overflow heap because their tick precedes `current`.
    /// They must be delivered before the staged instant. Equal-tick
    /// overflow entries were pushed later (higher seq) and wait for the
    /// next staging round, which keeps FIFO exact.
    #[inline]
    fn overflow_undercuts_ready(&self) -> bool {
        match (self.overflow.peek(), self.ready.last()) {
            (Some(top), Some(front)) => top.at.ticks() < front.tick,
            _ => false,
        }
    }

    /// Locate the earliest pending tick, move every entry scheduled for
    /// it into `ready` (sorted by descending seq, so `Vec::pop` delivers
    /// FIFO), and advance `current` to it. Returns false when empty.
    fn stage_next_tick(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        let wheel_min = self.find_wheel_min();
        let overflow_min = self.overflow.peek().map(|e| e.at.ticks());
        let tick = match (wheel_min, overflow_min) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return false,
        };

        if wheel_min == Some(tick) {
            // By now the minimum has been cascaded down to level 0 (see
            // `find_wheel_min`), whose slots each hold exactly one tick.
            let slot = Self::slot_index(0, tick);
            let bucket = &mut self.slots[slot];
            debug_assert!(bucket.iter().all(|e| e.tick == tick));
            self.ready.append(bucket);
            if bucket.capacity() > 1024 {
                // Don't let one bursty instant pin memory forever.
                *bucket = Vec::new();
            }
            self.occupied[0] &= !(1 << slot);
        }
        while let Some(top) = self.overflow.peek() {
            if top.at.ticks() != tick {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry");
            self.ready.push(WheelEntry {
                tick,
                seq: e.seq,
                event: e.event,
            });
        }
        // Descending seq: `Vec::pop` then yields lowest seq first. The
        // sort is what guarantees heap-identical FIFO order — cascades
        // and overflow merges append entries out of seq order.
        self.ready
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
        // Past-time overflow entries may precede `current`; never move
        // the clock backwards for them.
        self.current = self.current.max(tick);
        true
    }

    /// The earliest tick stored in the wheel proper, cascading entries
    /// toward level 0 until the minimum sits in a level-0 slot.
    fn find_wheel_min(&mut self) -> Option<u64> {
        loop {
            // Any level-0 entry beats every higher-level entry: it
            // shares all upper 6-bit groups with `current`, while a
            // level-k entry exceeds `current` in group k.
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let e = self.slots[slot].first().expect("occupancy bit set");
                return Some(e.tick);
            }
            let level = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
            // The lowest occupied slot of the lowest occupied level
            // contains the wheel minimum (slots order ticks by their
            // group-`level` value; all lower groups of `current` are
            // dominated because every stored tick is > `current` here).
            let slot = self.occupied[level].trailing_zeros() as usize;
            let bucket = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            self.occupied[level] &= !(1 << slot);
            // Advance the window origin to the slot's minimum tick so
            // every entry re-inserts at a strictly lower level. This is
            // safe: the slot minimum is the global wheel minimum, and
            // `pop` never delivers anything earlier than it.
            let min_tick = bucket
                .iter()
                .map(|e| e.tick)
                .min()
                .expect("occupancy bit set on empty slot");
            debug_assert!(min_tick >= self.current);
            self.current = min_tick;
            for entry in bucket {
                let lower = self
                    .level_for(entry.tick)
                    .expect("cascade stays inside the wheel span");
                debug_assert!(lower < level);
                self.insert(lower, entry);
            }
        }
    }

    fn clear(&mut self) {
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.ready.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(3), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 10);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        q.push(SimTime::from_secs(4), 4);
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 4)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 10)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_tick_push_after_pop_stays_fifo() {
        // An event pushed *at* the instant currently being delivered
        // must run after the instant's remaining events (it has a
        // higher seq), exactly as the heap orders it.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        q.push(t, 3);
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_use_the_overflow_path() {
        let mut q = EventQueue::new();
        // Beyond the 64^7-tick wheel span, and the absolute maximum.
        let far = SimTime::from_ticks(1 << 62);
        q.push(SimTime::MAX, 3);
        q.push(far, 2);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((far, 2)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 3)));
    }

    #[test]
    fn past_pushes_are_tolerated() {
        // The engine clamps to `now`, but the queue itself must stay
        // well-defined (and heap-identical) if handed an earlier time.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1)));
        q.push(SimTime::from_secs(3), 2);
        q.push(SimTime::from_secs(12), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(12), 3)));
    }

    #[test]
    fn cascade_preserves_seq_order_within_a_tick() {
        // Craft a slot where a cascaded entry (older seq) joins a
        // directly-pushed newer entry at the same tick: delivery must
        // still be seq-ordered.
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(100_000);
        q.push(t, 1); // far from current=0: lives at a high level
        q.push(SimTime::from_ticks(99_999), 0);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(99_999), 0)));
        // Now current=99_999; a fresh push to tick 100_000 lands at
        // level 0 *before* the cascaded seq-1 entry arrives there.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn pop_entry_then_restore_is_invisible() {
        // Popping entries and pushing them back under their original
        // seqs must leave delivery order exactly as if nothing happened,
        // including FIFO ties against never-popped entries.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 10); // seq 0
        q.push(t, 11); // seq 1
        q.push(SimTime::from_secs(2), 12); // seq 2
        let (at, seq, e) = q.pop_entry().unwrap();
        assert_eq!((at, seq, e), (t, 0, 10));
        // A fresh push interleaves while the entry is out.
        q.push(t, 13); // seq 3
        q.push_at_seq(at, seq, e);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [10, 11, 13, 12]);
    }

    #[test]
    fn restore_resorts_a_partially_drained_instant() {
        // The wheel stages a whole instant at the first pop; restoring a
        // lower-seq entry at that instant must still deliver it before
        // the staged higher-seq remainder.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.push(t, 20); // seq 0
        q.push(t, 21); // seq 1
        q.push(t, 22); // seq 2
        let (at, seq, e) = q.pop_entry().unwrap();
        assert_eq!(e, 20);
        let (at1, seq1, e1) = q.pop_entry().unwrap();
        assert_eq!(e1, 21);
        q.push_at_seq(at, seq, e);
        q.push_at_seq(at1, seq1, e1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [20, 21, 22]);
    }

    #[test]
    fn reset_behaves_like_new() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 1);
        q.push(SimTime::from_secs(9), 2);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        // Seqs restart at zero: FIFO ties behave like a fresh queue.
        q.push(SimTime::from_secs(1), 7);
        q.push(SimTime::from_secs(1), 8);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 7)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 8)));
    }

    #[test]
    fn reserve_is_behaviour_neutral() {
        let mut q = EventQueue::new();
        q.reserve(1000);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
    }

    #[test]
    fn dense_microsecond_schedule_matches_heap() {
        // Reference: a binary min-heap on `(time, seq)`; the event is
        // its own push index, so it doubles as the sequence number.
        let mut heap = std::collections::BinaryHeap::new();
        let mut wheel = EventQueue::new();
        // A deterministic scatter of ticks across several wheel levels.
        let mut tick: u64 = 0;
        for i in 0..5_000i64 {
            tick = tick
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = SimTime::from_ticks(tick % 50_000_000);
            heap.push(Reverse((at, i)));
            wheel.push(at, i);
        }
        loop {
            let (a, b) = (heap.pop().map(|Reverse(e)| e), wheel.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
