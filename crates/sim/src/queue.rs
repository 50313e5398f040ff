//! The pending-event queue.
//!
//! Events are ordered by `(time, key, seq)`:
//!
//! - `time` is the absolute firing instant;
//! - `key` is a caller-supplied **scheduling key** — the deterministic
//!   merge rule that makes parallel partitioned runs bit-identical to
//!   serial ones. Models that partition across workers assign each
//!   scheduled event a key derived from the *scheduling* entity (e.g.
//!   `node << 32 | per-node counter`), which is reproducible no matter
//!   which worker performs the insertion or when a cross-partition
//!   delivery is merged in. Keys are expected to be unique per event, so
//!   the ordering never falls through to insertion order for keyed
//!   events. Trivial models use [`EventQueue::schedule_at`], which keys
//!   everything 0;
//! - `seq` is a monotonically increasing insertion counter that breaks
//!   ties among equal keys (i.e. among unkeyed events), preserving the
//!   classic FIFO-at-equal-times behaviour.
//!
//! Three tiers back the ordering:
//!
//! - a **same-instant bucket** holding every pending event at one instant
//!   (`bucket_time`), ordered by `(key, seq)`. The dominant scheduling
//!   pattern in the machine model is zero-delay chaining — dispatch at
//!   `t` schedules more work at `t` — and those events cycle through the
//!   small bucket heap, never touching the main buffer;
//! - the **near prefix** `buf[..near]` of the one main buffer: a 4-ary
//!   min-heap on `(time, key, seq)` of every other event with
//!   `time <= split`;
//! - the **far suffix** `buf[near..]`: every other event with
//!   `time > split`, in no order at all. Scheduling past the split is a
//!   plain `Vec::push`.
//!
//! Invariants, after every public call:
//!
//! 1. near `<= split <` far, so the earliest event of the main buffer is
//!    the near heap's top and [`EventQueue::peek_time`] is O(1) on `&self`;
//! 2. the near prefix is empty only when the whole buffer is: the pop
//!    that takes the last near event refills the prefix in one sequential
//!    pass over the suffix (partition around a sampled pivot, heapify);
//! 3. pop order is exactly `(time, key, seq)` **whatever pivot a rebalance
//!    picks**: the pivot decides only which side of the split an event
//!    waits on, never the order in which the heap releases it;
//! 4. a queue that never holds more than [`MIN_NEAR`] events off-bucket
//!    never leaves `split == SimTime::MAX`: the suffix stays empty and the
//!    buffer is a plain heap with the growth sequence of one `Vec`.
//!
//! When pushes below the split make the prefix outgrow `limit` it is
//! re-partitioned in place (the later half becomes the head of the
//! suffix — the two tiers are contiguous, so nothing is copied out). The
//! limit is re-armed to twice the prefix length after *every* rebalance,
//! so a burst of events at one instant (which no time pivot can divide)
//! costs amortized O(1) per push instead of a pass per push. Measurements
//! and the rejected variants: DESIGN.md §8, "The deep-queue step".
//!
//! `pop` compares the bucket minimum against the near top
//! lexicographically by `(time, key, seq)`, so ordering is exact no
//! matter how pushes interleave — including scheduling "in the past",
//! which the engine (not the queue) rejects.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap arity: four 40-byte children span 2.5 cache lines and halve the
/// depth of a binary heap ([`replace_top`]'s tournament is written for
/// four).
const ARITY: usize = 4;
/// The near prefix is never rebalanced below this many events (160 KB of
/// machine events): a queue this shallow stays a plain heap.
const MIN_NEAR: usize = 4096;
/// Evenly spaced entries a rebalance reads to choose its pivot.
const SAMPLES: usize = 64;
/// A refill keeps about this share of the buffer in the near prefix.
const REFILL_SHARE: usize = 16;

/// Main-buffer entry: the `(time, key, seq)` ordering key plus the
/// payload. Only the key fields participate in comparisons, so `E` needs
/// no `Ord`.
struct Entry<E> {
    at: SimTime,
    key: u64,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    #[inline]
    fn order(&self) -> (SimTime, u64, u64) {
        (self.at, self.key, self.seq)
    }

    /// `self.order() < other.order()`, computed without a branch: which
    /// of two children is earlier is a coin toss the predictor loses, so
    /// the heap selects by arithmetic on this result.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        #[cfg(test)]
        count_ops(1);
        let a = u128::from(self.at.0) << 64 | u128::from(self.key);
        let b = u128::from(other.at.0) << 64 | u128::from(other.key);
        (a < b) | ((a == b) & (self.seq < other.seq))
    }
}

#[cfg(test)]
thread_local! {
    /// Comparisons plus entries visited by rebalances, on this thread.
    static OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_ops(n: u64) {
    OPS.with(|c| c.set(c.get() + n));
}

// Slots are reached through `get`/`swap`/slice patterns, never `heap[i]`:
// the audit's `panic-reachable` rule resolves calls by name, so every
// firmware handler that pops a `Vec` "reaches" this file.

/// Restore the heap property upwards from slot `i`.
#[inline]
fn sift_up<E>(heap: &mut [Entry<E>], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / ARITY;
        match (heap.get(i), heap.get(parent)) {
            (Some(child), Some(above)) if child.before(above) => heap.swap(i, parent),
            _ => break,
        }
        i = parent;
    }
}

/// Take the top of `heap` out and `last` (the entry that held the
/// heap's final slot) in, returning the old top — `last` itself when the
/// heap is empty. Bottom-up: follow the least child to a leaf without
/// moving anything, climb to where `last` belongs (it came from the bottom
/// row, so usually nowhere), then shift that much of the path up by one
/// slot. One load and one store per level, where a swap does two of each.
#[inline]
fn replace_top<E>(heap: &mut [Entry<E>], last: Entry<E>) -> Entry<E> {
    let mut i = 0;
    // Full groups of four children: a two-round tournament, selected by
    // arithmetic on the comparisons rather than by branching on them.
    while let Some([c0, c1, c2, c3]) = heap.get(ARITY * i + 1..ARITY * i + 1 + ARITY) {
        let a = usize::from(c1.before(c0));
        let b = 2 + usize::from(c3.before(c2));
        let (w01, w23) = (if a == 0 { c0 } else { c1 }, if b == 2 { c2 } else { c3 });
        i = ARITY * i + 1 + a + (b - a) * usize::from(w23.before(w01));
    }
    // The last, ragged group.
    let first = ARITY * i + 1;
    if let Some((head, rest)) = heap.get(first..).and_then(<[_]>::split_first) {
        let mut least = head;
        i = first;
        for (c, child) in rest.iter().enumerate() {
            if child.before(least) {
                least = child;
                i = first + 1 + c;
            }
        }
    }
    while i > 0 && heap.get(i).is_some_and(|e| last.before(e)) {
        i = (i - 1) / ARITY;
    }
    let mut carry = last;
    while let Some(slot) = heap.get_mut(i) {
        carry = std::mem::replace(slot, carry);
        if i == 0 {
            break;
        }
        i = (i - 1) / ARITY;
    }
    carry
}

/// Bucket entry: events at `bucket_time`, ordered by `(key, seq)`.
struct BucketEntry<E> {
    key: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for BucketEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for BucketEntry<E> {}

impl<E> PartialOrd for BucketEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for BucketEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (key, seq)
        // pops first.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    /// Events at `bucket_time`, ordered by `(key, seq)`.
    bucket: BinaryHeap<BucketEntry<E>>,
    bucket_time: SimTime,
    /// Every other event: `buf[..near]` is the 4-ary heap of those at or
    /// before `split`, `buf[near..]` holds those after it, unordered.
    buf: Vec<Entry<E>>,
    near: usize,
    split: SimTime,
    /// Prefix length that triggers the next in-place re-partition.
    limit: usize,
    next_seq: u64,
    scheduled: u64,
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
            bucket: BinaryHeap::new(),
            bucket_time: SimTime::ZERO,
            buf: Vec::new(),
            near: 0,
            split: SimTime::MAX,
            limit: MIN_NEAR,
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at` with scheduling key
    /// `key`.
    ///
    /// Events at equal times fire in `(key, seq)` order. An empty bucket
    /// is claimed by whatever instant is scheduled next; pushes at the
    /// bucket's instant stay in the bucket, everything else goes to the
    /// main buffer — sifted into the near heap at or before the split,
    /// appended to the far suffix after it.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        if self.bucket.is_empty() {
            self.bucket_time = at;
        }
        if at == self.bucket_time {
            self.bucket.push(BucketEntry {
                key,
                seq,
                ev: event,
            });
            return;
        }
        self.buf.push(Entry {
            at,
            key,
            seq,
            ev: event,
        });
        if at <= self.split {
            // The suffix's first entry makes room at the prefix's end.
            let last = self.buf.len() - 1;
            if self.near != last {
                self.buf.swap(self.near, last);
            }
            sift_up(&mut self.buf, self.near);
            self.near += 1;
            if self.near > self.limit {
                self.rebalance(self.near, self.near / 2);
            }
        }
    }

    /// Schedule `event` at absolute time `at` with key 0 — the unkeyed
    /// path for models that rely on pure FIFO-at-equal-times ordering.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_keyed(at, 0, event);
    }

    /// Pop the earliest event, if any, returning its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, ev)| (at, ev))
    }

    /// Pop the earliest event together with its scheduling key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_keyed_until(SimTime::MAX)
    }

    /// [`Self::pop_keyed`], unless the earliest event fires after
    /// `horizon`: then it stays queued and `None` is returned (as for an
    /// empty queue). The engine's run loop pops through this so the
    /// bucket-versus-buffer choice is made once per event.
    #[inline]
    pub fn pop_keyed_until(&mut self, horizon: SimTime) -> Option<(SimTime, u64, E)> {
        let from_buf = match (self.bucket.peek(), self.buf.first()) {
            (None, None) => return None,
            (None, Some(k)) => Some(k.at),
            (Some(_), None) => None,
            (Some(b), Some(k)) => (k.order() < (self.bucket_time, b.key, b.seq)).then_some(k.at),
        };
        if let Some(at) = from_buf {
            if at > horizon {
                return None;
            }
            // The prefix's last entry leaves its slot to the suffix's
            // last (both tiers stay contiguous) and re-enters at the top.
            self.near -= 1;
            let last = self.buf.swap_remove(self.near);
            let e = replace_top(self.buf.split_at_mut(self.near).0, last);
            if self.near == 0 && self.split != SimTime::MAX {
                let len = self.buf.len();
                self.rebalance(len, (len / REFILL_SHARE).max(MIN_NEAR));
            }
            Some((e.at, e.key, e.ev))
        } else {
            if self.bucket_time > horizon {
                return None;
            }
            let b = self.bucket.pop()?;
            Some((self.bucket_time, b.key, b.ev))
        }
    }

    /// Re-draw the split inside `buf[..m]` (the whole buffer when the
    /// prefix ran empty, the prefix when it outgrew `limit`) so that about
    /// `keep` of its earliest entries form the near heap. One sequential
    /// pass; the pivot is the time of a sampled entry, so at least that
    /// entry stays near, and every entry sharing the pivot's instant stays
    /// with it.
    #[cold]
    fn rebalance(&mut self, m: usize, keep: usize) {
        self.split = if m <= keep {
            SimTime::MAX
        } else {
            let mut sample = [SimTime::MAX; SAMPLES];
            for (i, s) in sample.iter_mut().enumerate() {
                *s = self.buf.get(i * m / SAMPLES).map_or(*s, |e| e.at);
            }
            sample.sort_unstable();
            let rank = (keep * SAMPLES).div_ceil(m).max(1);
            sample.get(rank - 1).copied().unwrap_or(SimTime::MAX)
        };
        #[cfg(test)]
        count_ops(m as u64);
        let mut k = 0;
        for i in 0..m {
            if self.buf.get(i).is_some_and(|e| e.at <= self.split) {
                self.buf.swap(i, k);
                k += 1;
            }
        }
        self.near = k;
        // Heap by insertion: the suffix is roughly in push order, which
        // is roughly time order — the case where sifting up moves nothing.
        for i in 1..k {
            sift_up(&mut self.buf, i);
        }
        self.limit = (2 * k).max(MIN_NEAR);
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let bucket = self.bucket.peek().map(|_| self.bucket_time);
        match (bucket, self.buf.first()) {
            (Some(b), Some(k)) => Some(b.min(k.at)),
            (b, k) => b.or(k.map(|k| k.at)),
        }
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.bucket.len() + self.buf.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.bucket.is_empty() && self.buf.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Model, RunOutcome};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(30), "c");
        q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn keys_order_within_an_instant() {
        // At equal times, key order wins over insertion order — the
        // deterministic merge rule for partitioned runs.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule_keyed(t, 30, "c");
        q.schedule_keyed(t, 10, "a");
        q.schedule_keyed(t, 20, "b");
        assert_eq!(q.pop_keyed(), Some((t, 10, "a")));
        assert_eq!(q.pop_keyed(), Some((t, 20, "b")));
        assert_eq!(q.pop_keyed(), Some((t, 30, "c")));
    }

    #[test]
    fn key_order_is_insertion_independent() {
        // The same set of keyed events pops in the same order no matter
        // how insertions interleave — including when some land in the
        // bucket and some in the heap.
        let t5 = SimTime::from_ns(5);
        let t9 = SimTime::from_ns(9);
        let mut a = EventQueue::new();
        a.schedule_keyed(t9, 2, "y");
        a.schedule_keyed(t5, 7, "x");
        a.schedule_keyed(t9, 1, "z");
        let mut b = EventQueue::new();
        b.schedule_keyed(t9, 1, "z");
        b.schedule_keyed(t9, 2, "y");
        b.schedule_keyed(t5, 7, "x");
        for q in [&mut a, &mut b] {
            assert_eq!(q.pop_keyed(), Some((t5, 7, "x")));
            assert_eq!(q.pop_keyed(), Some((t9, 1, "z")));
            assert_eq!(q.pop_keyed(), Some((t9, 2, "y")));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_ns(7), ());
        q.schedule_at(SimTime::from_ns(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(SimTime::from_ns(5), 2);
        q.schedule_at(SimTime::from_ns(5), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        q.schedule_at(SimTime::from_ns(1), 4);
        // Note: the queue does not forbid scheduling in the "past"; the
        // engine is responsible for monotonic dispatch. Pure ordering here.
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn same_instant_fifo_across_bucket_and_heap() {
        // Same-instant events stay FIFO even when some were routed to the
        // heap (bucket claimed by a different instant at schedule time)
        // and some to the bucket.
        let mut q = EventQueue::new();
        let t5 = SimTime::from_ns(5);
        let t9 = SimTime::from_ns(9);
        q.schedule_at(t9, 100); // bucket claims t=9
        q.schedule_at(t5, 0); // heap (earlier than bucket_time)
        q.schedule_at(t5, 1); // heap
        q.schedule_at(t9, 101); // bucket
        assert_eq!(q.pop(), Some((t5, 0)));
        assert_eq!(q.pop(), Some((t5, 1)));
        // Bucket drained at t=9; new same-instant pushes join the bucket
        // behind the pending ones.
        q.schedule_at(t9, 102);
        assert_eq!(q.pop(), Some((t9, 100)));
        assert_eq!(q.pop(), Some((t9, 101)));
        assert_eq!(q.pop(), Some((t9, 102)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn heap_capacity_is_recycled() {
        // Steady-state heap traffic reuses the heap's backing storage
        // instead of growing it.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            // Two live heap entries per round (bucket holds a third).
            let base = SimTime::from_ns(round * 10);
            q.schedule_at(base, round); // bucket
            q.schedule_at(base + SimTime::from_ns(1), round); // heap
            q.schedule_at(base + SimTime::from_ns(2), round); // heap
            assert!(q.pop().is_some());
            assert!(q.pop().is_some());
            assert!(q.pop().is_some());
        }
        assert!(q.buf.capacity() <= 8, "heap grew to {}", q.buf.capacity());
    }

    /// The tier invariants of the module doc, checked from inside.
    fn check_tiers<E>(q: &EventQueue<E>) {
        let (near, far) = q.buf.split_at(q.near);
        assert!(near.iter().all(|e| e.at <= q.split), "near <= split");
        assert!(far.iter().all(|e| e.at > q.split), "split < far");
        assert!(!near.is_empty() || far.is_empty(), "near empties last");
        for (i, e) in near.iter().enumerate().skip(1) {
            assert!(!e.before(&near[(i - 1) / ARITY]), "heap order at {i}");
        }
    }

    #[test]
    fn shallow_queue_stays_a_plain_heap() {
        // Up to MIN_NEAR events off-bucket: no split, no suffix, and the
        // buffer allocates what a heap of that many entries would.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0); // the bucket's instant
        for i in 0..MIN_NEAR as u64 {
            q.schedule_at(SimTime::from_ns(1 + (i * 7919) % 1000), i);
            assert_eq!((q.split, q.near), (SimTime::MAX, q.buf.len()));
        }
        assert!(q.buf.capacity() <= MIN_NEAR);
        check_tiers(&q);
        while q.pop().is_some() {
            assert_eq!((q.split, q.near), (SimTime::MAX, q.buf.len()));
        }
    }

    #[test]
    fn tiers_hold_through_refills_and_spills() {
        // 30k-40k events held while time advances. Stretches that pop
        // without pushing drain the prefix until it refills (split moves
        // forward); stretches that push two near-term events per pop
        // make it outgrow its limit and spill (split moves back);
        // draining returns to the plain heap.
        let mut rng = crate::rng::SimRng::new(13);
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0);
        for i in 0..30_000 {
            q.schedule_at(SimTime::from_ns(1 + rng.below(1_000_000)), i);
        }
        check_tiers(&q);
        let (mut refills, mut spills) = (0, 0);
        for i in 0..200_000 {
            let before = q.split;
            let (now, _) = q.pop().expect("held");
            refills += u32::from(q.split > before);
            if i % 20_000 < 10_000 {
                for _ in 0..2 {
                    let before = q.split;
                    q.schedule_at(now + SimTime::from_ns(1 + rng.below(2_000)), i);
                    spills += u32::from(q.split < before);
                }
            }
            if i % 997 == 0 {
                check_tiers(&q);
            }
        }
        assert!(
            refills >= 5 && spills >= 5,
            "{refills} refills, {spills} spills"
        );
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
        assert_eq!((q.split, q.near, q.limit), (SimTime::MAX, 0, MIN_NEAR));
    }

    #[test]
    fn tie_storm_costs_constant_operations_per_event() {
        // 50k events at one instant, then pushes at that instant between
        // pops. No pivot divides them, so a spill that re-ran whenever the
        // prefix exceeded a fixed limit would pass over 4096+ entries per
        // push (> 2e8 operations here); doubling the limit keeps the total
        // linear. Counted in comparisons + entries a rebalance visits.
        let storm = SimTime::from_ns(1_000);
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0); // the bucket's instant
        OPS.with(|c| c.set(0));
        let n = 50_000u64;
        for i in 0..n {
            q.schedule_keyed(storm, (i * 7919) % n, i);
        }
        for i in 0..n {
            q.schedule_keyed(storm, (i * 104_729) % n, i);
            let (at, ..) = q.pop_keyed().expect("held");
            assert_eq!(at, if i == 0 { SimTime::ZERO } else { storm });
        }
        check_tiers(&q);
        let ops = OPS.with(std::cell::Cell::get);
        assert!(ops < 60 * 2 * n, "{ops} operations for {} events", 2 * n);
    }

    #[test]
    fn zero_delay_chain_exhausts_event_budget() {
        // A model that keeps rescheduling at the *same* instant lives
        // entirely in the near-term bucket; the engine's event budget must
        // still stop it.
        struct SameInstantSpinner;
        impl Model for SameInstantSpinner {
            type Event = ();
            fn dispatch(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
                q.schedule_at(now, ());
            }
        }
        let mut e = Engine::new(SameInstantSpinner).with_event_budget(500);
        e.queue_mut().schedule_at(SimTime::from_ns(1), ());
        assert_eq!(e.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(e.dispatched(), 500);
        assert_eq!(e.now(), SimTime::from_ns(1));
    }
}
