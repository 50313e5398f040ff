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
//! Four tiers back the ordering, from the next event outwards. A queue
//! that never holds more than `MIN_NEAR` = 4,096 events uses only the
//! first — it *is* a `std` binary heap — and past that it is a ladder
//! queue (Tang, Goh & Thng, ACM TOMACS 2005) with the heap kept as its
//! bottom:
//!
//! - the **inbox**: a `BinaryHeap` of every event at or before `run_end`
//!   that arrived after the run was sorted — in a shallow queue `run_end`
//!   is the end of time and the inbox is everything. A push at an instant
//!   already pending (the 10,368 `AppStart`s at t = 0, a zero-delay chain
//!   between two nodes) goes where its `(time, key)` says, like any other;
//! - the **run**: the current rung, sorted once, earliest last, so a pop
//!   is `Vec::pop`;
//! - the **rungs**: power-of-two-picosecond-wide slices of the time after
//!   the run's slice, up to `split`; a push there is a shift and an
//!   append, in push order;
//! - **far**: every event after `split`, in push order; a push is
//!   `Vec::push`.
//!
//! `run_end` and `split` are `(time, key)` pairs, not times: a lockstep
//! instant of 10,000 events is divided by key, so it cannot drag all of
//! itself into the near tiers at once.
//!
//! Invariants, after every public call, in `(time, key)` order:
//!
//! 1. inbox, run `<= run_end <` rungs `<= split <` far; the run is
//!    sorted; every rung entry's time is inside its rung's slice;
//! 2. the inbox and the run are both empty only when rungs and far are:
//!    the pop that drains them sorts the next non-empty rung into the run,
//!    and when the rungs are exhausted redraws the split inside far — one
//!    sequential pass that moves about 1/16 of it (at least `MIN_NEAR`
//!    events) into fresh rungs around the `(time, key)` of a sampled
//!    entry. So the earliest event is the earlier of two tops and
//!    [`EventQueue::peek_time`] is O(1) on `&self`;
//! 3. pop order is exactly `(time, key, seq)` **whatever pivot a refill
//!    draws and however wide it makes the rungs**: both decide only where
//!    an event waits. Tiers are disjoint intervals of `(time, key)`, so
//!    entries equal in `(time, key)` always wait in the same tier; an
//!    event leaves far or a rung only together with everything else in
//!    its interval, into a sort on `(time, key, seq)`; and whatever is
//!    scheduled into an interval already sorted goes through a heap on
//!    the same triple, whose top is compared with the run's end on every
//!    pop. Any monotone map from time to rung would do. Push order, which
//!    far and the rungs keep through every move, decides nothing about
//!    pop order either — only what the sort costs. A lockstep instant is
//!    dispatched in key order and each event schedules under its node's
//!    next key (`node << 32 | counter`), so the next instant is pushed in
//!    `(time, key)` order and its rung is one run the sort finds in a
//!    pass (log2 of the rung per entry when a refill scrambled it);
//! 4. a queue that never holds more than `MIN_NEAR` events never leaves
//!    `run_end == MAX`: run, rungs and far stay unallocated and the inbox
//!    grows as one `Vec`. Past that the heap's buffer *becomes* far
//!    (`into_vec`, no copy), and a refill that finds `MIN_NEAR` events or
//!    fewer hands it back (`BinaryHeap::from`).
//!
//! The worst case per operation is the heap's O(log n), as before: no
//! time pivot divides a tie storm, so its instant is one rung, sorted
//! once, and later pushes at that instant sit in the inbox.
//!
//! What bounds memory: far keeps the capacity of its deepest moment for
//! as long as the queue is a ladder, and everything nearer follows
//! *live* entries. A rung's `Vec` is handed to the run when its turn
//! comes and dropped when the next one is (rung buffers kept for reuse
//! ratchet to the largest rung each slot ever held — 18.7 MB against
//! 3.1 MB on the full machine's recorded run); a refill makes at most
//! `keep / RUNG_POP` rungs; the inbox gives a burst's buffer back once
//! drained (`BURST_KEEP`). That includes far's buffer: a refill that
//! hands it back to the heap makes it the inbox's, and the pop that
//! drains the heap shrinks it (10.5 MB on the contended torus,
//! otherwise held through its observed twin's reports).
//! [`EventQueue::capacity`] is held to twice the deepest length, and to
//! one burst once drained, by a test.
//! Measurements and the rejected variants: DESIGN.md §8, "The ladder
//! step" and "The push-order step".
//!
//! `pop` compares the run's end against the inbox's top lexicographically
//! by `(time, key, seq)`, so ordering is exact no matter how pushes
//! interleave — including scheduling "in the past", which the engine (not
//! the queue) rejects.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queue that never holds more than this many events stays a plain heap
/// (160 KB of machine events); a refill never keeps fewer near.
const MIN_NEAR: usize = 4096;
/// Evenly spaced entries a refill reads to choose its pivot.
const SAMPLES: usize = 64;
/// A refill keeps about this share of `far` in the rungs.
const REFILL_SHARE: usize = 16;
/// Entries a refill aims to put in one rung (its widths are powers of
/// two, so between this and twice this when time is evenly populated).
const RUNG_POP: usize = 32;

/// Capacity the inbox keeps once drained: what a rung's worth of pushes
/// needs, so the common case never regrows it, while a burst (10,368
/// `AppStart`s at t = 0; a lockstep instant delivered by another shard)
/// gives its buffer back.
const BURST_KEEP: usize = 2 * RUNG_POP;

/// A `(time, key)` pair as one integer — what the tier bounds are drawn
/// on. `seq` never takes part: entries equal in `(time, key)` always wait
/// in the same tier.
type Bound = u128;

#[inline]
fn bound(at: SimTime, key: u64) -> Bound {
    Bound::from(at.0) << 64 | Bound::from(key)
}

/// Queued entry: the `(time, key, seq)` ordering key plus the payload.
/// Only the key fields participate in comparisons, so `E` needs no `Ord`.
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

    #[inline]
    fn bound(&self) -> Bound {
        bound(self.at, self.key)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Inverted: the *earliest* `(time, key, seq)` is the greatest entry,
    /// so it is the top of a `BinaryHeap` and the last of a sorted `run`.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        #[cfg(test)]
        count_ops(1);
        other.order().cmp(&self.order())
    }
}

#[cfg(test)]
thread_local! {
    /// Comparisons plus entries visited by refills, on this thread.
    static OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_ops(n: u64) {
    OPS.with(|c| c.set(c.get() + n));
}

// Slots are reached through `get`/`get_mut`/`last`, never `rungs[i]`, and
// nothing here unwraps: the audit's `panic-reachable` rule resolves calls
// by name, so every firmware handler that pops a `Vec` "reaches" this file.

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    /// Every event at or before `run_end` that is not in `run` — in a
    /// shallow queue, every event.
    inbox: BinaryHeap<Entry<E>>,
    /// The current rung, sorted: the earliest entry is the last.
    run: Vec<Entry<E>>,
    run_end: Bound,
    /// Rung `i` holds the events after `run_end` and at or before `split`
    /// whose time is in `base + (i << shift) .. base + (i + 1 << shift)`,
    /// unordered. Empty exactly when the queue is a plain heap.
    rungs: Vec<Vec<Entry<E>>>,
    /// The first rung not yet sorted into `run`.
    cur: usize,
    /// Entries in `rungs[cur..]`, so that [`Self::len`] is a sum of four
    /// lengths and no push or pop maintains a count.
    in_rungs: usize,
    base: u64,
    shift: u32,
    split: Bound,
    /// Every event after `split`, unordered, none earlier than `far_min`.
    far: Vec<Entry<E>>,
    far_min: SimTime,
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
            inbox: BinaryHeap::new(),
            run: Vec::new(),
            run_end: Bound::MAX,
            rungs: Vec::new(),
            cur: 0,
            in_rungs: 0,
            base: 0,
            shift: 0,
            split: Bound::MAX,
            far: Vec::new(),
            far_min: SimTime::MAX,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at` with scheduling key
    /// `key`.
    ///
    /// Events at equal times fire in `(key, seq)` order. The event goes to
    /// the tier its `(time, key)` selects: the inbox heap at or before
    /// `run_end`, a rung (a shift and an append) up to `split`, `far` after
    /// it.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry {
            at,
            key,
            seq,
            ev: event,
        };
        let b = e.bound();
        if b <= self.run_end {
            self.inbox.push(e);
            if self.inbox.len() > MIN_NEAR && self.rungs.is_empty() {
                self.spill();
            }
        } else if b <= self.split {
            self.push_rung(e);
        } else {
            self.far_min = self.far_min.min(at);
            self.far.push(e);
        }
    }

    /// Append to the rung whose slice holds `e.at`. The index is clamped
    /// at both ends: any monotone map from time to rung keeps the pop
    /// order, and `far_min <= at <= split` means the clamp never acts.
    /// Always inlined: with `refill`'s loop as a second caller the
    /// compiler otherwise calls it out of line from `schedule_keyed`,
    /// which cost the contended torus 5 % (DESIGN.md §8).
    #[inline(always)]
    fn push_rung(&mut self, e: Entry<E>) {
        let i = (e.at.0.saturating_sub(self.base) >> self.shift) as usize;
        let last = self.rungs.len().saturating_sub(1);
        match self.rungs.get_mut(i.min(last)) {
            Some(rung) => {
                rung.push(e);
                self.in_rungs += 1;
            }
            // No rungs: a plain heap, whose inbox is every tier.
            None => self.inbox.push(e),
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
    /// choice between run and inbox is made once per event.
    #[inline]
    pub fn pop_keyed_until(&mut self, horizon: SimTime) -> Option<(SimTime, u64, E)> {
        let (next, from_inbox) = match (self.run.last(), self.inbox.peek()) {
            (Some(r), Some(i)) if i.order() < r.order() => (i, true),
            (Some(r), _) => (r, false),
            (None, i) => (i?, true),
        };
        if next.at > horizon {
            return None;
        }
        let e = if from_inbox {
            self.inbox.pop()?
        } else {
            self.run.pop()?
        };
        if self.run.is_empty() && self.inbox.is_empty() {
            // Drained: give the burst back, including far's buffer once a
            // refill has handed it to the heap.
            self.inbox.shrink_to(BURST_KEEP);
            if !self.rungs.is_empty() {
                self.advance();
            }
        }
        Some((e.at, e.key, e.ev))
    }

    /// `run` and `inbox` are drained: sort the next non-empty rung into
    /// `run`, redrawing the split inside `far` when the rungs are
    /// exhausted. Eager (called by the pop that drains them), so the
    /// earliest event is always in `run` or the inbox and
    /// [`Self::peek_time`] is O(1) on `&self`.
    fn advance(&mut self) {
        loop {
            while let Some(rung) = self.rungs.get_mut(self.cur) {
                self.cur += 1;
                if rung.is_empty() {
                    continue;
                }
                // Taking the rung's buffer drops the drained run's:
                // near-tier storage follows live entries, not the largest
                // rung ever seen.
                self.run = std::mem::take(rung);
                self.in_rungs -= self.run.len();
                // A rung holding one lockstep instant arrives in push
                // order, which is `(time, key)` order: one run, which the
                // sort finds and reverses in a pass.
                self.run.sort_unstable();
                let end = u128::from(self.base) + ((self.cur as u128) << self.shift) - 1;
                let end = SimTime(u64::try_from(end).unwrap_or(u64::MAX));
                self.run_end = self.split.min(bound(end, u64::MAX));
                return;
            }
            if !self.refill() {
                return;
            }
        }
    }

    /// The plain heap outgrew [`MIN_NEAR`]: its buffer *becomes* `far`
    /// (no copy, no second allocation) and the first split is drawn.
    #[cold]
    fn spill(&mut self) {
        self.far_min = self.inbox.peek().map_or(SimTime::MAX, |e| e.at);
        self.far = std::mem::take(&mut self.inbox).into_vec();
        self.advance();
    }

    /// Redraw the split inside `far` so that about `1 / REFILL_SHARE` of
    /// it (at least [`MIN_NEAR`]) moves to fresh rungs, in one sequential
    /// pass that keeps push order on both sides: the pivot is the
    /// `(time, key)` of a sampled entry, so at least that entry moves,
    /// and the rung width is picked from the span between `far_min` and
    /// the pivot. A `far` of [`MIN_NEAR`] entries or fewer goes back to
    /// being the plain heap instead (`false`).
    fn refill(&mut self) -> bool {
        let n = self.far.len();
        self.rungs.clear();
        self.cur = 0;
        if n <= MIN_NEAR {
            self.inbox = BinaryHeap::from(std::mem::take(&mut self.far));
            self.run = Vec::new();
            self.run_end = Bound::MAX;
            self.split = Bound::MAX;
            self.far_min = SimTime::MAX;
            return false;
        }
        let keep = (n / REFILL_SHARE).max(MIN_NEAR);
        let mut sample = [Bound::MAX; SAMPLES];
        for (i, s) in sample.iter_mut().enumerate() {
            *s = self.far.get(i * n / SAMPLES).map_or(*s, Entry::bound);
        }
        sample.sort_unstable();
        let rank = (keep * SAMPLES).div_ceil(n).max(1);
        self.split = sample.get(rank - 1).copied().unwrap_or(Bound::MAX);

        let span = ((self.split >> 64) as u64).saturating_sub(self.far_min.0);
        let target = (keep / RUNG_POP) as u64;
        self.base = self.far_min.0;
        self.shift = 0;
        while span >> self.shift >= target {
            self.shift += 1;
        }
        let rungs = (span >> self.shift) as usize + 1;
        self.rungs.resize_with(rungs, Vec::new);

        #[cfg(test)]
        count_ops(n as u64);
        // Both sides keep push order (`swap_remove` would scramble far).
        let split = self.split;
        let mut far_min = SimTime::MAX;
        let mut far = std::mem::take(&mut self.far);
        let near = far.extract_if(.., |e| {
            let near = e.bound() <= split;
            if !near {
                far_min = far_min.min(e.at);
            }
            near
        });
        for e in near {
            self.push_rung(e);
        }
        self.far = far;
        self.far_min = far_min;
        true
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let run = self.run.last().map(|e| e.at);
        let inbox = self.inbox.peek().map(|e| e.at);
        run.into_iter().chain(inbox).min()
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.inbox.len() + self.run.len() + self.in_rungs + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events every tier's buffer can hold, taken together, before one of
    /// them has to grow.
    pub fn capacity(&self) -> usize {
        let rungs: usize = self.rungs.iter().map(Vec::capacity).sum();
        self.inbox.capacity() + self.run.capacity() + rungs + self.far.capacity()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
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
        // how insertions interleave.
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
    fn same_instant_fifo_across_interleaved_pushes() {
        // Same-instant events stay FIFO when pushes at another instant
        // come between them and pops come before the last of them.
        let mut q = EventQueue::new();
        let t5 = SimTime::from_ns(5);
        let t9 = SimTime::from_ns(9);
        q.schedule_at(t9, 100);
        q.schedule_at(t5, 0); // earlier than everything pending
        q.schedule_at(t5, 1);
        q.schedule_at(t9, 101);
        assert_eq!(q.pop(), Some((t5, 0)));
        assert_eq!(q.pop(), Some((t5, 1)));
        // A push at t=9 after pops joins the pending t=9 events behind
        // them.
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
            // Three live heap entries per round.
            let base = SimTime::from_ns(round * 10);
            q.schedule_at(base, round);
            q.schedule_at(base + SimTime::from_ns(1), round);
            q.schedule_at(base + SimTime::from_ns(2), round);
            assert!(q.pop().is_some());
            assert!(q.pop().is_some());
            assert!(q.pop().is_some());
        }
        assert!(q.capacity() <= 8, "heap grew to {}", q.capacity());
    }

    #[test]
    fn entries_are_forty_bytes_around_a_machine_event() {
        // `xt3::machine::Ev` is pinned at 16 bytes; every tier's storage
        // is paid for by this being 40, not 48.
        assert_eq!(std::mem::size_of::<Entry<[u64; 2]>>(), 40);
    }

    /// The tier invariants of the module doc, checked from inside.
    fn check_tiers<E>(q: &EventQueue<E>) {
        let held =
            q.inbox.len() + q.run.len() + q.rungs.iter().map(Vec::len).sum::<usize>() + q.far.len();
        assert_eq!(q.len(), held, "len counts every tier");
        for e in q.inbox.iter().chain(&q.run) {
            assert!(e.bound() <= q.run_end, "inbox, run <= run_end");
        }
        assert!(q.run.is_sorted(), "run is sorted, earliest last");
        assert!(q.run_end <= q.split, "run_end <= split");
        for (i, rung) in q.rungs.iter().enumerate() {
            assert!(i >= q.cur || rung.is_empty(), "a loaded rung is empty");
            for e in rung {
                assert!(q.run_end < e.bound() && e.bound() <= q.split, "rungs");
                assert_eq!((e.at.0 - q.base) >> q.shift, i as u64, "rung slice");
            }
        }
        for e in &q.far {
            assert!(q.split < e.bound() && q.far_min <= e.at, "split < far");
        }
        if q.rungs.is_empty() {
            // The plain heap: everything is in the inbox.
            assert_eq!((q.run_end, q.split), (Bound::MAX, Bound::MAX));
            assert_eq!(q.inbox.len(), held);
            assert!(q.inbox.len() <= MIN_NEAR);
            assert_eq!(q.run.capacity() + q.far.capacity(), 0);
        } else {
            // Eager advance: the earliest event is never in a rung or far.
            assert!(q.run.len() + q.inbox.len() > 0 || held == 0);
        }
    }

    #[test]
    fn shallow_queue_stays_a_plain_heap() {
        // Up to MIN_NEAR events: no rungs, no far, and the inbox
        // allocates what a heap of that many entries would.
        let mut q = EventQueue::new();
        for i in 0..MIN_NEAR as u64 {
            q.schedule_at(SimTime::from_ns(1 + (i * 7919) % 1000), i);
            assert!(q.rungs.is_empty());
        }
        assert!(q.capacity() <= MIN_NEAR + 4);
        check_tiers(&q);
        while q.pop().is_some() {
            assert!(q.rungs.is_empty());
        }
        check_tiers(&q);
    }

    #[test]
    fn tiers_hold_through_refills_and_spills() {
        // 30k-40k events held while time advances. Stretches that pop
        // without pushing exhaust the rungs until far refills them (split
        // moves forward); stretches that push two near-term events per
        // pop land in the inbox and in rungs on both sides of `cur`;
        // draining returns to the plain heap, and pushing again spills.
        let mut rng = crate::rng::SimRng::new(13);
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0);
        for i in 0..30_000 {
            q.schedule_at(SimTime::from_ns(1 + rng.below(1_000_000)), i);
        }
        check_tiers(&q);
        let (mut refills, mut loads, mut to_inbox, mut to_rung) = (0, 0, 0, 0);
        for i in 0..200_000 {
            let (split, end) = (q.split, q.run_end);
            let (now, _) = q.pop().expect("held");
            refills += u32::from(q.split != split);
            loads += u32::from(q.run_end != end);
            if i % 20_000 < 10_000 {
                for _ in 0..2 {
                    let reach = if rng.chance(0.5) { 2_000 } else { 1_000_000 };
                    let at = now + SimTime::from_ns(1 + rng.below(reach));
                    to_inbox += u32::from(bound(at, 0) <= q.run_end);
                    to_rung += u32::from(q.run_end < bound(at, 0) && bound(at, 0) <= q.split);
                    q.schedule_at(at, i);
                }
            }
            if i % 997 == 0 {
                check_tiers(&q);
            }
        }
        assert!(
            refills >= 5 && loads >= 500 && to_inbox >= 1_000 && to_rung >= 1_000,
            "{refills} refills, {loads} rung loads, {to_inbox} inbox and {to_rung} rung pushes"
        );
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
        // Drained: the plain heap again, holding the one big buffer.
        check_tiers(&q);
        assert!(q.rungs.is_empty() && q.run_end == Bound::MAX);
        for i in 0..2 * MIN_NEAR as u64 {
            q.schedule_at(last + SimTime::from_ns(1 + rng.below(1_000)), i);
        }
        assert!(!q.rungs.is_empty(), "spilled again");
        check_tiers(&q);
    }

    #[test]
    fn tie_storm_costs_constant_operations_per_event() {
        // 50k events at one instant, then pushes at that instant between
        // pops. Time cannot divide them and one rung holds whatever the
        // `(time, key)` pivot lets through, so the cost to bound is the
        // refills': each passes over all of far to move 1/16 of it (at
        // least 4096), and a pivot that moved less than that would make
        // the total quadratic. Counted in comparisons (heap and sort) +
        // entries a refill visits.
        let storm = SimTime::from_ns(1_000);
        let mut q = EventQueue::new();
        OPS.with(|c| c.set(0));
        let n = 50_000u64;
        for i in 0..n {
            q.schedule_keyed(storm, (i * 7919) % n, i);
        }
        for i in 0..n {
            q.schedule_keyed(storm, (i * 104_729) % n, i);
            let (at, ..) = q.pop_keyed().expect("held");
            assert_eq!(at, storm);
        }
        check_tiers(&q);
        let ops = OPS.with(std::cell::Cell::get);
        assert!(ops < 60 * 2 * n, "{ops} operations for {} events", 2 * n);
    }

    #[test]
    fn lockstep_instant_loads_in_one_pass() {
        // 8,192 nodes in bulk-synchronous lockstep: an instant is popped
        // in key order and each event schedules its node's next one a
        // microsecond later under the node's next key, so every instant
        // is pushed in key order. It waits in far, is dealt to a rung by a
        // refill and sorted into the run: kept in push order, the rung is
        // one run the sort finds in a pass; scrambled on the way, it is
        // sorted from scratch at about log2 of its size per entry.
        // Counted: comparisons made by the pops that load a rung, less the
        // far entries their refill visited.
        let nodes = 8_192;
        let mut q = EventQueue::new();
        for node in 0..nodes {
            q.schedule_keyed(SimTime::from_us(1), node << 32, node);
        }
        let (mut loaded, mut load_ops) = (0, 0);
        for _ in 0..6 * nodes {
            let (far, split, end) = (q.far.len() as u64, q.split, q.run_end);
            let before = OPS.with(std::cell::Cell::get);
            let (at, key, node) = q.pop_keyed().expect("held");
            if q.run_end != end && !q.rungs.is_empty() {
                let visited = if q.split == split { 0 } else { far };
                load_ops += OPS.with(std::cell::Cell::get) - before - visited;
                loaded += q.run.len() as u64;
            }
            q.schedule_keyed(at + SimTime::from_us(1), key + 1, node);
        }
        assert!(loaded >= 4 * nodes, "{loaded} entries loaded");
        assert!(
            load_ops <= 2 * loaded,
            "{load_ops} comparisons to load {loaded} entries"
        );
    }

    #[test]
    fn zero_delay_chain_exhausts_event_budget() {
        // A model that keeps rescheduling at the *same* instant never
        // lets simulated time advance; the engine's event budget must
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
