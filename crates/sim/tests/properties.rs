//! Property tests for the DES foundations: queue ordering, busy-cursor
//! conservation, statistics correctness.

use proptest::prelude::*;
use xt3_sim::{BusyCursor, EventQueue, Histogram, OnlineStats, SimRng, SimTime};

proptest! {
    /// The event queue pops in (time, insertion) order for any schedule —
    /// equivalent to a stable sort by time.
    #[test]
    fn queue_matches_stable_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ns(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: ties keep insertion order
        let mut popped = Vec::new();
        while let Some((at, idx)) = q.pop() {
            popped.push((at.ns(), idx));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Busy-cursor conservation: total busy time equals the sum of
    /// durations; completion times never decrease; jobs never overlap.
    #[test]
    fn busy_cursor_conservation(jobs in proptest::collection::vec((0u64..1000, 0u64..500), 1..100)) {
        let mut c = BusyCursor::new();
        let mut total = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        let mut prev_done = SimTime::ZERO;
        for &(arrival, duration) in &jobs {
            let (start, done) = c.occupy_span(SimTime::from_ns(arrival), SimTime::from_ns(duration));
            prop_assert!(start >= SimTime::from_ns(arrival));
            prop_assert!(start >= prev_done, "jobs must not overlap");
            prop_assert_eq!(done, start + SimTime::from_ns(duration));
            prev_done = done;
            total += SimTime::from_ns(duration);
            last_done = last_done.max(done);
        }
        prop_assert_eq!(c.busy_total(), total);
        prop_assert_eq!(c.free_at(), prev_done);
        prop_assert!(c.utilization(last_done.max(SimTime::NS)) <= 1.0 + f64::EPSILON);
    }

    /// OnlineStats agrees with the two-pass computation.
    #[test]
    fn online_stats_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
        prop_assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Histogram conservation: count and mean match the raw samples, and
    /// each sample lands in the bucket containing it.
    #[test]
    fn histogram_conservation(xs in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-9 * mean.max(1.0));
        let total: u64 = h.iter_nonzero().map(|(_, c)| c).sum();
        prop_assert_eq!(total, xs.len() as u64);
    }

    /// The RNG's bounded sampling is in range and `fork` streams never
    /// collide with the parent stream in their first draws.
    #[test]
    fn rng_bounds_and_forks(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
        let mut a = SimRng::new(seed).fork(1);
        let mut b = SimRng::new(seed).fork(2);
        let a_vals: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let b_vals: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(a_vals, b_vals, "fork streams must differ");
    }
}

// ----- the ladder event queue against a sorted reference -----
//
// Past 4,096 events the queue is a ladder (queue.rs): a sorted run and an
// inbox heap in front of equal-width rungs, in front of a far tier that a
// sampled `(time, key)` pivot refills them from, both kept in push order
// (which decides what the sort costs, never what pops). These tests
// drive it at depths that cross every one of those boundaries repeatedly
// and compare every pop, peek and count with a `BTreeSet` ordered by
// `(time, key, seq)` — `seq` being the insertion counter, i.e. a stable
// sort. The vendored proptest runs one fixed seed, so each scenario sweeps
// its own.

/// Seeds every deep-queue scenario runs under.
const QUEUE_SEEDS: [u64; 8] = [
    1,
    0x5EA5_7A12,
    0xDEAD_BEEF,
    42,
    0x0123_4567_89AB_CDEF,
    7_777_777,
    u64::MAX,
    0x9E37_79B9_7F4A_7C15,
];

/// An [`EventQueue`] stepped in lockstep with its sorted reference; every
/// operation checks `peek_time`, `len` and `total_scheduled`.
struct CheckedQueue {
    queue: EventQueue<u64>,
    /// `(time, key, seq)`; the queue's payload is `seq`.
    reference: std::collections::BTreeSet<(u64, u64, u64)>,
    pushed: u64,
}

impl CheckedQueue {
    fn new() -> Self {
        CheckedQueue {
            queue: EventQueue::new(),
            reference: Default::default(),
            pushed: 0,
        }
    }

    fn check(&self) {
        let next = self.reference.first().map(|&(at, _, _)| SimTime(at));
        assert_eq!(self.queue.peek_time(), next, "peek_time is the next pop");
        assert_eq!(self.queue.len(), self.reference.len());
        assert_eq!(self.queue.is_empty(), self.reference.is_empty());
        assert_eq!(self.queue.total_scheduled(), self.pushed);
    }

    /// Schedule at `at`; `key` 0 takes the unkeyed entry point.
    fn push(&mut self, at: u64, key: u64) {
        let seq = self.pushed;
        self.pushed += 1;
        if key == 0 {
            self.queue.schedule_at(SimTime(at), seq);
        } else {
            self.queue.schedule_keyed(SimTime(at), key, seq);
        }
        self.reference.insert((at, key, seq));
        self.check();
    }

    /// Pop once and compare with the reference; the popped time.
    fn pop(&mut self) -> Option<u64> {
        self.pop_until(u64::MAX)
    }

    /// [`Self::pop`], returning the popped `(time, key)`.
    fn pop_keyed(&mut self) -> Option<(u64, u64)> {
        self.pop_keyed_until(u64::MAX)
    }

    /// [`Self::pop_keyed_until`], returning the popped time.
    fn pop_until(&mut self, horizon: u64) -> Option<u64> {
        self.pop_keyed_until(horizon).map(|(at, _)| at)
    }

    /// Pop once unless the earliest event fires after `horizon` — then
    /// `None`, and `check` sees that nothing moved.
    fn pop_keyed_until(&mut self, horizon: u64) -> Option<(u64, u64)> {
        let expected = match self.reference.first() {
            Some(&(at, _, _)) if at <= horizon => self.reference.pop_first(),
            _ => None,
        };
        let got = self
            .queue
            .pop_keyed_until(SimTime(horizon))
            .map(|(at, key, seq)| (at.0, key, seq));
        assert_eq!(got, expected, "pop order is (time, key, seq)");
        self.check();
        got.map(|(at, key, _)| (at, key))
    }

    fn len(&self) -> usize {
        self.reference.len()
    }
}

/// Random keyed/unkeyed pushes and pops, swinging the depth between ~1k
/// and ~24k three times: the plain heap spills into the ladder, rungs are
/// sorted and exhausted, far refills them, and the queue passes back
/// through the plain-heap regime in between. Times mix the current instant, near-term and
/// far-term delays and instants *before* everything pending.
#[test]
fn deep_queue_matches_sorted_reference() {
    for seed in QUEUE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut q = CheckedQueue::new();
        let mut now = 1_000_000u64;
        let mut deepest = 0;
        for swing in 0..6 {
            let (target, push_odds) = if swing % 2 == 0 {
                (24_000, 0.75)
            } else {
                (1_000, 0.25)
            };
            while (q.len() < target) == (swing % 2 == 0) {
                if rng.chance(push_odds) {
                    let at = match rng.below(16) {
                        0 => now,
                        1 => now.saturating_sub(rng.below(5_000)),
                        2..=4 => now + rng.below(10_000_000),
                        _ => now + rng.below(20_000),
                    };
                    // A few distinct keys, so equal (time, key) pairs
                    // occur and insertion order has to break them.
                    let key = if rng.chance(0.5) { 0 } else { 1 + rng.below(4) };
                    q.push(at, key);
                } else if let Some(at) = q.pop() {
                    now = now.max(at);
                }
            }
            deepest = deepest.max(q.len());
        }
        assert!(deepest >= 20_000, "the scenario must go deep");
        while q.pop().is_some() {}
        assert_eq!(q.pop(), None);
    }
}

/// Lockstep ties: tens of thousands of events at one identical instant
/// (the full-machine workload's shape), which no time pivot can divide,
/// then more at that instant after some were popped, then later ones.
/// Order within the instant is (key, seq).
#[test]
fn tie_storm_pops_in_key_then_insertion_order() {
    for seed in QUEUE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut q = CheckedQueue::new();
        let storm = 1_000_000;
        for _ in 0..50_000 {
            q.push(storm, rng.below(1 << 20));
        }
        for _ in 0..10_000 {
            q.pop();
        }
        for _ in 0..10_000 {
            q.push(storm, rng.below(1 << 20));
            q.push(storm + 1 + rng.below(1_000), 0);
        }
        while q.pop().is_some() {}
    }
}

/// The full machine's bulk-synchronous shape: 6,000 nodes step through
/// instants a microsecond apart, and each step schedules the node's next
/// one under the node's next key (`node << 32 | counter`). An instant is
/// popped in key order, so the next one is pushed in key order; it waits
/// in far, is dealt to rungs by refills and loaded in that order. Each
/// step first schedules some work of its own zero to three picoseconds
/// ahead, which lands in the inbox; a quarter of that work, and one step
/// in sixteen, is pushed twice under one `(time, key)`, so only `seq`
/// parts the copies. After six instants seven nodes in eight retire and the rest
/// run on a plain heap.
#[test]
fn lockstep_instants_match_sorted_reference() {
    const NODES: usize = 6_000;
    const STEP: u64 = 1_000_000;
    for seed in &QUEUE_SEEDS[..4] {
        let mut rng = SimRng::new(*seed);
        let mut q = CheckedQueue::new();
        let mut keys: Vec<u64> = (0..NODES as u64).map(|node| node << 32).collect();
        let mut next_step = vec![STEP; NODES];
        for key in &mut keys {
            q.push(STEP, *key);
            *key += 1;
        }
        let mut deepest = 0;
        while let Some((now, key)) = q.pop_keyed() {
            let node = (key >> 32) as usize;
            if now != next_step[node] {
                continue; // its own work, or a step's second copy
            }
            let at = now + rng.below(4);
            for _ in 0..1 + usize::from(rng.chance(0.25)) {
                q.push(at, keys[node]);
            }
            keys[node] += 1;
            let instant = now / STEP;
            next_step[node] = u64::MAX; // retired, unless it steps again
            if instant < 10 && (instant < 6 || node.is_multiple_of(8)) {
                next_step[node] = now + STEP;
                for _ in 0..1 + usize::from(rng.chance(1.0 / 16.0)) {
                    q.push(now + STEP, keys[node]);
                }
                keys[node] += 1;
            }
            deepest = deepest.max(q.len());
        }
        assert!(deepest > NODES, "the scenario must go deep");
    }
}

/// The queue (unlike the engine) takes a push earlier than anything
/// pending — before the sorted run, before the first rung's slice — also
/// right after a refill moved the split forward.
#[test]
fn push_before_everything_pending_after_a_refill() {
    for seed in QUEUE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut q = CheckedQueue::new();
        for _ in 0..30_000 {
            q.push(1_000_000 + rng.below(1_000_000), rng.below(3));
        }
        // Far more pops than any near prefix holds: several refills.
        for round in 0..10 {
            for _ in 0..2_000 {
                q.pop();
            }
            let earliest = q.queue.peek_time().expect("still deep").0;
            q.push(earliest - 1 - round, 0);
            q.push(earliest - 1 - round, 9);
            q.push(earliest, 0);
            assert_eq!(q.pop(), Some(earliest - 1 - round));
        }
        while q.pop().is_some() {}
    }
}

/// A push distance with the quantiles recorded on the 512-node all-to-all
/// (ps): 0.2 / 1.2 / 2.8 / 49 us at p1 / p25 / p50 / p75, 44 ms at p99,
/// 102 ms at most.
fn torus_distance(rng: &mut SimRng) -> u64 {
    let (lo, hi) = match rng.below(100) {
        0..=24 => (200_000, 1_200_000),
        25..=49 => (1_200_000, 2_800_000),
        50..=74 => (2_800_000, 49_000_000),
        75..=98 => (49_000_000, 44_000_000_000),
        _ => (44_000_000_000, 102_000_000_000),
    };
    lo + rng.below(hi - lo)
}

/// The contended torus's shape: depth to 200k, push distances from 200 ns
/// to 100 ms. Five decades of distance over equal-width rungs means most
/// rungs of a refill are empty, some hold one event and the ones next to
/// `now` are overfull; a quarter of the pushes land in the inbox, half in
/// a rung, the rest in far.
#[test]
fn torus_shaped_traffic_matches_sorted_reference() {
    for seed in [QUEUE_SEEDS[0], QUEUE_SEEDS[4]] {
        let mut rng = SimRng::new(seed);
        let mut q = CheckedQueue::new();
        let mut now = 0;
        for (target, push_odds) in [(200_000, 0.75), (1_000, 0.25)] {
            while (q.len() < target) == (push_odds > 0.5) {
                if rng.chance(push_odds) {
                    q.push(now + torus_distance(&mut rng), (1 + rng.below(512)) << 32);
                } else if let Some(at) = q.pop() {
                    now = at;
                }
            }
        }
        while q.pop().is_some() {}
    }
}

/// The window driver's access pattern: `pop_keyed_until(h)` up to a
/// horizon that moves forward in steps from a picosecond to several rungs,
/// deliveries in between. A horizon before the next event — inside the
/// sorted run, on a rung edge, between rungs, past the split — returns
/// `None` and disturbs nothing (`peek_time`, `len` checked against the
/// reference after every call).
#[test]
fn horizons_across_every_tier_disturb_nothing() {
    for seed in QUEUE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut q = CheckedQueue::new();
        for _ in 0..30_000 {
            q.push(1_000_000 + rng.below(1 << 26), rng.below(8));
        }
        let mut horizon = 0;
        for _ in 0..2_000 {
            let next = q.queue.peek_time().expect("still held").0;
            // Just short of the next event, exactly on it, a power of two
            // past it (rung slices are powers of two wide), or a window.
            horizon = match rng.below(4) {
                0 => next - 1,
                1 => next,
                2 => (next | ((1 << rng.below(20)) - 1)).max(horizon),
                _ => horizon.max(next) + rng.below(1 << 16),
            };
            while q.pop_until(horizon).is_some() {}
            assert_eq!(q.pop_until(horizon), None);
            // Deliveries: the lookahead puts them past the horizon.
            for _ in 0..rng.below(24) {
                q.push(horizon + 1 + rng.below(1 << 22), rng.below(8));
            }
        }
        assert!(q.len() > 4_096, "the scenario stays deep");
        while q.pop().is_some() {}
    }
}

/// Every instant of a narrow band holds a few events and each pop is
/// followed by a push zero to four picoseconds ahead, so pushes keep
/// landing on the last instant of the sorted run's slice and on the first
/// of the next rung's while events with smaller and larger keys already
/// wait there: a slice edge off by one instant in either direction pops
/// them out of key order.
#[test]
fn pushes_on_rung_edges_keep_key_order() {
    for seed in &QUEUE_SEEDS[..4] {
        let mut rng = SimRng::new(*seed);
        let mut q = CheckedQueue::new();
        for _ in 0..20_000 {
            q.push(1_000 + rng.below(8_192), 1 + rng.below(1 << 16));
        }
        for _ in 0..60_000 {
            let now = q.pop().expect("held");
            let ahead = if rng.chance(0.5) { 5 } else { 8_192 };
            q.push(now + rng.below(ahead), 1 + rng.below(1 << 16));
        }
        while q.pop().is_some() {}
    }
}

/// One `(time, key)` pair holds most of the queue, so every sampled pivot
/// is drawn at exactly that pair: all of its entries wait on the same side
/// of the split, the ones pushed later join them by way of the inbox or a
/// rung instead of far, and among them only `seq` decides.
#[test]
fn equal_time_and_key_around_the_pivot_pop_in_insertion_order() {
    for seed in &QUEUE_SEEDS[..4] {
        let mut rng = SimRng::new(*seed);
        let mut q = CheckedQueue::new();
        let (at, key) = (1_000_000, 7);
        for _ in 0..50_000 {
            match rng.below(50) {
                0..=1 => q.push(at - 1 - rng.below(1_000), rng.below(4)),
                2..=41 => q.push(at, key),
                _ => q.push(at + 1 + rng.below(1_000_000), rng.below(4)),
            }
        }
        for _ in 0..10_000 {
            q.pop();
        }
        for _ in 0..10_000 {
            q.push(at, key);
            q.push(at, key - 1 + rng.below(3));
            q.pop();
        }
        while q.pop().is_some() {}
    }
}

/// What the queue holds follows what is pending: while the depth swings
/// 1k <-> 24k twice (hundreds of rungs filled, sorted and dropped, far
/// refilled and emptied), every buffer together has room for no more than
/// twice the deepest moment plus two plain heaps' worth, and once it
/// drains for no more than the one burst the inbox keeps (64 slots). Rung
/// buffers kept for reuse fail the first: each ratchets to the largest
/// rung it ever held; far's buffer handed back to the heap and kept there
/// fails the second.
#[test]
fn capacity_follows_the_deepest_moment() {
    for seed in QUEUE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = 0;
        let mut deepest = 0;
        for target in [24_000, 1_000, 24_000, 1_000, 0] {
            for step in 0.. {
                if q.len() == target {
                    break;
                }
                if q.len() < target && rng.below(4) != 0 {
                    q.schedule_at(SimTime(now + 1 + rng.below(50_000_000)), 0);
                } else if let Some((at, _)) = q.pop() {
                    now = at.0;
                }
                deepest = deepest.max(q.len());
                // `capacity` walks the rungs: every 64th step and the last.
                if step % 64 == 0 || q.len() == target {
                    assert!(
                        q.capacity() <= 2 * deepest + 8_192,
                        "{} slots held on the way to {target}, deepest {deepest}",
                        q.capacity()
                    );
                }
            }
        }
        assert!(q.capacity() <= 64, "{} slots held drained", q.capacity());
    }
}
