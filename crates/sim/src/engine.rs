//! The simulation driver: pops events in time order and hands them to the
//! model.
//!
//! The engine enforces monotonic time (an event may never be scheduled
//! before the current instant — that would be a causality bug in the model)
//! and provides run limits so a buggy model cannot spin forever.
//!
//! The replay digest is kept in **lanes**: every dispatched event folds
//! into the lane chosen by [`Model::lane`] (per-node for the machine
//! model), and [`Engine::digest`] combines the touched lanes in canonical
//! lane order. Because each lane's stream depends only on that lane's own
//! dispatch sequence, a spatially partitioned parallel run — where each
//! worker dispatches a disjoint subset of lanes — reproduces the serial
//! digest exactly by merging lane vectors, without ever agreeing on a
//! global interleaving.

use crate::digest::{DigestLanes, EventDigest};
use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation model: the owner of all mutable world state.
///
/// The engine pops events and calls [`Model::dispatch`]; the model reacts by
/// mutating its state and scheduling further events. This "flat dispatch"
/// style (rather than per-component trait objects) keeps borrows simple and
/// dispatch monomorphic.
pub trait Model {
    /// The event type circulating through the queue.
    type Event;

    /// Handle one event at simulated time `now`.
    fn dispatch(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Handle one event together with its scheduling key (see
    /// [`EventQueue::schedule_keyed`]). The engine always calls this;
    /// the default discards the key and forwards to [`Model::dispatch`].
    /// Models that defer cross-partition work override it to remember the
    /// key of the event being dispatched, so deferred sends can later be
    /// replayed in exactly the serial call order.
    fn dispatch_keyed(
        &mut self,
        now: SimTime,
        key: u64,
        event: Self::Event,
        queue: &mut EventQueue<Self::Event>,
    ) {
        let _ = key;
        self.dispatch(now, event, queue);
    }

    /// Which digest lane `event` belongs to. Lanes partition the replay
    /// digest so that a spatially partitioned run can reproduce it; the
    /// machine model maps each event to its owning node. The default
    /// (a single lane) keeps trivial models working unchanged.
    fn lane(event: &Self::Event) -> u32 {
        let _ = event;
        0
    }

    /// Fold identifying details of `event` (kind, node, correlation ids)
    /// into the engine's replay digest.
    ///
    /// The engine always folds the firing time; models override this to
    /// add event-specific detail so that two runs which happen to fire
    /// *different* events at identical times still produce different
    /// digests. The default folds nothing, which keeps trivial test
    /// models working unchanged.
    fn fingerprint(event: &Self::Event, digest: &mut EventDigest) {
        let _ = (event, digest);
    }

    /// A digest of model-*internal* state the event stream alone cannot
    /// see — trace digests, injected-fault streams, retransmission
    /// counters. The replay audit compares this alongside
    /// [`Engine::digest`] so divergence hidden inside the model (rather
    /// than in event timing) is still caught. The default reports
    /// nothing, keeping trivial models working unchanged.
    fn state_fingerprint(&self) -> u64 {
        0
    }

    /// Finish whatever observation work the model handed to another
    /// thread, so its readers see the run's final state. [`Engine::run`]
    /// calls it before it returns; the default has nothing to finish.
    fn settle(&mut self) {}
}

/// Why a [`Engine::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon passed before the queue drained.
    HorizonReached,
    /// The event budget was exhausted (runaway-model guard).
    EventBudgetExhausted,
}

/// The discrete-event simulation engine.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    dispatched: u64,
    lanes: DigestLanes,
    /// Hard cap on dispatched events per `run*` call; guards against
    /// accidental infinite event loops in models under test.
    event_budget: u64,
}

impl<M: Model> Engine<M> {
    /// Create an engine around `model` with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
            lanes: DigestLanes::new(),
            event_budget: u64::MAX,
        }
    }

    /// Set the maximum number of events a single `run*` call may dispatch.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Adjust the per-`run*` event budget in place (the parallel window
    /// driver re-arms it every synchronization round).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current simulated time (the firing time of the last dispatched
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to seed initial state).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Immutable access to the queue (e.g. to peek the next firing time).
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Mutable access to the queue (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Total events dispatched over the engine's lifetime.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Streaming digest of every event dispatched so far: firing time
    /// plus the model's [`Model::fingerprint`] detail, folded per
    /// [`Model::lane`] and combined in canonical lane order (see
    /// [`DigestLanes::value`]). Equal seeds must yield equal digests at
    /// equal dispatch counts — the replay-divergence audit
    /// (`crates/audit`) enforces exactly that, and the parallel engine
    /// must reproduce it for any worker count.
    pub fn digest(&self) -> u64 {
        self.lanes.value()
    }

    /// The per-lane digests. The parallel driver merges the shards' with
    /// [`DigestLanes::merge_from`] to reproduce the serial digest.
    pub fn digest_lanes(&self) -> &DigestLanes {
        &self.lanes
    }

    /// The model's [`Model::state_fingerprint`]: internal-state digest
    /// compared by the replay audit in addition to the event digest.
    pub fn state_fingerprint(&self) -> u64 {
        self.model.state_fingerprint()
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Dispatch one already-popped event: advance the clock, fold the
    /// digest lane, hand it to the model. The whole per-event hot path
    /// lives here so `step` and the `run*` loops stay in lockstep.
    #[inline]
    fn dispatch_one(&mut self, at: SimTime, key: u64, ev: M::Event) {
        assert!(
            at >= self.now,
            "causality violation: event at {at} dispatched at {}",
            self.now
        );
        self.now = at;
        self.dispatched += 1;
        self.lanes.write_lane(M::lane(&ev), |digest| {
            digest.write_u64(at.0);
            M::fingerprint(&ev, digest);
        });
        self.model.dispatch_keyed(at, key, ev, &mut self.queue);
    }

    /// Dispatch a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop_keyed() {
            Some((at, key, ev)) => {
                self.dispatch_one(at, key, ev);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains (or the budget runs out), then settle
    /// the model ([`Model::settle`]).
    pub fn run(&mut self) -> RunOutcome {
        let outcome = self.run_until(SimTime::MAX);
        self.model.settle();
        outcome
    }

    /// Run until the queue drains or the next event would fire after
    /// `horizon` (the horizon event itself is *not* dispatched).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let mut budget = self.event_budget;
        loop {
            if budget == 0 {
                // Draining or reaching the horizon outranks the budget.
                return match self.queue.peek_time() {
                    None => RunOutcome::Drained,
                    Some(t) if t > horizon => RunOutcome::HorizonReached,
                    Some(_) => RunOutcome::EventBudgetExhausted,
                };
            }
            budget -= 1;
            match self.queue.pop_keyed_until(horizon) {
                Some((at, key, ev)) => self.dispatch_one(at, key, ev),
                None if self.queue.is_empty() => return RunOutcome::Drained,
                None => return RunOutcome::HorizonReached,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Chain {
        hits: Vec<u64>,
    }

    impl Model for Chain {
        type Event = u64;
        fn dispatch(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
            self.hits.push(ev);
            if ev > 0 {
                q.schedule_at(now + SimTime::from_ns(10), ev - 1);
            }
        }
    }

    #[test]
    fn runs_to_drain() {
        let mut e = Engine::new(Chain { hits: vec![] });
        e.queue_mut().schedule_at(SimTime::from_ns(1), 3);
        assert_eq!(e.run(), RunOutcome::Drained);
        assert_eq!(e.model().hits, vec![3, 2, 1, 0]);
        assert_eq!(e.now(), SimTime::from_ns(31));
        assert_eq!(e.dispatched(), 4);
    }

    #[test]
    fn horizon_stops_early_without_dispatching_past_it() {
        let mut e = Engine::new(Chain { hits: vec![] });
        e.queue_mut().schedule_at(SimTime::from_ns(1), 10);
        assert_eq!(
            e.run_until(SimTime::from_ns(25)),
            RunOutcome::HorizonReached
        );
        // Events at 1, 11, 21 fired; 31 is pending.
        assert_eq!(e.model().hits, vec![10, 9, 8]);
        assert_eq!(e.queue_mut().len(), 1);
    }

    #[test]
    fn event_budget_guards_runaway() {
        struct Spinner;
        impl Model for Spinner {
            type Event = ();
            fn dispatch(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
                q.schedule_at(now + SimTime::PS, ());
            }
        }
        let mut e = Engine::new(Spinner).with_event_budget(1000);
        e.queue_mut().schedule_at(SimTime::ZERO, ());
        assert_eq!(e.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(e.dispatched(), 1000);
    }

    #[test]
    fn drain_and_horizon_outrank_an_exhausted_budget() {
        // A budget that runs out exactly as the queue drains, or with
        // only post-horizon events left, is not a runaway.
        let mut e = Engine::new(Chain { hits: vec![] }).with_event_budget(4);
        e.queue_mut().schedule_at(SimTime::from_ns(1), 3);
        assert_eq!(e.run(), RunOutcome::Drained);
        let mut e = Engine::new(Chain { hits: vec![] }).with_event_budget(3);
        e.queue_mut().schedule_at(SimTime::from_ns(1), 10);
        assert_eq!(
            e.run_until(SimTime::from_ns(25)),
            RunOutcome::HorizonReached
        );
        assert_eq!(
            e.run_until(SimTime::from_ns(65)),
            RunOutcome::EventBudgetExhausted
        );
        assert_eq!(e.model().hits, vec![10, 9, 8, 7, 6, 5]);
    }

    #[test]
    fn lanes_make_digest_interleave_independent() {
        // Two models dispatching the same per-lane streams — but with
        // different cross-lane interleavings at equal instants — fold the
        // same digest, while a difference *within* one lane changes it.
        struct Laned;
        impl Model for Laned {
            type Event = (u32, u64);
            fn dispatch(&mut self, _: SimTime, _: (u32, u64), _: &mut EventQueue<(u32, u64)>) {}
            fn lane(ev: &(u32, u64)) -> u32 {
                ev.0
            }
            fn fingerprint(ev: &(u32, u64), d: &mut EventDigest) {
                d.write_u64(ev.1);
            }
        }
        let t = SimTime::from_ns(4);
        let mut a = Engine::new(Laned);
        a.queue_mut().schedule_keyed(t, 1, (0, 10));
        a.queue_mut().schedule_keyed(t, 2, (1, 20));
        let mut b = Engine::new(Laned);
        b.queue_mut().schedule_keyed(t, 2, (1, 20));
        b.queue_mut().schedule_keyed(t, 1, (0, 10));
        a.run();
        b.run();
        assert_eq!(a.digest(), b.digest());

        let mut c = Engine::new(Laned);
        c.queue_mut().schedule_keyed(t, 1, (0, 11));
        c.queue_mut().schedule_keyed(t, 2, (1, 20));
        c.run();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn merged_lanes_reproduce_serial_digest() {
        struct Laned;
        impl Model for Laned {
            type Event = u32;
            fn dispatch(&mut self, _: SimTime, _: u32, _: &mut EventQueue<u32>) {}
            fn lane(ev: &u32) -> u32 {
                *ev
            }
        }
        let mut serial = Engine::new(Laned);
        let mut s0 = Engine::new(Laned);
        let mut s1 = Engine::new(Laned);
        for i in 0..10u64 {
            let t = SimTime::from_ns(i);
            let node = (i % 3) as u32;
            serial.queue_mut().schedule_keyed(t, i + 1, node);
            let shard = if node == 0 { &mut s0 } else { &mut s1 };
            shard.queue_mut().schedule_keyed(t, i + 1, node);
        }
        serial.run();
        s0.run();
        s1.run();
        let mut merged = DigestLanes::new();
        merged.merge_from(s0.digest_lanes());
        merged.merge_from(s1.digest_lanes());
        assert_eq!(merged.value(), serial.digest());
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn past_scheduling_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = bool;
            fn dispatch(&mut self, _now: SimTime, first: bool, q: &mut EventQueue<bool>) {
                if first {
                    // Schedule an event in the past relative to where time
                    // will be after we advance.
                    q.schedule_at(SimTime::from_ns(1), false);
                }
            }
        }
        let mut e = Engine::new(Bad);
        e.queue_mut().schedule_at(SimTime::from_ns(100), true);
        e.run();
    }
}
