//! Conservative time-window parallel driver for spatially partitioned
//! models.
//!
//! This is the *only* module in the sim-facing crates allowed to spawn
//! threads or hold synchronization primitives (clippy's
//! `disallowed_methods` holds that boundary, DESIGN §11). Everything here
//! is plain-channel message passing — no locks, no atomics — so the
//! concurrency surface stays auditable.
//!
//! # Protocol
//!
//! The fabric is partitioned into shards, each owning a disjoint set of
//! nodes and running an ordinary serial [`Engine`] on a worker thread.
//! Synchronization is a classic conservative time window: if every
//! cross-shard interaction takes at least the *lookahead* `L` of
//! simulated time to arrive (the minimum link latency of the topology),
//! then all events in `[W, W + L)` — where `W` is the global minimum
//! pending event time — are causally independent across shards and can
//! be dispatched concurrently.
//!
//! Each round:
//!
//! 1. the coordinator computes `W` and hands every *active* worker (one
//!    with an event or handover inside the window — idle shards are
//!    skipped, they would dispatch nothing) the window horizon
//!    `W + L - 1ps` plus any cross-shard deliveries routed in the
//!    previous round (all of which fire at or after `W + L`);
//! 2. workers insert the deliveries, run their engine up to the
//!    horizon, and hand back the *send intents* their model deferred
//!    (models never touch the shared fabric directly — see
//!    [`Partitioned::drain_intents_into`]);
//! 3. the coordinator routes the collected intents through the caller's
//!    `route` closure — which owns the fabric and replays the intents
//!    in the exact serial order — producing the next round's
//!    deliveries.
//!
//! Because windows are disjoint and ascending, replaying each window's
//! intents in serial dispatch order reproduces the serial engine's
//! fabric interaction sequence exactly; combined with per-lane digests
//! ([`crate::DigestLanes`]) the parallel run is
//! bit-identical to the serial one for any worker count.
//!
//! # Execution backends
//!
//! There is one window loop. Shards are dealt out in contiguous blocks
//! to `helpers + 1` threads; the coordinator keeps block 0 and runs it
//! itself between sending the other blocks' rounds and collecting the
//! replies, so its core does shard work instead of sleeping through
//! every window. [`ParConfig::exec`] only picks the helper count:
//! [`ExecMode::Inline`] none (a round is a plain function call),
//! [`ExecMode::Threads`] `shards − 1`, and [`ExecMode::Auto`] (the
//! default) `min(shards, cores) − 1` — nothing is spawned for one shard
//! or one core, and more shards than cores means several per thread.
//!
//! **Waiting.** A helper waiting for a round and the coordinator
//! waiting for a reply poll the channel, yielding between polls, up to
//! [`SPIN_POLLS`] times before parking in `recv`: a window is tens to
//! hundreds of microseconds of work, and a futex sleep and wake on each
//! side costs tens more and invites the scheduler to put the woken
//! thread on the waker's core. Threads poll only when each has a core
//! of its own. Either way a hung-up channel ends the wait, so a
//! coordinator panic (the lookahead assert, a panicking `route`) drops
//! the command channels, the helpers return and the scope unwinds.
//!
//! **Buffers.** Every buffer that crosses a channel comes back on the
//! next message the other way: a round carries the shard's pending
//! deliveries and its drained intent buffer out, and returns as the
//! reply with the deliveries drained and the intents filled. Each is
//! thus grown and freed by one thread only, so the allocator never
//! takes its cross-thread path, and a steady window allocates nothing.
//! Models extend the discipline to objects inside their events by
//! returning them in their intents.
//!
//! **Why none of it can change a result.** Shards are independent
//! within a window, so which thread runs one, in what order and how a
//! waiter waited are invisible to the model; windows, budgets and the
//! order `route` sees intents in come from shard-indexed state alone.
//!
//! # Window coalescing
//!
//! When exactly one shard is active (its events are the only ones below
//! every other shard's floor — common in startup ramps, drain tails and
//! load-imbalanced phases), a window would be a full coordinator round
//! for a single shard's worth of work. So the solo shard *sprints*: it
//! keeps running consecutive local windows — stopping at the first one
//! that defers an intent, at the earliest event owned by any other
//! shard, or when it drains — before reporting back. Intent-free windows touch no shared state, so the
//! fabric replay order is untouched; the cap at the next foreign event
//! keeps every sprint intent ahead of all future intents in `(time,
//! key)` order. Digest lanes, fingerprints and dispatch counts are
//! bit-identical; only the round count shrinks.

use crate::engine::{Engine, Model, RunOutcome};
use crate::time::SimTime;
use std::sync::mpsc;
use std::thread;

pub mod offload;

/// A model that can run as one shard of a spatial partition.
///
/// Shard models must not interact with shared state (the fabric) while
/// dispatching; instead they buffer *intents* — records of the sends
/// they would have performed — in generation order, and the coordinator
/// replays them against the shared fabric between windows.
pub trait Partitioned: Model {
    /// One deferred cross-shard interaction (e.g. a fabric send).
    type Intent: Send;

    /// Append the intents buffered since the last call to `out`, in the
    /// order the model generated them. `out` is the caller's buffer, which
    /// the driver hands back drained every window: `append` — or swap,
    /// when `out` is empty — so neither side reallocates.
    fn drain_intents_into(&mut self, out: &mut Vec<Self::Intent>);
}

/// A cross-shard event produced by routing intents: schedule `event`
/// with `key` at `at` on shard `shard`.
#[derive(Debug)]
pub struct Delivery<E> {
    /// Destination shard index.
    pub shard: usize,
    /// Firing time; must be after the destination shard's completed
    /// horizon (the driver asserts this — a violation means the
    /// configured lookahead overstates the real minimum latency).
    pub at: SimTime,
    /// Scheduling key (see [`crate::queue::EventQueue::schedule_keyed`]).
    pub key: u64,
    /// The event to deliver.
    pub event: E,
}

/// How many threads share the shards; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One thread per host core, at most one per shard.
    #[default]
    Auto,
    /// One thread per shard (the coordinator runs shard 0).
    Threads,
    /// All shards on the coordinator thread (no synchronization cost).
    Inline,
}

/// Window-synchronization parameters.
#[derive(Debug, Clone, Copy)]
pub struct ParConfig {
    /// Conservative lookahead: the minimum simulated time any
    /// cross-shard interaction takes to arrive. Must be positive.
    pub lookahead: SimTime,
    /// Global cap on dispatched events across all shards, mirroring the
    /// serial engine's event budget. Exhaustion is detected at window
    /// granularity.
    pub event_budget: u64,
    /// How many threads to use (default [`ExecMode::Auto`]).
    pub exec: ExecMode,
}

impl ParConfig {
    /// A config with the given lookahead and budget and automatic thread
    /// count.
    pub fn new(lookahead: SimTime, event_budget: u64) -> Self {
        ParConfig {
            lookahead,
            event_budget,
            exec: ExecMode::Auto,
        }
    }
}

/// What a parallel run produced, beyond the shard engines themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParOutcome {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// The maximum simulated time reached by any shard.
    pub now: SimTime,
    /// Total events dispatched across all shards.
    pub dispatched: u64,
    /// Number of synchronization windows executed.
    pub rounds: u64,
    /// Threads the shards ran on, the coordinator's own included.
    pub threads: usize,
}

/// How far past its base window a solo shard may keep running.
#[derive(Debug, Clone, Copy)]
enum Sprint {
    /// Other shards have events: stop at the base horizon.
    No,
    /// Solo shard; the earliest event owned by anyone else is at `cap`
    /// (exclusive — the sprint must stay strictly below it).
    Capped(SimTime),
    /// No other shard has anything pending anywhere.
    Unbounded,
}

/// How many times a waiter polls its channel, yielding its time slice
/// between polls, before parking in `recv`: about a millisecond —
/// several windows' worth of work, so a helper stays hot through the
/// coordinator's serial `route` phase, and short enough that a helper
/// idled by a long solo sprint goes to sleep. The yield is what makes
/// polling safe: a waiter that shares its core with the thread it waits
/// for (some other process holds the second core) would otherwise burn
/// its whole bound before the peer can run at all (DESIGN.md §12).
const SPIN_POLLS: u32 = 4_000;

/// A shard's pending deliveries: `(at, key, event)`.
type Handover<E> = Vec<(SimTime, u64, E)>;

/// One window's marching orders; shard `s` takes part when
/// [`Coordinator::candidate`]`(s)` is at or before `horizon`.
#[derive(Clone, Copy)]
struct Plan {
    horizon: SimTime,
    remaining: u64,
    sprint: Sprint,
}

/// One shard's window on a helper thread, and — sent back as a
/// [`Reply`] — the answer to it, so both buffers make the round trip.
struct Round<E, I> {
    shard: usize,
    plan: Plan,
    /// Out: the shard's pending deliveries. Back: drained.
    deliveries: Handover<E>,
    /// Out: last window's intents, drained by `route`. Back: this
    /// window's.
    intents: Vec<I>,
}

/// What running one shard's window reported.
struct Ran {
    next_time: Option<SimTime>,
    dispatched: u64,
    budget_exhausted: bool,
    /// The horizon the shard actually completed (past the base horizon
    /// when it sprinted).
    completed: SimTime,
}

type Reply<E, I> = (Round<E, I>, Ran);

/// The coordinator's ends of one helper thread.
struct Helper<'scope, M: Partitioned> {
    cmd_tx: mpsc::Sender<Round<M::Event, M::Intent>>,
    rsp_rx: mpsc::Receiver<Reply<M::Event, M::Intent>>,
    /// Returns the helper's block of engines once `cmd_tx` is dropped.
    thread: thread::ScopedJoinHandle<'scope, Vec<Engine<M>>>,
}

/// Give back most of a buffer whose capacity is far beyond `buf.len()`,
/// this window's need. The per-shard buffers live for the whole run, and
/// a burst window (every node sending at t = 0) would otherwise pin its
/// size as heap until the end. Called by the thread that grows `buf`.
fn trim<T>(buf: &mut Vec<T>) {
    let keep = 2 * buf.len().max(32);
    if buf.capacity() > 2 * keep {
        buf.shrink_to(keep);
    }
}

/// Receive with up to `spin` non-blocking polls before parking. A hung-up
/// sender ends the wait either way.
fn recv_spin<T>(rx: &mpsc::Receiver<T>, spin: u32) -> Result<T, mpsc::RecvError> {
    for _ in 0..spin {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) => thread::yield_now(),
        }
    }
    rx.recv()
}

/// Run one shard's window (and its coalesced continuation windows, when
/// sprinting): insert the handed-over deliveries, run to the horizon,
/// and drain the deferred intents into `intents_out`.
///
/// The one per-round shard body, whichever thread calls it — which is
/// what makes every thread count bit-identical.
fn run_window<M: Partitioned>(
    engine: &mut Engine<M>,
    plan: Plan,
    lookahead: SimTime,
    deliveries: &mut Handover<M::Event>,
    intents_out: &mut Vec<M::Intent>,
) -> Ran {
    let Plan {
        horizon,
        remaining: budget,
        sprint,
    } = plan;
    for (at, key, ev) in deliveries.drain(..) {
        engine.queue_mut().schedule_keyed(at, key, ev);
    }
    let start = engine.dispatched();
    engine.set_event_budget(budget);
    let mut run = engine.run_until(horizon);
    intents_out.clear();
    engine.model_mut().drain_intents_into(intents_out);
    let mut completed = horizon;

    if !matches!(sprint, Sprint::No) {
        // Keep taking lookahead-sized local windows while they stay
        // strictly below every other shard's earliest event and defer
        // nothing to the fabric.
        while run != RunOutcome::EventBudgetExhausted && intents_out.is_empty() {
            let Some(next) = engine.queue().peek_time() else {
                break;
            };
            let mut h = SimTime(next.0 + lookahead.0 - 1);
            if let Sprint::Capped(cap) = sprint {
                if next >= cap {
                    break;
                }
                h = h.min(SimTime(cap.0 - 1));
            }
            engine.set_event_budget(budget.saturating_sub(engine.dispatched() - start));
            run = engine.run_until(h);
            engine.model_mut().drain_intents_into(intents_out);
            completed = h;
        }
    }
    trim(intents_out);

    Ran {
        next_time: engine.queue().peek_time(),
        dispatched: engine.dispatched(),
        budget_exhausted: run == RunOutcome::EventBudgetExhausted,
        completed,
    }
}

/// The coordinator's bookkeeping between windows: every protocol
/// decision (window floor, active set, sprint cap, budget split) is
/// computed here, from shard-indexed state only.
struct Coordinator {
    next_times: Vec<Option<SimTime>>,
    /// Earliest delivery filed for each shard since it last ran.
    held: Vec<Option<SimTime>>,
    per_shard_dispatched: Vec<u64>,
    completed: Vec<SimTime>,
    base_dispatched: u64,
    lookahead: SimTime,
    event_budget: u64,
}

impl Coordinator {
    fn new<M: Partitioned>(engines: &[Engine<M>], config: &ParConfig) -> Self {
        let per_shard_dispatched: Vec<u64> = engines.iter().map(|e| e.dispatched()).collect();
        Coordinator {
            next_times: engines.iter().map(|e| e.queue().peek_time()).collect(),
            held: vec![None; engines.len()],
            base_dispatched: per_shard_dispatched.iter().sum(),
            per_shard_dispatched,
            completed: vec![SimTime::ZERO; engines.len()],
            lookahead: config.lookahead,
            event_budget: config.event_budget,
        }
    }

    /// Earliest candidate event on shard `s` (queued or pending
    /// handover).
    fn candidate(&self, s: usize) -> Option<SimTime> {
        match (self.next_times[s], self.held[s]) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn active(&self, s: usize, horizon: SimTime) -> bool {
        self.candidate(s).is_some_and(|t| t <= horizon)
    }

    /// The next window, or why there is none.
    fn plan(&self) -> Result<Plan, RunOutcome> {
        let spent: u64 = self.per_shard_dispatched.iter().sum::<u64>() - self.base_dispatched;
        if spent >= self.event_budget {
            return Err(RunOutcome::EventBudgetExhausted);
        }
        let shards = 0..self.next_times.len();
        let Some(w) = shards.clone().filter_map(|s| self.candidate(s)).min() else {
            return Err(RunOutcome::Drained); // every queue empty, nothing in flight
        };
        let horizon = SimTime(w.0 + self.lookahead.0 - 1);
        let mut sprint = Sprint::No;
        if shards.clone().filter(|&s| self.active(s, horizon)).count() == 1 {
            // Solo shard: everything else is beyond the horizon, so the
            // earliest of it is the earliest foreign event.
            let foreign = shards
                .filter_map(|s| self.candidate(s))
                .filter(|&t| t > horizon)
                .min();
            sprint = foreign.map_or(Sprint::Unbounded, Sprint::Capped);
        }
        Ok(Plan {
            horizon,
            remaining: self.event_budget - spent,
            sprint,
        })
    }

    /// Shard `shard` ran a window (consuming its handover).
    fn record(&mut self, shard: usize, ran: &Ran) {
        self.next_times[shard] = ran.next_time;
        self.held[shard] = None;
        self.per_shard_dispatched[shard] = ran.dispatched;
        self.completed[shard] = ran.completed;
    }

    /// File the routed deliveries into the per-shard pending queues,
    /// checking each lands beyond its destination's completed horizon.
    fn accept<E>(&mut self, deliveries: &mut Vec<Delivery<E>>, pending: &mut [Handover<E>]) {
        for d in deliveries.drain(..) {
            assert!(
                d.at > self.completed[d.shard],
                "lookahead violation: delivery at {} inside window ending {}",
                d.at,
                self.completed[d.shard]
            );
            let held = &mut self.held[d.shard];
            *held = Some(held.map_or(d.at, |t| t.min(d.at)));
            pending[d.shard].push((d.at, d.key, d.event));
        }
    }
}

/// The coordinator for one parallel run: owns the shard engines, drives
/// the window protocol, runs the first block of shards itself and
/// spawns helper threads for the rest.
pub struct WindowDriver<M: Partitioned> {
    engines: Vec<Engine<M>>,
    config: ParConfig,
}

impl<M> WindowDriver<M>
where
    M: Partitioned + Send,
    M::Event: Send,
{
    /// Wrap pre-seeded shard engines. Panics on an empty shard list or
    /// a non-positive lookahead.
    pub fn new(engines: Vec<Engine<M>>, config: ParConfig) -> Self {
        assert!(
            !engines.is_empty(),
            "window driver needs at least one shard"
        );
        assert!(
            config.lookahead > SimTime::ZERO,
            "conservative lookahead must be positive"
        );
        WindowDriver { engines, config }
    }

    /// Run all shards to completion. `route` is called once per window
    /// on the coordinator thread with every shard's drained intents (in
    /// shard index order; inactive shards contribute empty runs); it
    /// owns all shared state and pushes the cross-shard deliveries the
    /// intents caused into the output buffer. Both buffers are reused
    /// across windows. Returns the shard engines (in shard order) for
    /// merging, plus the run outcome.
    pub fn run<R>(self, route: R) -> (Vec<Engine<M>>, ParOutcome)
    where
        R: FnMut(&mut Vec<Vec<M::Intent>>, &mut Vec<Delivery<M::Event>>),
    {
        let shards = self.engines.len();
        let cores = thread::available_parallelism().map_or(1, usize::from);
        let helpers = match self.config.exec {
            ExecMode::Inline => 0,
            ExecMode::Threads => shards - 1,
            ExecMode::Auto => shards.min(cores) - 1,
        };
        // Polling only pays when every thread has a core to itself.
        let spin = if helpers < cores { SPIN_POLLS } else { 0 };
        self.run_with_helpers(helpers, spin, route)
    }

    /// The window loop, on `helpers + 1` threads (at most one per
    /// shard) whose waits poll `spin` times before parking. What
    /// [`Self::run`] resolves every [`ExecMode`] to, and the seam the
    /// tests use to pin thread counts the host would not pick.
    fn run_with_helpers<R>(
        self,
        helpers: usize,
        spin: u32,
        mut route: R,
    ) -> (Vec<Engine<M>>, ParOutcome)
    where
        R: FnMut(&mut Vec<Vec<M::Intent>>, &mut Vec<Delivery<M::Event>>),
    {
        let WindowDriver {
            mut engines,
            config,
        } = self;
        let shards = engines.len();
        let threads = helpers.min(shards - 1) + 1;
        let lookahead = config.lookahead;
        let mut coord = Coordinator::new(&engines, &config);

        // Per-shard buffers; a helper shard's pair travels with its round.
        let mut pending: Vec<Handover<M::Event>> = Vec::new();
        pending.resize_with(shards, Vec::new);
        let mut intents_by_shard: Vec<Vec<M::Intent>> = Vec::new();
        intents_by_shard.resize_with(shards, Vec::new);
        let mut routed: Vec<Delivery<M::Event>> = Vec::new();

        let mut rounds: u64 = 0;

        // Thread `t` runs the shards from `block_start(t)`; thread 0 is this one.
        let block_start = |t: usize| (t * shards).div_ceil(threads);
        let own = block_start(1);
        let helper_of = |s: usize| s * threads / shards - 1;

        #[expect(clippy::disallowed_methods, reason = "sim::par is where threads live")]
        let outcome = thread::scope(|scope| {
            let mut team: Vec<Helper<'_, M>> = (1..threads)
                .rev()
                .map(|t| {
                    let base = block_start(t);
                    let mut block = engines.split_off(base);
                    let (cmd_tx, cmd_rx) = mpsc::channel::<Round<M::Event, M::Intent>>();
                    let (rsp_tx, rsp_rx) = mpsc::channel();
                    let thread = scope.spawn(move || {
                        // Ends when the coordinator hangs up: normally
                        // after the last window, or by unwinding.
                        while let Ok(mut round) = recv_spin(&cmd_rx, spin) {
                            let ran = run_window(
                                &mut block[round.shard - base],
                                round.plan,
                                lookahead,
                                &mut round.deliveries,
                                &mut round.intents,
                            );
                            if rsp_tx.send((round, ran)).is_err() {
                                break;
                            }
                        }
                        block
                    });
                    Helper {
                        cmd_tx,
                        rsp_rx,
                        thread,
                    }
                })
                .collect();
            team.reverse();

            let outcome = loop {
                let plan = match coord.plan() {
                    Ok(plan) => plan,
                    Err(stop) => break stop,
                };
                rounds += 1;
                let mut exhausted = false;
                // Inactive shards must show `route` an empty run.
                for row in &mut intents_by_shard {
                    row.clear();
                }

                // Helpers first, so they work while the coordinator
                // runs its own block.
                for s in (0..shards).rev() {
                    if !coord.active(s, plan.horizon) {
                        continue;
                    }
                    trim(&mut pending[s]);
                    if s >= own {
                        let round = Round {
                            shard: s,
                            plan,
                            deliveries: std::mem::take(&mut pending[s]),
                            intents: std::mem::take(&mut intents_by_shard[s]),
                        };
                        team[helper_of(s)]
                            .cmd_tx
                            .send(round)
                            .expect("helper thread hung up mid-run");
                    } else {
                        let (deliveries, intents) = (&mut pending[s], &mut intents_by_shard[s]);
                        let ran = run_window(&mut engines[s], plan, lookahead, deliveries, intents);
                        exhausted |= ran.budget_exhausted;
                        coord.record(s, &ran);
                    }
                }
                // A helper answers its rounds in the order it got them.
                for s in (own..shards).rev() {
                    if !coord.active(s, plan.horizon) {
                        continue;
                    }
                    let (round, ran) = recv_spin(&team[helper_of(s)].rsp_rx, spin)
                        .expect("helper thread hung up mid-window");
                    debug_assert_eq!(round.shard, s);
                    exhausted |= ran.budget_exhausted;
                    coord.record(s, &ran);
                    pending[s] = round.deliveries;
                    intents_by_shard[s] = round.intents;
                }

                route(&mut intents_by_shard, &mut routed);
                coord.accept(&mut routed, &mut pending);

                if exhausted {
                    break RunOutcome::EventBudgetExhausted;
                }
            };

            // Hang up on everyone, then collect the blocks in shard order.
            let threads: Vec<_> = team.into_iter().map(|h| h.thread).collect();
            for thread in threads {
                engines.extend(thread.join().expect("helper thread panicked"));
            }
            outcome
        });

        let dispatched =
            engines.iter().map(|e| e.dispatched()).sum::<u64>() - coord.base_dispatched;
        let now = engines
            .iter()
            .map(|e| e.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        (
            engines,
            ParOutcome {
                outcome,
                now,
                dispatched,
                rounds,
                threads,
            },
        )
    }
}

/// Merge per-shard runs that are already sorted by `key` into one
/// globally ordered stream, draining the runs in place (their buffers
/// keep their capacity for reuse next window).
///
/// Byte-for-byte equivalent to flattening the runs in shard order and
/// stable-sorting by `key` — provided each run is individually
/// nondecreasing, which shard engines guarantee by construction (they
/// dispatch in ascending `(time, key)` and buffer intents in generation
/// order). Ties across runs resolve to the lowest shard index, exactly
/// as a stable sort of the shard-ordered concatenation would.
/// Debug builds assert the per-run precondition as the merge walks.
pub fn merge_ordered_runs<'a, T, K, F>(runs: &'a mut [Vec<T>], key: F) -> MergeOrderedRuns<'a, T, F>
where
    K: Ord,
    F: FnMut(&T) -> K,
{
    MergeOrderedRuns {
        runs: runs.iter_mut().map(|r| r.drain(..).peekable()).collect(),
        key,
    }
}

/// Iterator returned by [`merge_ordered_runs`].
pub struct MergeOrderedRuns<'a, T, F> {
    runs: Vec<std::iter::Peekable<std::vec::Drain<'a, T>>>,
    key: F,
}

impl<T, K, F> Iterator for MergeOrderedRuns<'_, T, F>
where
    K: Ord,
    F: FnMut(&T) -> K,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let mut best: Option<(usize, K)> = None;
        for (i, run) in self.runs.iter_mut().enumerate() {
            if let Some(item) = run.peek() {
                let k = (self.key)(item);
                // Strict `<` keeps the first (lowest-shard) run on ties,
                // matching a stable sort of the concatenation.
                if best.as_ref().is_none_or(|(_, bk)| k < *bk) {
                    best = Some((i, k));
                }
            }
        }
        let (i, _) = best?;
        let item = self.runs.get_mut(i)?.next();
        #[cfg(debug_assertions)]
        if let (Some(taken), Some(next)) = (&item, self.runs.get_mut(i)?.peek()) {
            debug_assert!(
                (self.key)(taken) <= (self.key)(next),
                "merge_ordered_runs: run {i} is not sorted"
            );
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestLanes;
    use crate::digest::EventDigest;
    use crate::queue::EventQueue;

    /// A toy "machine": `nodes` counters on a ring. Each event bumps its
    /// node's counter and forwards to the next node after `HOP` — a
    /// cross-shard send, which shard models defer as an intent.
    const HOP: SimTime = SimTime::from_ns(50);

    #[derive(Debug)]
    struct RingMsg {
        src: u32,
        dst: u32,
        hops_left: u32,
        sent_at: SimTime,
        key: u64,
        /// Key of the event whose dispatch produced this message — the
        /// merge key for intent routing (monotone within a shard run,
        /// unlike the freshly minted `key`).
        sent_key: u64,
    }

    struct RingShard {
        /// Global ids of the nodes this shard owns.
        base: u32,
        count: u32,
        total_nodes: u32,
        hits: Vec<u64>,
        key_ctr: Vec<u64>,
        intents: Vec<RingMsg>,
        cur_key: u64,
        /// Every thread that dispatched an event on this shard.
        ran_on: Vec<thread::ThreadId>,
    }

    impl RingShard {
        fn new(base: u32, count: u32, total: u32) -> Self {
            RingShard {
                base,
                count,
                total_nodes: total,
                hits: vec![0; count as usize],
                key_ctr: vec![0; count as usize],
                intents: Vec::new(),
                cur_key: 0,
                ran_on: Vec::new(),
            }
        }

        fn owns(&self, node: u32) -> bool {
            node >= self.base && node < self.base + self.count
        }

        fn next_key(&mut self, node: u32) -> u64 {
            let slot = (node - self.base) as usize;
            self.key_ctr[slot] += 1;
            (u64::from(node) << 32) | self.key_ctr[slot]
        }
    }

    /// Event = message arriving at its destination node.
    impl Model for RingShard {
        type Event = RingMsg;

        fn dispatch(&mut self, _: SimTime, _: RingMsg, _: &mut EventQueue<RingMsg>) {
            unreachable!("keyed dispatch only");
        }

        fn dispatch_keyed(
            &mut self,
            now: SimTime,
            key: u64,
            ev: RingMsg,
            q: &mut EventQueue<RingMsg>,
        ) {
            assert!(self.owns(ev.dst), "event routed to wrong shard");
            let me = thread::current().id();
            if !self.ran_on.contains(&me) {
                self.ran_on.push(me);
            }
            self.cur_key = key;
            let slot = (ev.dst - self.base) as usize;
            self.hits[slot] += 1;
            if ev.hops_left > 0 {
                let src = ev.dst;
                let dst = (src + 1) % self.total_nodes;
                let fresh = self.next_key(src);
                let msg = RingMsg {
                    src,
                    dst,
                    hops_left: ev.hops_left - 1,
                    sent_at: now,
                    key: fresh,
                    sent_key: self.cur_key,
                };
                // Even same-shard sends go through the intent path so
                // serial and parallel replay identical fabric
                // interactions.
                self.intents.push(msg);
                let _ = q;
            }
        }

        fn lane(ev: &RingMsg) -> u32 {
            ev.dst
        }

        fn fingerprint(ev: &RingMsg, d: &mut EventDigest) {
            d.write_u32(ev.src);
            d.write_u32(ev.dst);
            d.write_u32(ev.hops_left);
        }
    }

    impl Partitioned for RingShard {
        type Intent = RingMsg;
        fn drain_intents_into(&mut self, out: &mut Vec<RingMsg>) {
            out.append(&mut self.intents);
        }
    }

    /// Route intents in serial dispatch order: a k-way merge of the
    /// per-shard runs on the sending event's (time, key), exactly like
    /// the machine model.
    fn route_ring(
        shard_of: impl Fn(u32) -> usize,
    ) -> impl FnMut(&mut Vec<Vec<RingMsg>>, &mut Vec<Delivery<RingMsg>>) {
        move |by_shard, out| {
            for m in merge_ordered_runs(by_shard, |m| (m.sent_at, m.sent_key)) {
                out.push(Delivery {
                    shard: shard_of(m.dst),
                    at: m.sent_at + HOP,
                    key: m.key,
                    event: m,
                });
            }
        }
    }

    fn seed(engine: &mut Engine<RingShard>, total: u32, hops: u32) {
        // One message starting on every node at t=0, all racing around
        // the ring concurrently.
        for n in 0..total {
            let model = engine.model_mut();
            if !model.owns(n) {
                continue;
            }
            let key = model.next_key(n);
            engine.queue_mut().schedule_keyed(
                SimTime::ZERO,
                key,
                RingMsg {
                    src: n,
                    dst: n,
                    hops_left: hops,
                    sent_at: SimTime::ZERO,
                    key,
                    sent_key: key,
                },
            );
        }
    }

    fn serial_run(total: u32, hops: u32) -> (u64, Vec<u64>, u64) {
        let mut e = Engine::new(RingShard::new(0, total, total));
        seed(&mut e, total, hops);
        // Serial reference replays its own intents the same way the
        // coordinator would, single-shard.
        let shard_of = |_| 0usize;
        let mut route = route_ring(shard_of);
        let mut out = Vec::new();
        loop {
            let outcome = e.run();
            assert_eq!(outcome, RunOutcome::Drained);
            let mut run = Vec::new();
            e.model_mut().drain_intents_into(&mut run);
            if run.is_empty() {
                break;
            }
            route(&mut vec![run], &mut out);
            for d in out.drain(..) {
                e.queue_mut().schedule_keyed(d.at, d.key, d.event);
            }
        }
        (e.digest(), e.model().hits.clone(), e.dispatched())
    }

    fn ring_engines(total: u32, shards: u32, hops: u32) -> (Vec<Engine<RingShard>>, u32) {
        let per = total.div_ceil(shards);
        let mut engines = Vec::new();
        let mut base = 0;
        while base < total {
            let count = per.min(total - base);
            let mut e = Engine::new(RingShard::new(base, count, total));
            seed(&mut e, total, hops);
            engines.push(e);
            base += count;
        }
        (engines, per)
    }

    /// How a test picks the thread count: through the public
    /// [`ExecMode`], or pinned past what the host would choose.
    #[derive(Debug, Clone, Copy)]
    enum Via {
        Exec(ExecMode),
        /// `run_with_helpers(helpers, spin)`.
        Helpers(usize, u32),
    }

    fn parallel_engines(
        total: u32,
        shards: u32,
        hops: u32,
        via: Via,
    ) -> (Vec<Engine<RingShard>>, ParOutcome) {
        let (engines, per) = ring_engines(total, shards, hops);
        let route = route_ring(move |node: u32| (node / per) as usize);
        let mut config = ParConfig::new(HOP, u64::MAX);
        let (engines, out) = match via {
            Via::Exec(exec) => {
                config.exec = exec;
                WindowDriver::new(engines, config).run(route)
            }
            Via::Helpers(helpers, spin) => {
                WindowDriver::new(engines, config).run_with_helpers(helpers, spin, route)
            }
        };
        assert_eq!(out.outcome, RunOutcome::Drained);
        (engines, out)
    }

    fn parallel_run_with(
        total: u32,
        shards: u32,
        hops: u32,
        via: Via,
    ) -> (u64, Vec<u64>, u64, u64) {
        let (engines, out) = parallel_engines(total, shards, hops, via);
        let mut lanes = DigestLanes::new();
        for e in &engines {
            lanes.merge_from(e.digest_lanes());
        }
        let digest = lanes.value();
        let mut hits = Vec::new();
        for e in &engines {
            hits.extend_from_slice(&e.model().hits);
        }
        (digest, hits, out.dispatched, out.rounds)
    }

    fn parallel_run(total: u32, shards: u32, hops: u32) -> (u64, Vec<u64>, u64) {
        let via = Via::Exec(ExecMode::Auto);
        let (d, h, n, _) = parallel_run_with(total, shards, hops, via);
        (d, h, n)
    }

    #[test]
    fn parallel_ring_matches_serial_for_any_shard_count() {
        let (sd, sh, sn) = serial_run(12, 9);
        for shards in [1, 2, 3, 4, 5, 12] {
            let (pd, ph, pn) = parallel_run(12, shards, 9);
            assert_eq!(pd, sd, "digest diverged at {shards} shards");
            assert_eq!(ph, sh, "hit counts diverged at {shards} shards");
            assert_eq!(pn, sn, "dispatch count diverged at {shards} shards");
        }
    }

    #[test]
    fn backends_are_bit_identical() {
        let (sd, sh, sn) = serial_run(12, 9);
        let vias = [
            Via::Exec(ExecMode::Inline),
            Via::Exec(ExecMode::Threads),
            Via::Exec(ExecMode::Auto),
            // Exactly one helper, whatever the host: from 3 shards up
            // both it and the coordinator run several shards each.
            Via::Helpers(1, SPIN_POLLS),
            Via::Helpers(1, 0),
            // Two helpers: 4 shards deal out as blocks of 2, 1 and 1.
            Via::Helpers(2, SPIN_POLLS),
        ];
        for shards in [1, 2, 3, 4, 6] {
            for via in vias {
                let (pd, ph, pn, _) = parallel_run_with(12, shards, 9, via);
                let at = format!("{shards} shards, {via:?}");
                assert_eq!(pd, sd, "digest diverged: {at}");
                assert_eq!(ph, sh, "hits diverged: {at}");
                assert_eq!(pn, sn, "count diverged: {at}");
            }
        }
    }

    #[test]
    fn shards_run_on_the_thread_their_block_belongs_to() {
        let here = thread::current().id();
        let threads_of = |shards, via| -> Vec<Vec<thread::ThreadId>> {
            let (engines, _) = parallel_engines(12, shards, 9, via);
            engines.iter().map(|e| e.model().ran_on.clone()).collect()
        };
        // A 1-shard run never leaves the caller's thread, in any mode
        // and on any host: there is nobody to overlap with.
        for exec in [ExecMode::Auto, ExecMode::Threads, ExecMode::Inline] {
            assert_eq!(threads_of(1, Via::Exec(exec)), [[here]], "{exec:?}");
        }
        // Inline keeps every shard at home.
        for ran_on in threads_of(3, Via::Exec(ExecMode::Inline)) {
            assert_eq!(ran_on, [here]);
        }
        // 6 shards on 2 threads: the coordinator runs 0..3 itself, the
        // one helper runs 3..6, and no shard ever changes thread.
        let ran_on = threads_of(6, Via::Helpers(1, 0));
        for shard in &ran_on[..3] {
            assert_eq!(shard, &[here]);
        }
        assert_eq!(ran_on[3].len(), 1);
        assert_ne!(ran_on[3], [here]);
        assert!(ran_on[4] == ran_on[3] && ran_on[5] == ran_on[3]);
        // One thread per shard still leaves shard 0 on the coordinator.
        let ran_on = threads_of(3, Via::Exec(ExecMode::Threads));
        assert_eq!(ran_on[0], [here]);
        assert!(ran_on[1] != ran_on[0] && ran_on[2] != ran_on[0] && ran_on[1] != ran_on[2]);
    }

    #[test]
    fn solo_shard_round_count_is_pinned() {
        // Every ring hop is an intent, so every window ends a sprint: the
        // seeded arrival and its 40 hops take 41 rounds, one per arrival.
        // A change to the window protocol that adds a round shows here.
        let inline = Via::Exec(ExecMode::Inline);
        let (_, _, _, rounds) = parallel_run_with(8, 2, 40, inline);
        assert_eq!(rounds, 41);
    }

    #[test]
    fn budget_exhaustion_is_detected() {
        let (engines, _) = ring_engines(8, 2, 1000);
        let driver = WindowDriver::new(engines, ParConfig::new(HOP, 64));
        let (_, out) = driver.run(route_ring(|n| (n / 4) as usize));
        assert_eq!(out.outcome, RunOutcome::EventBudgetExhausted);
        assert!(out.dispatched >= 64);
    }

    /// Claims cross-shard sends take 100ns when they really take 50ns:
    /// the round-1 deliveries land inside round 2's window and the
    /// driver must refuse.
    fn overstated_lookahead(shards: u32) -> WindowDriver<RingShard> {
        let (engines, _) = ring_engines(8, shards, 4);
        WindowDriver::new(engines, ParConfig::new(SimTime::from_ns(100), u64::MAX))
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn overstated_lookahead_is_caught() {
        let (_, _) = overstated_lookahead(2).run(route_ring(|n| (n / 4) as usize));
    }

    /// The assert fires on the coordinator while its helpers wait for a
    /// round that will never come — here polling without limit, so only
    /// noticing the hang-up lets them return and the panic unwind out of
    /// the thread scope (a helper that missed it would hang this test).
    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn coordinator_panic_unwinds_past_spinning_helpers() {
        let driver = overstated_lookahead(4);
        let (_, _) = driver.run_with_helpers(2, u32::MAX, route_ring(|n| (n / 2) as usize));
    }

    #[test]
    fn merge_ordered_runs_matches_stable_sort() {
        let mut runs = vec![
            vec![(1u64, 10u32), (3, 11), (3, 12), (9, 13)],
            vec![(1, 20), (2, 21), (3, 22)],
            vec![],
            vec![(0, 30), (3, 31), (12, 32)],
        ];
        let mut expect: Vec<(u64, u32)> = runs.iter().flatten().copied().collect();
        expect.sort_by_key(|&(t, _)| t);
        let merged: Vec<(u64, u32)> = merge_ordered_runs(&mut runs, |&(t, _)| t).collect();
        assert_eq!(merged, expect);
        assert!(runs.iter().all(Vec::is_empty), "runs are drained in place");
    }
}
