//! Parallel machine runs: spatial partitioning over the conservative
//! time-window driver in `xt3_sim::par`.
//!
//! This module contains no threading — it only prepares shards and
//! routes their deferred sends; all synchronization lives in
//! [`xt3_sim::WindowDriver`]. The contract is *bit-identical* results:
//! for any worker count, a parallel run produces the same event digest,
//! state fingerprint and telemetry report as the serial engine.
//!
//! # How the pieces line up
//!
//! * The machine is split into contiguous node slabs
//!   ([`Machine::split`]); each slab runs an ordinary serial engine. The
//!   driver deals the slabs out to `min(workers, host cores)` threads,
//!   the calling thread included: it runs the first block of slabs
//!   itself between routing phases, and spawns nothing at all for one
//!   worker or one core (see [`xt3_sim::ExecMode`]).
//! * The window lookahead is the fabric's minimum cross-node latency
//!   ([`xt3_topology::fabric::FabricConfig::min_lookahead`]), so events
//!   inside one window are causally independent across shards.
//! * Shards never touch the shared fabric: their sends buffer as
//!   [`SendIntent`]s, which the coordinator replays between windows in
//!   serial dispatch order — a k-way merge of the per-shard runs on the
//!   sending event's `(time, key)`, equivalent to a stable sort of the
//!   concatenation because each run is already sorted by construction.
//!   Windows are disjoint and ascending, so the fabric
//!   (link cursors, RNG, counters) evolves exactly as in a serial run.
//! * No heap object changes owner thread. The coordinator allocates the
//!   box of every delivery ([`apply_send`]); the shard that dispatches
//!   the header keeps it as the receive record until the message is done
//!   with, then empties it and sends it home in its next intent, where
//!   it carries a later delivery. Freeing it on the shard instead — one
//!   cross-thread `free` per message — was 7 % of a threaded run's
//!   samples with the allocator's lock under it. The serial engine keeps
//!   its plain allocate-and-drop (a pool there cost +1.76 % peak heap on
//!   the deep-queue workload).
//! * Every event carries a scheduling key derived from per-node monotone
//!   counters, so equal-time dispatch order is a function of simulation
//!   state, not queue insertion order, and per-node digest lanes merge
//!   into the serial digest.

use crate::machine::{apply_send, Ev, Machine, SendIntent};
use xt3_sim::{
    merge_ordered_runs, CausalLog, DigestLanes, Model, ParConfig, ParOutcome, RunOutcome, SimTime,
    WindowDriver,
};
use xt3_telemetry::Telemetry;

/// Everything a parallel run produces.
pub struct ParRun {
    /// The reassembled machine (nodes, trace, fault lanes, real fabric)
    /// — equivalent to the serial machine after the same run.
    pub machine: Machine,
    /// Event digest, bit-identical to the serial engine's
    /// [`xt3_sim::Engine::digest`].
    pub digest: u64,
    /// Model state fingerprint, bit-identical to the serial engine's.
    pub state_fingerprint: u64,
    /// Maximum simulated time reached.
    pub now: SimTime,
    /// Events dispatched across all shards.
    pub dispatched: u64,
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Synchronization windows executed.
    pub rounds: u64,
    /// Threads the shards ran on (the calling thread included): at most
    /// one per shard and, on the automatic backend, one per host core.
    pub threads: usize,
}

/// Run a freshly built machine to completion on `workers` shards.
///
/// `workers` is clamped to the node count; `run_parallel(m, 1)` is the
/// degenerate single-shard case (still exercising the full deferred-send
/// protocol). Panics if the machine was already run.
pub fn run_parallel(machine: Machine, workers: usize) -> ParRun {
    let node_count = machine.nodes.len();
    let shards = workers.max(1).min(node_count);
    let per = node_count.div_ceil(shards);
    let lookahead = machine.config.fabric.min_lookahead();
    let causal_on = machine.causal().is_enabled();

    let (shard_machines, mut fabric) = machine.split(shards);
    let engines = shard_machines
        .into_iter()
        .map(Machine::into_engine)
        .collect();
    // Mirror the serial engine's budget (see `Machine::into_engine`) so
    // exhaustion behaves the same. The thread count is left on
    // automatic — it cannot affect results.
    let driver = WindowDriver::new(engines, ParConfig::new(lookahead, 2_000_000_000));

    // The coordinator owns the real fabric. Like the shards, it keeps no
    // spans and no causal records — nothing would read them — but its
    // disabled log still carries the link series' records to the
    // fabric's consumer thread, which is settled before the fabric goes
    // back into the machine.
    let mut tele = Telemetry::disabled();
    let mut causal = CausalLog::disabled();
    fabric.offload(&mut causal);
    let route = |by_shard: &mut Vec<Vec<SendIntent>>, out: &mut Vec<xt3_sim::Delivery<Ev>>| {
        // Serial dispatch order: the engine dispatches events in
        // ascending (time, key), and within one dispatch sends are
        // generated in program order — which the per-shard intent runs
        // preserve, so they are individually sorted and a k-way merge
        // reproduces exactly what a stable sort of the flattened list
        // used to (see `merge_ordered_runs`), without reallocating the
        // runs or the merged list every window.
        for intent in merge_ordered_runs(by_shard, |a| (a.at, a.cur_key)) {
            let (at, key, event) = apply_send(&mut fabric, &mut tele, &mut causal, intent);
            let Ev::NetHeader { node, .. } = &event else {
                unreachable!("apply_send only produces deliveries");
            };
            out.push(xt3_sim::Delivery {
                shard: *node as usize / per,
                at,
                key,
                event,
            });
        }
    };

    let (engines, out) = driver.run(route);
    fabric.settle(&mut causal);
    let ParOutcome {
        outcome,
        now,
        dispatched,
        rounds,
        threads,
    } = out;

    let mut lanes = DigestLanes::new();
    for e in &engines {
        lanes.merge_from(e.digest_lanes());
    }
    let digest = lanes.value();
    let shards: Vec<Machine> = engines.into_iter().map(|e| e.into_model()).collect();
    let mut machine = Machine::merge(shards, fabric);
    machine.set_causal_enabled(causal_on);
    let state_fingerprint = machine.state_fingerprint();
    ParRun {
        machine,
        digest,
        state_fingerprint,
        now,
        dispatched,
        outcome,
        rounds,
        threads,
    }
}
