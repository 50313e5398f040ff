//! The machine: nodes + fabric + event dispatch.
//!
//! This module sequences the full message paths of paper §3–§4 over the
//! simulated platform. The canonical generic-mode put:
//!
//! ```text
//! app --trap--> kernel Portals --cmd--> mailbox --HT--> firmware
//!   firmware --TX DMA(header fetch + payload read)--> wire
//!   wire --router hops--> target firmware
//!   firmware --upper pending write, event, INTERRUPT--> target host
//!   host: matching --deposit cmd--> firmware --RX DMA--> memory
//!   firmware --event, INTERRUPT--> host --PUT_END--> polling app
//! ```
//!
//! with the §6 12-byte piggyback shortcut (payload rides with the header;
//! the match interrupt also delivers and completes, saving the second
//! interrupt) and the firmware-direct Reply/Ack path (the originating
//! command pushed the buffer down, so no host matching and no interrupt —
//! the completion event is readable by the polling application the moment
//! the firmware writes it, §4.1).
//!
//! # Where each path lives
//!
//! Two functions here are the spine: [`Model::dispatch`] (an event comes
//! off the queue) and `exec_effects` (a firmware handler asked for
//! something). Everything they call sits in one child module per job:
//!
//! | module | job |
//! |---|---|
//! | `events` | [`Ev`], its owner lane and digest fingerprint |
//! | `net` | the fabric seam: inline vs deferred sends ([`SendIntent`], `apply_send`), fault-plan wire fates, go-back-n, `split`/`merge` |
//! | `tx` | transmit: host command post, firmware command dispatch, TX DMA, acks and replies on their way out |
//! | `rx` | receive: header arrival, RX DMA, firmware-direct Reply/Ack completion, and the match/deposit steps both completion policies share |
//! | `generic` | **generic completion** (§3.3, §4.1): interrupt, host-side matching, mailbox round trips, the API trap |
//! | `accel` | **accelerated completion**: matching on the PPC, inline commands, no interrupt, no trap |
//! | `appctx` | app scheduling and the app-facing API ([`AppCtx`]) |
//! | `report` | `telemetry_report` and the causal EQ-post attribution |
//!
//! Which completion policy a firmware-level process gets is its
//! [`FwMode`]; the four places the two differ — API-entry cost, the
//! poll-path trap, `FwEffect::PostEvent` and `FwEffect::MatchOnNic` — are
//! each a one-line hand-off into `generic` or `accel` (DESIGN.md §4c).

mod accel;
mod appctx;
mod events;
mod generic;
mod net;
mod report;
mod rx;
mod tx;

pub use appctx::AppCtx;
pub use events::{Ev, InFlight};
pub(crate) use net::apply_send;
pub use net::SendIntent;

use crate::app::{App, AppEvent};
use crate::config::{MachineConfig, NodeSpec};
use crate::node::{FwLayouts, Node};
use net::NetMode;
use xt3_firmware::control::{Effects, FwEffect, FwError, FwMode, ProcIdx};
use xt3_firmware::mailbox::FwEvent;
use xt3_seastar::ppc::FwHandler;
use xt3_sim::{
    label, CausalLog, Engine, EventDigest, EventQueue, FaultInjector, FaultStats, FwFaultKind,
    Label, Model, SimTime, Trace, TraceCategory,
};
use xt3_telemetry::Telemetry;
use xt3_topology::coord::NodeId;
use xt3_topology::fabric::Fabric;

/// Events the trace buffer retains (the tail of the stream).
const TRACE_CAPACITY: usize = 1 << 20;

/// Static trace label for a firmware fault, one per [`FwError`] variant
/// (replaces a per-fault `format!` on what is otherwise an
/// allocation-free dispatch path).
fn fw_error_label(err: FwError) -> Label {
    match err {
        FwError::NoRxPending => label!("fw-fault:no-rx-pending"),
        FwError::NoSource => label!("fw-fault:no-source"),
        FwError::BadPending => label!("fw-fault:bad-pending"),
        FwError::BadProcess => label!("fw-fault:bad-process"),
        FwError::SpuriousCompletion => label!("fw-fault:spurious-completion"),
    }
}

/// The nodes a machine (or one shard of a partitioned machine) owns,
/// indexed by *global* node id. A full machine has `base == 0`; a shard
/// owns the contiguous slab `[base, base + len)`. Keeping indexing
/// global means every handler — and every external test poking at
/// `machine.nodes[i]` — is oblivious to partitioning.
pub struct Nodes {
    base: usize,
    inner: Vec<Node>,
}

impl Nodes {
    /// First global node id owned.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of nodes owned.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no nodes are owned.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The owned global node ids, in order.
    pub fn ids(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.inner.len()
    }

    /// Iterate the owned nodes in global-id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.inner.iter()
    }

    /// Mutable access by global id; `None` when this shard doesn't own
    /// the node.
    pub fn get_mut(&mut self, global: usize) -> Option<&mut Node> {
        self.inner.get_mut(global.checked_sub(self.base)?)
    }
}

impl std::ops::Index<usize> for Nodes {
    type Output = Node;
    fn index(&self, global: usize) -> &Node {
        &self.inner[global - self.base]
    }
}

impl std::ops::IndexMut<usize> for Nodes {
    fn index_mut(&mut self, global: usize) -> &mut Node {
        &mut self.inner[global - self.base]
    }
}

impl<'a> IntoIterator for &'a Nodes {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// The machine model.
pub struct Machine {
    /// Configuration.
    pub config: MachineConfig,
    /// Nodes (the full machine, or this shard's slab of it).
    pub nodes: Nodes,
    /// The interconnect. On a partitioned shard this is a placeholder:
    /// shards never walk the fabric — the coordinator owns the real one.
    pub fabric: Fabric,
    /// Trace buffer.
    pub trace: Trace,
    /// The fault-injection subsystem executing `config.faults`.
    pub(crate) faults: FaultInjector,
    /// Cross-layer telemetry recorder. Deliberately excluded from
    /// [`Model::state_fingerprint`]: it observes the simulation and never
    /// feeds back into it, so digests match with it on or off.
    telemetry: Telemetry,
    /// Causal message DAG (trace ids, parent edges, EQ-delivery
    /// attribution). Observation-only like `telemetry` and excluded from
    /// the state fingerprint for the same reason: enabling it must not
    /// perturb replay digests (asserted by the replay-audit lockstep).
    causal: CausalLog,
    spawned: Vec<(u32, u32)>,
    /// Reusable drain buffer for `on_host_interrupt` (the handler is never
    /// reentrant — it only runs from a dispatched `Ev::HostInterrupt`).
    scratch_events: Vec<(ProcIdx, FwEvent)>,
    /// Serial inline fabric walks (the default), or deferred send intents
    /// (one shard of a partitioned run).
    net: NetMode,
    /// Scheduling key of the event currently being dispatched (recorded
    /// into deferred send intents to order them across shards).
    cur_key: u64,
    /// Dispatch time of the event currently being dispatched.
    cur_now: SimTime,
}

impl Machine {
    /// Build a machine with one spec per node (specs cycle if fewer than
    /// `dims.node_count()` are given).
    pub fn new(config: MachineConfig, specs: &[NodeSpec]) -> Self {
        assert!(!specs.is_empty(), "at least one node spec required");
        let fabric = Fabric::new(config.dims, config.fabric);
        let mut layouts = FwLayouts::default();
        let inner = (0..config.dims.node_count())
            .map(|i| {
                let spec = &specs[i as usize % specs.len()];
                Node::new(&config, NodeId(i), spec, &mut layouts)
            })
            .collect();
        Machine {
            nodes: Nodes { base: 0, inner },
            ..Machine::around(config, fabric, false)
        }
    }

    /// A serial machine that owns no nodes yet, around `config` and
    /// `fabric`: the one place the sinks are built — trace and telemetry
    /// as configured, the causal log as asked — beside a fresh injector
    /// for the fault plan. `new`, `split` and `merge` fill in the rest.
    fn around(config: MachineConfig, fabric: Fabric, causal_on: bool) -> Self {
        Machine {
            nodes: Nodes {
                base: 0,
                inner: Vec::new(),
            },
            fabric,
            trace: Trace::new(config.trace, TRACE_CAPACITY),
            faults: FaultInjector::new(config.faults.clone()),
            telemetry: Telemetry::new(config.telemetry),
            causal: CausalLog::new(causal_on),
            spawned: Vec::new(),
            scratch_events: Vec::new(),
            net: Default::default(),
            cur_key: 0,
            cur_now: SimTime::ZERO,
            config,
        }
    }

    /// Install an app on `(node, pid)`; it activates at time zero.
    pub fn spawn(&mut self, node: u32, pid: u32, app: Box<dyn App>) {
        let n = &mut self.nodes[node as usize];
        let slot = &mut n.procs[pid as usize].app;
        assert!(slot.is_none(), "process {node}:{pid} already has an app");
        *slot = Some(app);
        n.hot.running_apps += 1;
        self.spawned.push((node, pid));
    }

    /// Number of apps still running (on this machine's owned nodes).
    pub fn running_apps(&self) -> u32 {
        self.nodes.iter().map(|n| n.hot.running_apps).sum()
    }

    /// Reserve the next scheduling key for an event owned by `node`.
    ///
    /// Keys are `(node << 32) | counter` with a per-node monotone
    /// counter, so they are unique machine-wide and — because a node's
    /// counter is only ever bumped while dispatching that node's own
    /// events — identical between a serial run and any partitioning.
    /// The queue orders equal-time events by key, making the dispatch
    /// order a pure function of simulation state rather than of queue
    /// insertion order.
    fn next_key(&mut self, node: u32) -> u64 {
        let n = &mut self.nodes[node as usize];
        n.hot.key_ctr += 1;
        (u64::from(node) << 32) | n.hot.key_ctr
    }

    /// The completion policy serving process `(node, pid)`.
    fn mode_of(&self, node: usize, pid: u32) -> FwMode {
        let n = &self.nodes[node];
        n.fw.mode(n.procs[pid as usize].fw_proc)
    }

    /// Did any node panic on resource exhaustion?
    pub fn any_panicked(&self) -> bool {
        self.nodes.iter().any(|n| n.hot.panicked)
    }

    /// Nodes whose firmware took an injected unrecoverable fault.
    pub fn dark_nodes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| n.hot.dark)
            .map(|n| n.id.0)
            .collect()
    }

    /// Counters of every fault the plan has injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Total go-back-n retransmissions across every node.
    pub fn total_gbn_retransmissions(&self) -> u64 {
        self.nodes.iter().map(|n| n.gbn_retransmissions()).sum()
    }

    /// Extract an app after the run (for result harvesting). `None` for
    /// process-free nodes, out-of-range ids, or already-taken slots.
    pub fn take_app(&mut self, node: u32, pid: u32) -> Option<Box<dyn App>> {
        self.nodes
            .get_mut(node as usize)?
            .procs
            .get_mut(pid as usize)?
            .app
            .take()
    }

    /// The cross-layer telemetry recorder (counters, gauges, spans).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry access (exporters, tests).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Turn the telemetry sink on or off mid-run. Digest-neutral: the
    /// recorder only observes, so two lockstep engines differing only in
    /// this flag produce identical digests and fingerprints.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
    }

    /// The causal message DAG recorded so far.
    pub fn causal(&self) -> &CausalLog {
        &self.causal
    }

    /// Mutable causal-log access (extractors, tests).
    pub fn causal_mut(&mut self) -> &mut CausalLog {
        &mut self.causal
    }

    /// Turn causal tracing on or off. Digest-neutral for the same reason
    /// as [`Self::set_telemetry_enabled`]: the log observes message life
    /// cycles and never feeds back into scheduling.
    pub fn set_causal_enabled(&mut self, enabled: bool) {
        self.causal.set_enabled(enabled);
    }

    /// Start recording time-bucketed link/injection series on the
    /// fabric. Digest-neutral like telemetry and causal tracing: the
    /// series observe timings the cut-through walk computes anyway.
    /// For a parallel run, call this *before* [`Machine::split`] — the
    /// split moves the real fabric (series included) to the
    /// coordinator, and [`Machine::merge`] brings it back, so the
    /// recorded lanes survive with a deterministic (serial-order)
    /// merge for free.
    pub fn enable_link_series(&mut self, cfg: xt3_telemetry::SeriesConfig) {
        self.fabric.enable_series(cfg);
    }

    /// The recorded fabric series, if enabled.
    pub fn link_series(&self) -> Option<&xt3_telemetry::SeriesSet> {
        self.fabric.series()
    }

    /// Wrap in an engine with every spawned app's start event seeded,
    /// plus the fault plan's scheduled firmware events.
    pub fn into_engine(self) -> Engine<Machine> {
        let starts = self.spawned.clone();
        let heartbeat = self.config.ras_heartbeat;
        let owned = self.nodes.ids();
        let fw_events = self.faults.plan().fw_events.clone();
        let mut engine = Engine::new(self).with_event_budget(2_000_000_000);
        // Seed only events owned by this machine's node range (identity
        // for a full machine; the filter matters for partitioned shards).
        // Seeding order — app starts, then heartbeats, then planned
        // firmware faults — fixes each node's key subsequence, and
        // filtering by owner preserves per-node subsequences exactly, so
        // a shard reserves the same keys the serial machine would.
        for (node, pid) in starts {
            let key = engine.model_mut().next_key(node);
            engine
                .queue_mut()
                .schedule_keyed(SimTime::ZERO, key, Ev::AppStart { node, pid });
        }
        if let Some(interval) = heartbeat {
            for node in owned.clone() {
                let node = node as u32;
                let key = engine.model_mut().next_key(node);
                engine
                    .queue_mut()
                    .schedule_keyed(interval, key, Ev::RasHeartbeat { node });
            }
        }
        for ev in fw_events {
            if !owned.contains(&(ev.node as usize)) {
                continue;
            }
            let key = engine.model_mut().next_key(ev.node);
            engine.queue_mut().schedule_keyed(
                ev.at,
                key,
                Ev::FaultAt {
                    node: ev.node,
                    kind: Box::new(ev.kind),
                },
            );
        }
        engine
    }

    // ----- charging a node's two processors (the only spellings) -----

    /// Run firmware `handler` on `node`'s PPC from `at`; returns when it
    /// completes.
    fn ppc_run(&mut self, node: usize, handler: FwHandler, at: SimTime) -> SimTime {
        self.ppc_run_extra(node, handler, at, SimTime::ZERO)
    }

    /// [`Self::ppc_run`] plus `extra` PPC time in the same occupancy.
    fn ppc_run_extra(
        &mut self,
        node: usize,
        handler: FwHandler,
        at: SimTime,
        extra: SimTime,
    ) -> SimTime {
        let (cm, tele) = (&self.config.cost, &mut self.telemetry);
        let ppc = &mut self.nodes[node].chip.ppc;
        ppc.run_with_extra_via(cm, handler, at, extra, node as u32, tele)
    }

    /// Occupy `node`'s PPC for a raw `cost` (firmware fast paths that are
    /// not one of the [`FwHandler`] classes).
    fn ppc_raw(&mut self, node: usize, at: SimTime, cost: SimTime, label: &'static str) -> SimTime {
        let ppc = &mut self.nodes[node].chip.ppc;
        ppc.occupy_raw_via(at, cost, label, node as u32, &mut self.telemetry)
    }

    /// Occupy `node`'s host CPU for `cost` under `label`.
    fn host_span(
        &mut self,
        node: usize,
        at: SimTime,
        cost: SimTime,
        label: &'static str,
    ) -> SimTime {
        let host = &mut self.nodes[node].host;
        host.run_span(at, cost, label, node as u32, &mut self.telemetry)
    }

    // ----- firmware effects -----

    /// Carry out what a firmware handler that finished at `t` asked for,
    /// or isolate the node if it reported a protocol fault.
    fn run_fw(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        result: Result<Effects, FwError>,
    ) {
        match result {
            Ok(effects) => self.exec_effects(q, t, node, effects),
            Err(err) => self.fw_fault(t, node, err),
        }
    }

    /// A firmware handler reported a protocol fault (bad pending id,
    /// spurious completion, ...). On the real XT3 the firmware panics the
    /// node and RAS reboots it (§4.3); the model isolates the node instead
    /// so the run finishes and `any_panicked()` reports the failure.
    /// The label is per-variant so the fault cause stays visible in the
    /// trace without a per-fault `format!`.
    fn fw_fault(&mut self, t: SimTime, node: usize, err: FwError) {
        self.nodes[node].hot.panicked = true;
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Firmware,
            fw_error_label(err),
            0,
        );
    }

    fn exec_effects(&mut self, q: &mut EventQueue<Ev>, t: SimTime, node: usize, effects: Effects) {
        for &eff in effects.as_slice() {
            match eff {
                FwEffect::StartTxDma { proc, pending } => {
                    self.start_tx_dma(q, t, node, proc, pending);
                }
                FwEffect::StartRxDma { proc, pending, .. } => {
                    self.start_rx_dma(q, t, node, proc, pending);
                }
                FwEffect::WriteUpperHeader { .. } => {
                    // Latency folded into the event/interrupt visibility
                    // times of the completion modules.
                }
                FwEffect::PostEvent { proc, event } => match self.nodes[node].fw.mode(proc) {
                    FwMode::Accelerated => self.accel_event(q, t, node, proc, event),
                    FwMode::Generic => self.queue_fw_event(node, proc, event),
                },
                FwEffect::RaiseInterrupt => self.raise_interrupt(q, t, node),
                FwEffect::MatchOnNic { proc, pending } => {
                    self.nic_match(q, t, node, proc, pending);
                }
            }
        }
    }

    /// A fault-plan firmware event fires on `node`.
    fn on_fault_at(&mut self, now: SimTime, node: usize, kind: FwFaultKind) {
        let fault = match kind {
            FwFaultKind::Stall(duration) => {
                self.faults.note_fw_stall(now, node as u32, duration);
                self.nodes[node].chip.ppc.stall(now, duration);
                label!("fault:fw-stall")
            }
            FwFaultKind::Fault => {
                self.faults.note_fw_fault(now, node as u32);
                self.nodes[node].hot.dark = true;
                label!("fault:fw-dark")
            }
        };
        self.trace
            .record(now, node as u32, TraceCategory::Firmware, fault, 0);
    }

    /// The firmware's main loop stamps the control block; the RAS system
    /// watches for it going stale. Ticks stop once all applications
    /// finish so runs still drain.
    fn on_ras_heartbeat(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: u32) {
        self.ppc_run(node as usize, FwHandler::Completion, now);
        let n = &mut self.nodes[node as usize];
        n.fw.ras_heartbeat();
        // Gated on the *node's* own apps (not the machine-wide count) so
        // the decision is shard-local and identical under any
        // partitioning.
        if n.hot.running_apps > 0 {
            if let Some(interval) = self.config.ras_heartbeat {
                let key = self.next_key(node);
                q.schedule_keyed(now + interval, key, Ev::RasHeartbeat { node });
            }
        }
    }
}

impl Model for Machine {
    type Event = Ev;

    fn dispatch_keyed(&mut self, now: SimTime, key: u64, event: Ev, q: &mut EventQueue<Ev>) {
        // Record the dispatching event's (time, key) so deferred send
        // intents can be globally ordered by the coordinator exactly as
        // the serial engine's inline fabric walks interleave.
        self.cur_key = key;
        self.cur_now = now;
        self.dispatch(now, event, q);
    }

    /// Digest lane = owning node, so a partitioned run's per-shard
    /// digests cover disjoint lanes and merge into the serial digest.
    fn lane(event: &Ev) -> u32 {
        event.owner()
    }

    fn dispatch(&mut self, now: SimTime, event: Ev, q: &mut EventQueue<Ev>) {
        // A node taken dark by an injected firmware fault serves nothing:
        // every event targeting it is discarded (except further fault
        // events). RAS isolates the node; the rest of the machine keeps
        // running — the paper's §4.3 goal of containing NIC faults.
        let owner = event.owner();
        if self.nodes[owner as usize].hot.dark && !matches!(event, Ev::FaultAt { .. }) {
            return;
        }
        match event {
            Ev::AppStart { node, pid } => {
                self.causal.set_cause(None);
                self.run_app(q, now, node as usize, pid, AppEvent::Started)
            }
            Ev::AppWake { node, pid } => self.on_app_wake(q, now, node as usize, pid),
            Ev::FwCmd { node, fw_proc } => self.on_fw_cmd(q, now, node as usize, fw_proc),
            Ev::TxDmaDone { node } => self.on_tx_dma_done(q, now, node as usize),
            Ev::NetHeader { node, inflight } => {
                let arrived = self.unbox_arrival(inflight);
                self.on_net_header(q, now, node as usize, arrived)
            }
            Ev::RxDepositDone {
                node,
                fw_proc,
                pending,
            } => self.on_rx_deposit_done(q, now, node as usize, fw_proc, pending),
            Ev::HostInterrupt { node } => self.on_host_interrupt(q, now, node as usize),
            Ev::GbnTimeout { node, peer } => self.on_gbn_timeout(q, now, node as usize, peer),
            Ev::RasHeartbeat { node } => self.on_ras_heartbeat(q, now, node),
            Ev::FaultAt { node, kind } => self.on_fault_at(now, node as usize, *kind),
        }
    }

    fn fingerprint(event: &Ev, digest: &mut EventDigest) {
        event.fingerprint(digest);
    }

    /// Model-internal state the event stream alone cannot see: the trace
    /// digest (covers every record, including fault annotations), the
    /// fault injector's decision digest, and per-node health/recovery
    /// counters. Two same-seed runs must agree on all of it.
    fn state_fingerprint(&self) -> u64 {
        let mut d = EventDigest::new();
        d.write_u64(self.trace.digest());
        d.write_u64(self.faults.digest());
        d.write_u64(self.faults.stats().total());
        for n in &self.nodes {
            d.write_u8(u8::from(n.hot.panicked));
            d.write_u8(u8::from(n.hot.dark));
            d.write_u64(n.gbn_retransmissions());
        }
        d.value()
    }
}
