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

use crate::app::{App, AppEvent, WaitRequest};
use crate::config::{ExhaustionPolicy, MachineConfig, NodeSpec};
use crate::node::{Node, ProcState, RxRecord, TxRecord, WaitState};
use crate::wire::{WireKind, WireMsg};
use xt3_firmware::control::{Effects, FwEffect, FwError, FwMode, ProcIdx};
use xt3_firmware::gbn::{GbnEvent, GbnSender};
use xt3_firmware::mailbox::{FwCommand, FwEvent};
use xt3_firmware::pending::PendingId;
use xt3_portals::header::{AtomicOp, PortalsHeader, PortalsOp};
use xt3_portals::library::{DeliverOutcome, IncomingAction, WireData};
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{
    AckReq, EqHandle, MatchBits, MdHandle, MeHandle, ProcessId, PtlError, PtlResult,
};
use xt3_seastar::dma::DmaList;
use xt3_seastar::ht::HtDir;
use xt3_seastar::ppc::FwHandler;
use xt3_sim::{
    label, CausalLog, CausalStage, Engine, EventDigest, EventQueue, FaultInjector, FaultStats,
    FwFaultKind, Label, Model, PacketFate, Partitioned, SimTime, Trace, TraceCategory, TraceId,
};

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
use xt3_telemetry::{
    Component, DmaSummary, LinkSummary, NodeReport, Telemetry, TelemetryReport, TelemetrySink,
};
use xt3_topology::coord::{Dims, NodeId, Port};
use xt3_topology::fabric::{Fabric, NetMessage};

/// PPC cost of feeding one additional scatter/gather chunk to a DMA
/// engine beyond the first (Linux paged buffers; §3.3). Catamount buffers
/// are one chunk and never pay it.
const FW_PER_CHUNK: SimTime = SimTime::from_ns(60);
/// Host-side cost of the small setup API calls (MD bind, ME attach, EQ
/// alloc): table manipulation in the kernel library.
const OP_SETUP_COST: SimTime = SimTime::from_ns(150);
/// API-entry cost for accelerated-mode calls (no trap; user-level library
/// prologue).
const ACCEL_ENTRY_COST: SimTime = SimTime::from_ns(40);
/// Go-back-n sender window.
const GBN_WINDOW: usize = 64;
/// Go-back-n retransmission timeout (sender side).
const GBN_TIMEOUT: SimTime = SimTime::from_us(200);
/// High bit marking a message's *sender-side* completion chain (the
/// `SendEnd` delivery). Kept distinct from the message's own trace id so
/// those records never splice into the receive-path spine; `fresh_tag`
/// packs the node id from bit 40 up and never reaches bit 63.
const SEND_CHAIN_BIT: u64 = 1 << 63;

/// A message in flight: the wire body plus when its last byte lands.
#[derive(Debug)]
pub struct InFlight {
    /// The message.
    pub msg: WireMsg,
    /// When the last byte reaches the destination NIC.
    pub complete_at: SimTime,
    /// The end-to-end 32-bit CRC will reject this payload (§2).
    pub corrupted: bool,
}

/// Simulation events.
#[derive(Debug)]
pub enum Ev {
    /// First activation of an app.
    AppStart {
        /// Node index.
        node: u32,
        /// Process id.
        pid: u32,
    },
    /// An app's wait is (possibly) satisfied.
    AppWake {
        /// Node index.
        node: u32,
        /// Process id.
        pid: u32,
    },
    /// Commands are waiting in a firmware mailbox.
    FwCmd {
        /// Node index.
        node: u32,
        /// Firmware-level process.
        fw_proc: u32,
    },
    /// The TX DMA engine finished the head-of-list transmit.
    TxDmaDone {
        /// Node index.
        node: u32,
    },
    /// A message header reached a node's NIC.
    NetHeader {
        /// Destination node index.
        node: u32,
        /// The message and its completion time. Boxed deliberately: one
        /// allocation per *message* keeps `Ev` small (16 B instead of
        /// ~176 B), and every queue slot, bucket entry, and slab
        /// `take()` copies an `Ev` on every *event*. Always `Some` in a
        /// queued event; dispatch `take`s it, which is what lets a
        /// partitioned shard send the emptied box home (see
        /// [`NetMode::Deferred`]) instead of freeing it.
        inflight: Box<Option<InFlight>>,
    },
    /// The RX DMA finished depositing a pending.
    RxDepositDone {
        /// Node index.
        node: u32,
        /// Firmware-level process.
        fw_proc: u32,
        /// The pending.
        pending: PendingId,
    },
    /// The host interrupt line fired.
    HostInterrupt {
        /// Node index.
        node: u32,
    },
    /// Periodic RAS heartbeat tick on a node's firmware.
    RasHeartbeat {
        /// Node index.
        node: u32,
    },
    /// Go-back-n retransmission timeout for one peer.
    GbnTimeout {
        /// Sending node index.
        node: u32,
        /// Destination node id.
        peer: u32,
    },
    /// A scheduled fault-plan firmware event fires on a node.
    FaultAt {
        /// Affected node index.
        node: u32,
        /// Stall or unrecoverable fault. Boxed like the header above:
        /// `Stall(SimTime)` is 16 bytes, and inline it would make this
        /// handful-per-campaign variant the one that sizes every queue
        /// entry (24-byte `Ev` instead of 16).
        kind: Box<FwFaultKind>,
    },
}

impl Ev {
    /// The node whose state this event mutates — its digest lane, and
    /// the shard that must dispatch it in a partitioned run.
    pub fn owner(&self) -> u32 {
        match self {
            Ev::AppStart { node, .. }
            | Ev::AppWake { node, .. }
            | Ev::FwCmd { node, .. }
            | Ev::TxDmaDone { node }
            | Ev::NetHeader { node, .. }
            | Ev::RxDepositDone { node, .. }
            | Ev::HostInterrupt { node }
            | Ev::RasHeartbeat { node }
            | Ev::GbnTimeout { node, .. }
            | Ev::FaultAt { node, .. } => *node,
        }
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

/// How the machine interacts with the fabric.
pub(crate) enum NetMode {
    /// Serial: sends walk the fabric inline during dispatch.
    Inline,
    /// One shard of a partitioned run: sends are buffered as intents in
    /// generation order; the coordinator replays them against the shared
    /// fabric at the next window boundary in exact serial order.
    Deferred {
        intents: Vec<SendIntent>,
        /// Emptied boxes of the headers this shard has dispatched. The
        /// coordinator's thread allocated them, so freeing them here
        /// would take the allocator's cross-thread path on every
        /// message; each instead rides home in the shard's next intent
        /// ([`SendIntent::spare`]) and carries a later delivery.
        #[allow(clippy::vec_box)] // the allocations are what is kept
        spares: Vec<Box<Option<InFlight>>>,
    },
}

/// One deferred fabric send. Carries everything [`apply_send`] needs to
/// reproduce the serial engine's fabric walk — including the dispatch
/// instant (`at`) and scheduling key (`cur_key`) of the event that
/// performed the send, which together order intents across shards
/// exactly as the serial engine's inline walks interleave.
pub struct SendIntent {
    /// Dispatch time of the sending event.
    pub(crate) at: SimTime,
    /// Scheduling key of the sending event.
    pub(crate) cur_key: u64,
    /// Pre-reserved scheduling key for the delivery (`Ev::NetHeader`).
    pub(crate) delivery_key: u64,
    /// When the header packet is presented to the source router.
    pub(crate) inject_at: SimTime,
    /// When the TX DMA stream finishes feeding the payload.
    pub(crate) dma_done: SimTime,
    /// The wire message.
    pub(crate) msg: WireMsg,
    /// Fault plan forced an end-to-end CRC rejection.
    pub(crate) forced_corrupt: bool,
    /// Fault plan reorder delay.
    pub(crate) extra_delay: SimTime,
    /// An emptied delivery box for [`apply_send`] to refill, when the
    /// sending shard had one to return (never in a serial run).
    pub(crate) spare: Option<Box<Option<InFlight>>>,
}

/// Walk one send through the fabric and produce its delivery event.
/// This is the single definition of the fabric interaction — the serial
/// engine calls it inline from [`Machine::inject`]; the parallel
/// coordinator calls it between windows with the shards' drained
/// intents in serial order. `telemetry` and `causal` are whichever
/// sinks own the fabric-side records in that mode.
pub(crate) fn apply_send(
    fabric: &mut Fabric,
    telemetry: &mut Telemetry,
    causal: &mut CausalLog,
    intent: SendIntent,
) -> (SimTime, u64, Ev) {
    let SendIntent {
        inject_at,
        dma_done,
        msg,
        forced_corrupt,
        extra_delay,
        delivery_key,
        spare,
        ..
    } = intent;
    let src = NodeId(msg.header.src.nid);
    let dst = NodeId(msg.header.dst.nid);
    let tag = msg.tag;
    let wire_bytes = msg.wire_bytes();
    causal.record_chain(TraceId(tag), CausalStage::TxInject, inject_at, src.0, 0);
    let d = fabric.send_full(
        inject_at, // the header packet leaves as soon as it is fetched
        NetMessage {
            src,
            dst,
            payload_bytes: wire_bytes,
            tag,
            body: msg,
        },
        telemetry,
        causal,
    );
    let head_latency = d.header_at.saturating_sub(inject_at);
    let complete_at = d.complete_at.max(dma_done + head_latency) + extra_delay;
    let inflight = Some(InFlight {
        msg: d.msg.body,
        complete_at,
        corrupted: d.corrupted || forced_corrupt,
    });
    let inflight = match spare {
        Some(mut spare) => {
            *spare = inflight;
            spare
        }
        None => Box::new(inflight),
    };
    (
        d.header_at + extra_delay,
        delivery_key,
        Ev::NetHeader {
            node: dst.0,
            inflight,
        },
    )
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
    /// Serial inline fabric walks, or deferred send intents (one shard
    /// of a partitioned run).
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
        let nodes = Nodes {
            base: 0,
            inner: (0..config.dims.node_count())
                .map(|i| Node::new(&config, NodeId(i), &specs[i as usize % specs.len()]))
                .collect(),
        };
        let trace = if config.trace {
            Trace::enabled(1 << 20)
        } else {
            Trace::disabled()
        };
        let faults = FaultInjector::new(config.faults.clone());
        let telemetry = if config.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        Machine {
            config,
            nodes,
            fabric,
            trace,
            faults,
            telemetry,
            causal: CausalLog::disabled(),
            spawned: Vec::new(),
            scratch_events: Vec::new(),
            net: NetMode::Inline,
            cur_key: 0,
            cur_now: SimTime::ZERO,
        }
    }

    /// Install an app on `(node, pid)`; it activates at time zero.
    pub fn spawn(&mut self, node: u32, pid: u32, app: Box<dyn App>) {
        let n = &mut self.nodes[node as usize];
        let slot = &mut n.procs[pid as usize].app;
        assert!(slot.is_none(), "process {node}:{pid} already has an app");
        *slot = Some(app);
        n.running_apps += 1;
        self.spawned.push((node, pid));
    }

    /// Number of apps still running (on this machine's owned nodes).
    pub fn running_apps(&self) -> u32 {
        self.nodes.iter().map(|n| n.running_apps).sum()
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
        n.key_ctr += 1;
        (u64::from(node) << 32) | n.key_ctr
    }

    /// Did any node panic on resource exhaustion?
    pub fn any_panicked(&self) -> bool {
        self.nodes.iter().any(|n| n.panicked)
    }

    /// Nodes whose firmware took an injected unrecoverable fault.
    pub fn dark_nodes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| n.dark)
            .map(|n| n.id.0)
            .collect()
    }

    /// Counters of every fault the plan has injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Streaming digest over the injected-fault stream (folded into
    /// [`Model::state_fingerprint`]).
    pub fn fault_digest(&self) -> u64 {
        self.faults.digest()
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

    /// Harvest the cross-layer telemetry summary: per-node host/PPC/DMA
    /// busy time, the cause-split interrupt counters behind the §6
    /// interrupts-per-message metric, mailbox and SRAM-pool high-water
    /// marks, Portals EQ depth peaks, and per-hop link accounting. A pure
    /// read of hardware-model counters — available whether or not the
    /// span-recording sink was enabled.
    pub fn telemetry_report(&self, label: &str, elapsed: SimTime) -> TelemetryReport {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let fwc = n.fw.counters();
            let mailbox_cmd_high_water = (0..n.fw.process_count())
                .map(|p| n.fw.mailbox(p).map_or(0, |m| m.cmd_high_water()))
                .max()
                .unwrap_or(0);
            let rx_pool_high_water = (0..n.fw.process_count())
                .map(|p| n.fw.rx_pool_stats(p).1)
                .max()
                .unwrap_or(0);
            let eq_high_water = n
                .procs
                .iter()
                .map(|p| p.lib.max_eq_high_water())
                .max()
                .unwrap_or(0);
            let mut links = Vec::new();
            for port in Port::NETWORK_PORTS {
                let l = self.fabric.link(n.id, port);
                if l.packets_carried() == 0 {
                    continue;
                }
                let idx = port.index() as u8;
                links.push(LinkSummary {
                    port: idx,
                    name: Component::Link(idx).track_name(),
                    packets: l.packets_carried(),
                    retries: l.retries(),
                    busy: l.busy_total(),
                    stall: l.stall_total(),
                    utilization: l.utilization(elapsed),
                });
            }
            nodes.push(NodeReport {
                node: n.id.0,
                host_busy: n.host.busy_total(),
                host_interrupts: n.host.counters.interrupts,
                host_traps: n.host.counters.traps,
                ppc_busy: n.chip.ppc.busy_total(),
                tx_dma: DmaSummary {
                    transfers: n.chip.tx_dma.transfers(),
                    bytes: n.chip.tx_dma.bytes(),
                    busy: n.chip.tx_dma.busy_total(),
                },
                rx_dma: DmaSummary {
                    transfers: n.chip.rx_dma.transfers(),
                    bytes: n.chip.rx_dma.bytes(),
                    busy: n.chip.rx_dma.busy_total(),
                },
                rx_headers: fwc.rx_headers,
                rx_piggybacked: fwc.rx_piggybacked,
                rx_header_interrupts: fwc.rx_header_interrupts,
                rx_complete_interrupts: fwc.rx_complete_interrupts,
                tx_interrupts: fwc.tx_interrupts,
                mailbox_cmd_high_water,
                rx_pool_high_water,
                rx_pool_capacity: n.fw.config().rx_pendings,
                eq_high_water,
                links,
            });
        }
        TelemetryReport {
            label: label.to_string(),
            elapsed,
            nodes,
        }
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

    // ================= event handlers =================

    fn on_fw_cmd(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize, fw_proc: ProcIdx) {
        while let Some(cmd) = self.nodes[node]
            .fw
            .mailbox_mut(fw_proc)
            .ok()
            .and_then(|m| m.take_cmd())
        {
            let cm = self.config.cost;
            let t = match &cmd {
                FwCommand::Transmit { pending, .. } => {
                    // Reply transmits take the firmware fast path: the
                    // header is synthesized from the command itself.
                    let is_reply = self.nodes[node]
                        .tx_store
                        .get(&(fw_proc, *pending))
                        .map(|r| r.header.op == PortalsOp::Reply)
                        .unwrap_or(false);
                    if is_reply {
                        self.nodes[node].chip.ppc.occupy_raw_via(
                            now,
                            cm.fw_reply_tx,
                            "fw-reply-tx",
                            node as u32,
                            &mut self.telemetry,
                        )
                    } else {
                        self.nodes[node].chip.ppc.run_via(
                            &cm,
                            FwHandler::TxCommand,
                            now,
                            node as u32,
                            &mut self.telemetry,
                        )
                    }
                }
                FwCommand::RecvDeposit { .. } => self.nodes[node].chip.ppc.run_via(
                    &cm,
                    FwHandler::RxCommand,
                    now,
                    node as u32,
                    &mut self.telemetry,
                ),
                FwCommand::RecvDiscard { .. } | FwCommand::ReleasePending { .. } => {
                    self.nodes[node].chip.ppc.run_via(
                        &cm,
                        FwHandler::Completion,
                        now,
                        node as u32,
                        &mut self.telemetry,
                    )
                }
            };
            let effects = match self.nodes[node].fw.handle_command(fw_proc, cmd) {
                Ok(e) => e,
                Err(err) => self.fw_fault(t, node, err),
            };
            self.exec_effects(q, t, node, effects);
        }
    }

    fn on_tx_dma_done(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize) {
        let tele = &mut self.telemetry;
        let n = &mut self.nodes[node];
        let cm = n.chip.cost;
        let t = n
            .chip
            .ppc
            .run_via(&cm, FwHandler::Completion, now, node as u32, tele);
        let effects = match n.fw.tx_dma_complete() {
            Ok(e) => e,
            Err(err) => self.fw_fault(t, node, err),
        };
        self.exec_effects(q, t, node, effects);
    }

    fn on_rx_deposit_done(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let t = self.nodes[node].chip.ppc.run_via(
            &cm,
            FwHandler::Completion,
            now,
            node as u32,
            &mut self.telemetry,
        );
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Dma,
            label!("rx-deposit-done"),
            0,
        );
        let dep_tag = self.nodes[node]
            .rx_store
            .get(&(fw_proc, pending))
            .map(|r| r.tag);
        if let Some(tag) = dep_tag {
            self.causal
                .record_chain(TraceId(tag), CausalStage::DepositDone, t, node as u32, 0);
        }
        let effects = match self.nodes[node].fw.rx_dma_complete(fw_proc, pending) {
            Ok(e) => e,
            Err(err) => self.fw_fault(t, node, err),
        };

        // Firmware-direct replies complete inline: deposit happened via
        // DMA; post ReplyEnd straight into the app-visible EQ.
        let is_direct_reply = self.nodes[node]
            .rx_store
            .get(&(fw_proc, pending))
            .map(|r| r.header.op == PortalsOp::Reply)
            .unwrap_or(false);
        if is_direct_reply {
            let rec = self.nodes[node]
                .rx_store
                .remove(&(fw_proc, pending))
                .expect("record");
            let pid = rec.dst_pid as usize;
            let before = self.events_posted_before(node, rec.dst_pid);
            {
                let n = &mut self.nodes[node];
                let proc = &mut n.procs[pid];
                proc.lib
                    .complete_reply(&rec.header, &rec.data, proc.mem.as_mut_memory());
                if let Some(md) = rec.header.initiator_md {
                    n.await_reply.remove(&(rec.dst_pid, md));
                }
                n.fw.release_direct(fw_proc, pending);
            }
            let visible = t + cm.ht_write_latency;
            self.causal_eq_post(node, rec.dst_pid, TraceId(rec.tag), visible, before);
            self.maybe_wake(q, visible, node, pid as u32);
        }

        self.exec_effects(q, t, node, effects);
    }

    /// A firmware handler reported a protocol fault (bad pending id,
    /// spurious completion, ...). On the real XT3 the firmware panics the
    /// node and RAS reboots it (§4.3); the model isolates the node instead
    /// so the run finishes and `any_panicked()` reports the failure.
    /// The label is per-variant so the fault cause stays visible in the
    /// trace without a per-fault `format!`.
    fn fw_fault(&mut self, t: SimTime, node: usize, err: FwError) -> Effects {
        self.nodes[node].panicked = true;
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Firmware,
            fw_error_label(err),
            0,
        );
        Effects::new()
    }

    fn exec_effects(&mut self, q: &mut EventQueue<Ev>, t: SimTime, node: usize, effects: Effects) {
        let cm = self.config.cost;
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
                    // times below.
                }
                FwEffect::PostEvent { proc, event } => {
                    if self.nodes[node].fw.mode(proc) == FwMode::Accelerated {
                        self.accel_event(q, t, node, proc, event);
                    } else {
                        self.nodes[node].fw_eq[proc as usize].push_back(event);
                        let depth = self.nodes[node].fw_eq[proc as usize].len() as u64;
                        self.telemetry.gauge(node as u32, "fw.eq_depth", depth);
                    }
                }
                FwEffect::RaiseInterrupt => {
                    self.trace.record(
                        t,
                        node as u32,
                        TraceCategory::Firmware,
                        label!("int-raise"),
                        0,
                    );
                    // Every raise costs the host a full handler entry/exit
                    // (§3.3: interrupts are "very costly, requiring at
                    // least 2 us of overhead each"); a handler invocation
                    // still drains every event queued by then (§4.1's
                    // coalescing), so a busy host processes events early
                    // but pays for every line assertion.
                    self.nodes[node].chip.raise_interrupt();
                    let mut deliver = t + cm.ht_write_latency;
                    if self.faults.active() {
                        // Fault plan: interrupt-delay spike (host masking
                        // interrupts through a long critical section).
                        let extra = self.faults.interrupt_extra(t, node as u32);
                        if extra > SimTime::ZERO {
                            self.trace.record(
                                t,
                                node as u32,
                                TraceCategory::Host,
                                label!("fault:int-delay"),
                                0,
                            );
                            deliver += extra;
                        }
                    }
                    let key = self.next_key(node as u32);
                    q.schedule_keyed(deliver, key, Ev::HostInterrupt { node: node as u32 });
                }
                FwEffect::MatchOnNic { proc, pending } => {
                    self.nic_match(q, t, node, proc, pending);
                }
            }
        }
    }

    fn start_tx_dma(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let tele = &mut self.telemetry;
        let n = &mut self.nodes[node];
        let chunks = n.fw.lower(proc, pending).map_or(1, |l| l.dma.len().max(1)) as u64;
        let extra = FW_PER_CHUNK.times(chunks - 1);
        let is_reply = n
            .tx_store
            .get(&(proc, pending))
            .map(|r| r.header.op == PortalsOp::Reply)
            .unwrap_or(false);
        // The header is DMA'ed out of the upper pending first (§4.3): a
        // high-latency HT read round trip. Replies skip both the fetch and
        // the separate DMA-setup charge — their header was synthesized on
        // the NIC from the serve command (fw_reply_tx covered it).
        let setup_done = if is_reply {
            n.chip
                .ppc
                .occupy_raw_via(t, extra, "fw-reply-tx-setup", node as u32, tele)
        } else {
            n.chip
                .ppc
                .run_with_extra_via(&cm, FwHandler::TxDmaSetup, t, extra, node as u32, tele)
        };
        let fetch_done = if is_reply {
            setup_done
        } else {
            setup_done + cm.ht_read_latency
        };

        let rec = n.tx_store.get_mut(&(proc, pending)).expect("tx record");
        let len = rec.data.len();
        let data = std::mem::replace(&mut rec.data, WireData::Synthetic(len));
        let tag = rec.tag;
        let header = rec.header.clone();
        let piggy = len <= cm.piggyback_max as u64;

        // Payload is DMA'ed directly from host memory ("zero-copy",
        // §4.3); piggybacked payloads ride in the header write instead.
        let dma_done = if piggy {
            fetch_done
        } else {
            n.chip.ht.bulk(&cm, HtDir::Read, fetch_done, len).1
        };
        n.chip.tx_dma.occupy_via(
            fetch_done,
            dma_done.saturating_sub(fetch_done),
            len,
            chunks,
            node as u32,
            tele,
        );
        let key = self.next_key(node as u32);
        q.schedule_keyed(dma_done, key, Ev::TxDmaDone { node: node as u32 });

        let mut msg = WireMsg {
            header,
            data,
            kind: WireKind::Data,
            seq: None,
            tag,
        };

        // Go-back-n sequencing on the way out.
        if self.config.exhaustion == ExhaustionPolicy::GoBackN {
            let dst = msg.header.dst.nid;
            let sender = self.nodes[node]
                .gbn_tx
                .entry(dst)
                .or_insert_with(|| GbnSender::new(GBN_WINDOW));
            match sender.send(msg.clone()) {
                Some(seq) => {
                    msg.seq = Some(seq);
                    self.arm_gbn_timer(q, fetch_done, node, dst);
                }
                None => {
                    self.nodes[node]
                        .gbn_deferred
                        .entry(dst)
                        .or_default()
                        .push_back(msg);
                    return;
                }
            }
        }

        self.trace.record(
            fetch_done,
            node as u32,
            TraceCategory::Dma,
            label!("tx-inject"),
            tag,
        );
        self.inject(q, fetch_done, dma_done, msg);
    }

    /// Put a message on the wire at `inject_at`; delivery is throttled by
    /// the slower of the fabric and the TX DMA stream (`dma_done`).
    fn inject(
        &mut self,
        q: &mut EventQueue<Ev>,
        inject_at: SimTime,
        dma_done: SimTime,
        msg: WireMsg,
    ) {
        let src = NodeId(msg.header.src.nid);
        let dst = NodeId(msg.header.dst.nid);
        let tag = msg.tag;

        // Reserve the delivery's scheduling key up front, from the
        // *source* node's counter (every inject call site runs while
        // dispatching an event the source owns; the destination may live
        // on another shard). Unconditional — even a dropped message
        // consumes its key — so counters advance identically whether or
        // not the fault plan interferes, and identically in serial and
        // partitioned runs.
        let delivery_key = self.next_key(src.0);

        // Fault plan: decide this message's wire fate before it touches
        // the fabric (loopback never reaches the wire).
        let mut forced_corrupt = false;
        let mut extra_delay = SimTime::ZERO;
        if self.faults.active() && src != dst {
            match self.faults.packet_fate(inject_at, src.0, dst.0, tag) {
                PacketFate::Deliver => {}
                PacketFate::Drop => {
                    self.trace.record(
                        inject_at,
                        src.0,
                        TraceCategory::Network,
                        label!("fault:drop"),
                        tag,
                    );
                    return;
                }
                PacketFate::Corrupt => {
                    if matches!(msg.kind, WireKind::Data) {
                        // Escaped the link CRC; the receiver's end-to-end
                        // 32-bit check will reject the deposit (§2).
                        forced_corrupt = true;
                        self.trace.record(
                            inject_at,
                            src.0,
                            TraceCategory::Network,
                            label!("fault:corrupt"),
                            tag,
                        );
                    } else {
                        // A corrupted ACK/NACK fails its CRC at the link
                        // and is discarded — equivalent to a drop.
                        self.trace.record(
                            inject_at,
                            src.0,
                            TraceCategory::Network,
                            label!("fault:corrupt-ctl-drop"),
                            tag,
                        );
                        return;
                    }
                }
                PacketFate::Delay(d) => {
                    extra_delay = d;
                    self.trace.record(
                        inject_at,
                        src.0,
                        TraceCategory::Network,
                        label!("fault:reorder"),
                        tag,
                    );
                }
            }
        }

        // The causal TxInject record lives in `apply_send` (rather than
        // `start_tx_dma`) so go-back-n deferrals and retransmissions
        // stamp the *actual* inject time.
        let mut intent = SendIntent {
            at: self.cur_now,
            cur_key: self.cur_key,
            delivery_key,
            inject_at,
            dma_done,
            msg,
            forced_corrupt,
            extra_delay,
            spare: None,
        };
        match &mut self.net {
            NetMode::Inline => {
                let (at, key, ev) = apply_send(
                    &mut self.fabric,
                    &mut self.telemetry,
                    &mut self.causal,
                    intent,
                );
                q.schedule_keyed(at, key, ev);
            }
            NetMode::Deferred { intents, spares } => {
                intent.spare = spares.pop();
                intents.push(intent);
            }
        }
    }

    fn start_rx_dma(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let tele = &mut self.telemetry;
        let n = &mut self.nodes[node];
        let lower =
            n.fw.lower(proc, pending)
                .expect("pending named by firmware effect");
        let len = lower.length;
        let chunks = lower.dma.len().max(1) as u64;
        let wire_complete = n
            .rx_store
            .get(&(proc, pending))
            .map(|r| r.wire_complete)
            .unwrap_or(t);
        let extra = FW_PER_CHUNK.times(chunks - 1);
        let setup_done =
            n.chip
                .ppc
                .run_with_extra_via(&cm, FwHandler::TxDmaSetup, t, extra, node as u32, tele);
        // The engine serializes deposits; HT bandwidth and wire arrival
        // both bound completion.
        let (_, ht_done) = n.chip.ht.bulk(&cm, HtDir::Write, setup_done, len);
        let ht_duration = ht_done.saturating_sub(setup_done);
        let (_, engine_done) =
            n.chip
                .rx_dma
                .occupy_via(setup_done, ht_duration, len, chunks, node as u32, tele);
        let done = engine_done.max(ht_done).max(wire_complete) + cm.ht_write_latency;
        let key = self.next_key(node as u32);
        q.schedule_keyed(
            done,
            key,
            Ev::RxDepositDone {
                node: node as u32,
                fw_proc: proc,
                pending,
            },
        );
    }

    fn on_net_header(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        inflight: InFlight,
    ) {
        let cm = self.config.cost;
        let msg = inflight.msg;
        let from_node = msg.header.src.nid;

        match msg.kind {
            WireKind::GbnNack { expected } => {
                let t = self.nodes[node].chip.ppc.run_via(
                    &cm,
                    FwHandler::RxHeader,
                    now,
                    node as u32,
                    &mut self.telemetry,
                );
                let (resend, in_flight) = self.nodes[node]
                    .gbn_tx
                    .get_mut(&from_node)
                    .map(|s| (s.nack(expected), s.in_flight()))
                    .unwrap_or_default();
                if resend.is_empty()
                    && in_flight > 0
                    && self.nodes[node].gbn_timer_armed.insert(from_node)
                {
                    // Suppressed duplicate: arm the retransmission timer
                    // (one per peer) so a dropped retransmission is
                    // eventually repaired.
                    let key = self.next_key(node as u32);
                    q.schedule_keyed(
                        t + GBN_TIMEOUT,
                        key,
                        Ev::GbnTimeout {
                            node: node as u32,
                            peer: from_node,
                        },
                    );
                }
                for (seq, mut m) in resend {
                    m.seq = Some(seq);
                    self.inject(q, t, t, m);
                }
                // Under an active fault plan the retransmission itself can
                // be lost; keep a timer armed while anything is in flight.
                self.arm_gbn_timer(q, t, node, from_node);
                return;
            }
            WireKind::GbnAck { upto } => {
                let t = self.nodes[node].chip.ppc.run_via(
                    &cm,
                    FwHandler::Completion,
                    now,
                    node as u32,
                    &mut self.telemetry,
                );
                if let Some(s) = self.nodes[node].gbn_tx.get_mut(&from_node) {
                    s.ack(upto);
                }
                self.drain_gbn_deferred(q, t, node, from_node);
                return;
            }
            WireKind::Data => {}
        }

        self.causal.record_chain(
            TraceId(msg.tag),
            CausalStage::NetArrive,
            now,
            node as u32,
            0,
        );

        // End-to-end CRC (§2): a payload that escaped the link CRC is
        // rejected by the RX DMA's 32-bit check. Under go-back-n the drop
        // turns into a NACK (the window copy is clean); under the panic
        // policy the message is simply lost and counted.
        if inflight.corrupted && matches!(msg.kind, WireKind::Data) {
            self.nodes[node].chip.rx_dma.record_crc_failure();
            let t = self.nodes[node].chip.ppc.run_via(
                &cm,
                FwHandler::RxHeader,
                now,
                node as u32,
                &mut self.telemetry,
            );
            if let Some(seq) = msg.seq {
                let rx = self.nodes[node].gbn_rx.entry(from_node).or_default();
                let ev = rx.on_arrival(seq, false);
                let upto = rx.expected();
                match ev {
                    GbnEvent::Nack { expected } => {
                        self.send_gbn_control(
                            q,
                            t,
                            node,
                            from_node,
                            WireKind::GbnNack { expected },
                        );
                    }
                    GbnEvent::Duplicate if self.faults.active() => {
                        // Corrupted duplicate: re-ack so the sender can
                        // advance even if the original ACK was lost.
                        self.send_gbn_control(q, t, node, from_node, WireKind::GbnAck { upto });
                    }
                    _ => {}
                }
            }
            self.trace.record(
                t,
                node as u32,
                TraceCategory::Dma,
                label!("e2e-crc-reject"),
                msg.tag,
            );
            return;
        }

        // Go-back-n sequencing check (order first, then allocation).
        if let Some(seq) = msg.seq {
            let rx = self.nodes[node].gbn_rx.entry(from_node).or_default();
            if seq != rx.expected() {
                let ev = rx.on_arrival(seq, true);
                let upto = rx.expected();
                match ev {
                    GbnEvent::Nack { expected } => {
                        self.send_gbn_control(
                            q,
                            now,
                            node,
                            from_node,
                            WireKind::GbnNack { expected },
                        );
                    }
                    GbnEvent::Duplicate => {
                        if self.faults.active() {
                            // Re-ack: a retransmitted message whose ACK
                            // was dropped would otherwise stall the
                            // sender until its timeout.
                            self.send_gbn_control(
                                q,
                                now,
                                node,
                                from_node,
                                WireKind::GbnAck { upto },
                            );
                        }
                    }
                    GbnEvent::Accept { .. } => unreachable!("mismatched seq cannot accept"),
                }
                return;
            }
        }

        let dst_pid = msg.header.dst.pid;
        let fw_proc = self.nodes[node].procs[dst_pid as usize].fw_proc;
        let direct = matches!(msg.header.op, PortalsOp::Reply | PortalsOp::Ack);
        let piggy = msg.piggybacked(cm.piggyback_max);

        let t = if direct {
            self.nodes[node].chip.ppc.occupy_raw_via(
                now,
                cm.fw_reply_rx,
                "fw-reply-rx",
                node as u32,
                &mut self.telemetry,
            )
        } else {
            self.nodes[node].chip.ppc.run_via(
                &cm,
                FwHandler::RxHeader,
                now,
                node as u32,
                &mut self.telemetry,
            )
        };
        // Fault plan: an SRAM pool-exhaustion pulse forces the header to
        // be rejected exactly as if `rx_pendings` had run dry, driving
        // the configured exhaustion policy.
        let squeezed = self.faults.active() && self.faults.sram_exhausted(t, node as u32);
        let result = if squeezed {
            self.nodes[node].fw.note_injected_exhaustion();
            self.trace.record(
                t,
                node as u32,
                TraceCategory::Firmware,
                label!("fault:sram-squeeze"),
                msg.tag,
            );
            Err(FwError::NoRxPending)
        } else {
            self.nodes[node]
                .fw
                .rx_header(fw_proc, from_node, piggy, direct)
        };

        // Resolve go-back-n acceptance against allocation success.
        if let Some(seq) = msg.seq {
            let ok = result.is_ok();
            let rx = self.nodes[node]
                .gbn_rx
                .get_mut(&from_node)
                .expect("entry above");
            match rx.on_arrival(seq, ok) {
                GbnEvent::Accept { .. } => {
                    let upto = rx.expected();
                    self.send_gbn_control(q, t, node, from_node, WireKind::GbnAck { upto });
                }
                GbnEvent::Nack { expected } => {
                    self.send_gbn_control(q, t, node, from_node, WireKind::GbnNack { expected });
                    return;
                }
                GbnEvent::Duplicate => return,
            }
        }

        let (pending, effects) = match result {
            Ok(pe) => pe,
            Err(_) => {
                if self.config.exhaustion == ExhaustionPolicy::Panic && msg.seq.is_none() {
                    // §4.3: "The current approach is to panic the node."
                    self.nodes[node].panicked = true;
                    self.trace.record(
                        t,
                        node as u32,
                        TraceCategory::Firmware,
                        label!("panic-exhaustion"),
                        msg.tag,
                    );
                }
                return;
            }
        };

        self.trace.record(
            t,
            node as u32,
            TraceCategory::Firmware,
            label!("rx-header"),
            msg.tag,
        );
        self.causal
            .record_chain(TraceId(msg.tag), CausalStage::FwRxDone, t, node as u32, 0);
        self.nodes[node].rx_store.insert(
            (fw_proc, pending),
            RxRecord {
                header: msg.header.clone(),
                data: msg.data,
                wire_complete: inflight.complete_at,
                dst_pid,
                piggyback: piggy,
                ticket: None,
                tag: msg.tag,
            },
        );
        self.exec_effects(q, t, node, effects);

        if direct {
            self.handle_direct(q, t, node, fw_proc, pending);
        }
    }

    /// Firmware-direct Reply/Ack processing at header time.
    fn handle_direct(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let (op, piggy, dst_pid) = {
            let rec = &self.nodes[node].rx_store[&(fw_proc, pending)];
            (rec.header.op, rec.piggyback, rec.dst_pid)
        };
        match op {
            PortalsOp::Ack => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rec");
                let before = self.events_posted_before(node, dst_pid);
                let t2 = {
                    let tele = &mut self.telemetry;
                    let n = &mut self.nodes[node];
                    let t2 = n
                        .chip
                        .ppc
                        .run_via(&cm, FwHandler::Completion, t, node as u32, tele);
                    n.procs[dst_pid as usize].lib.deliver_ack(&rec.header);
                    n.fw.release_direct(fw_proc, pending);
                    t2
                };
                let visible = t2 + cm.ht_write_latency;
                self.causal_eq_post(node, dst_pid, TraceId(rec.tag), visible, before);
                self.maybe_wake(q, visible, node, dst_pid);
            }
            PortalsOp::Reply if piggy => {
                // Payload arrived with the header: deposit and complete
                // without any DMA program.
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rec");
                let before = self.events_posted_before(node, dst_pid);
                let t2 = {
                    let tele = &mut self.telemetry;
                    let n = &mut self.nodes[node];
                    let t2 = n.chip.ppc.occupy_raw_via(
                        t,
                        cm.fw_reply_rx,
                        "fw-reply-rx",
                        node as u32,
                        tele,
                    );
                    let proc = &mut n.procs[dst_pid as usize];
                    proc.lib
                        .complete_reply(&rec.header, &rec.data, proc.mem.as_mut_memory());
                    if let Some(md) = rec.header.initiator_md {
                        n.await_reply.remove(&(dst_pid, md));
                    }
                    n.fw.release_direct(fw_proc, pending);
                    t2
                };
                let visible = t2 + cm.ht_write_latency;
                self.causal_eq_post(node, dst_pid, TraceId(rec.tag), visible, before);
                self.maybe_wake(q, visible, node, dst_pid);
            }
            PortalsOp::Reply => {
                // Bulk reply: the get command pushed the deposit buffer
                // down; program the RX DMA directly.
                let (len, dma) = {
                    let rec = &self.nodes[node].rx_store[&(fw_proc, pending)];
                    let md = rec.header.initiator_md.expect("reply names its md");
                    let dma = self.nodes[node]
                        .await_reply
                        .get(&(dst_pid, md))
                        .cloned()
                        .unwrap_or_default();
                    (rec.header.mlength, dma)
                };
                let effects = match self.nodes[node]
                    .fw
                    .direct_deposit(fw_proc, pending, len, dma)
                {
                    Ok(e) => e,
                    Err(err) => self.fw_fault(t, node, err),
                };
                self.exec_effects(q, t, node, effects);
            }
            _ => unreachable!("direct path only handles Reply/Ack"),
        }
    }

    fn send_gbn_control(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        to_node: u32,
        kind: WireKind,
    ) {
        let my = self.nodes[node].id.0;
        let header = PortalsHeader::put(
            ProcessId::new(my, 0),
            ProcessId::new(to_node, 0),
            0,
            0,
            0,
            0,
            0,
            AckReq::NoAck,
            0,
            MdHandle {
                index: 0,
                generation: 0,
            },
        );
        let msg = WireMsg {
            header,
            data: WireData::Synthetic(0),
            kind,
            seq: None,
            tag: 0,
        };
        self.inject(q, t, t, msg);
    }

    fn drain_gbn_deferred(&mut self, q: &mut EventQueue<Ev>, t: SimTime, node: usize, dst: u32) {
        while let Some(mut msg) = self.nodes[node]
            .gbn_deferred
            .get_mut(&dst)
            .and_then(|d| d.pop_front())
        {
            let sender = self.nodes[node]
                .gbn_tx
                .get_mut(&dst)
                .expect("sender exists when deferred");
            match sender.send(msg.clone()) {
                Some(seq) => {
                    msg.seq = Some(seq);
                    self.inject(q, t, t, msg);
                    self.arm_gbn_timer(q, t, node, dst);
                }
                None => {
                    self.nodes[node]
                        .gbn_deferred
                        .get_mut(&dst)
                        .expect("entry")
                        .push_front(msg);
                    break;
                }
            }
        }
    }

    /// Arm the per-peer retransmission timer if the fault plan is active
    /// and something is in flight. Without injected faults the only loss
    /// mode is resource exhaustion, which always produces a NACK, so the
    /// baseline keeps its narrower timer policy (and its exact event
    /// schedule); under injected loss an ACK/NACK can vanish outright and
    /// only a timer recovers.
    fn arm_gbn_timer(&mut self, q: &mut EventQueue<Ev>, t: SimTime, node: usize, peer: u32) {
        if !self.faults.active() {
            return;
        }
        let in_flight = self.nodes[node]
            .gbn_tx
            .get(&peer)
            .map_or(0, |s| s.in_flight());
        if in_flight > 0 && self.nodes[node].gbn_timer_armed.insert(peer) {
            let key = self.next_key(node as u32);
            q.schedule_keyed(
                t + GBN_TIMEOUT,
                key,
                Ev::GbnTimeout {
                    node: node as u32,
                    peer,
                },
            );
        }
    }

    /// A fault-plan firmware event fires on `node`.
    fn on_fault_at(&mut self, now: SimTime, node: usize, kind: FwFaultKind) {
        match kind {
            FwFaultKind::Stall(duration) => {
                self.faults.note_fw_stall(now, node as u32, duration);
                self.trace.record(
                    now,
                    node as u32,
                    TraceCategory::Firmware,
                    label!("fault:fw-stall"),
                    0,
                );
                self.nodes[node].chip.ppc.stall(now, duration);
            }
            FwFaultKind::Fault => {
                self.faults.note_fw_fault(now, node as u32);
                self.trace.record(
                    now,
                    node as u32,
                    TraceCategory::Firmware,
                    label!("fault:fw-dark"),
                    0,
                );
                self.nodes[node].dark = true;
            }
        }
    }

    // ----- interrupt path (generic mode) -----

    fn on_host_interrupt(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize) {
        let cm = self.config.cost;
        let mut t =
            self.nodes[node]
                .host
                .interrupt_span(&cm, now, node as u32, &mut self.telemetry);
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Host,
            label!("int-handler-done"),
            0,
        );

        // §4.1: the handler processes ALL new events each invocation. The
        // drain buffer is reused across interrupts (taken, not borrowed,
        // because `process_fw_event` needs `&mut self`).
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        for (fw_proc, eq) in self.nodes[node].fw_eq.iter_mut().enumerate() {
            while let Some(ev) = eq.pop_front() {
                events.push((fw_proc as ProcIdx, ev));
            }
        }
        for &(fw_proc, ev) in &events {
            t = self.process_fw_event(q, t, node, fw_proc, ev);
        }
        self.scratch_events = events;
    }

    fn process_fw_event(
        &mut self,
        q: &mut EventQueue<Ev>,
        mut t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        event: FwEvent,
    ) -> SimTime {
        let cm = self.config.cost;
        match event {
            FwEvent::TxComplete { pending } => {
                let rec = self.nodes[node]
                    .tx_store
                    .remove(&(fw_proc, pending))
                    .expect("tx rec");
                self.nodes[node].free_tx_pending(fw_proc, pending);
                if let Some(md) = rec.md {
                    let before = self.events_posted_before(node, rec.src_pid);
                    t = self.nodes[node].host.run_span(
                        t,
                        cm.host_event_post,
                        "event-post",
                        node as u32,
                        &mut self.telemetry,
                    );
                    self.nodes[node].procs[rec.src_pid as usize]
                        .lib
                        .on_send_complete(md, rec.data.len());
                    self.causal_eq_post_send(node, rec.src_pid, rec.tag, t, before);
                    self.maybe_wake(q, t, node, rec.src_pid);
                }
                t
            }
            FwEvent::RxHeader { pending } => {
                let tag = self.nodes[node]
                    .rx_store
                    .get(&(fw_proc, pending))
                    .map_or(0, |r| r.tag);
                self.causal
                    .record_chain(TraceId(tag), CausalStage::IntDeliver, t, node as u32, 0);
                self.host_match(q, t, node, fw_proc, pending)
            }
            FwEvent::RxComplete { pending } => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rx rec");
                let int_idx = self.causal.record_chain(
                    TraceId(rec.tag),
                    CausalStage::IntDeliver,
                    t,
                    node as u32,
                    0,
                );
                let ticket = rec.ticket.as_ref().expect("deposit had a ticket");
                let before = self.events_posted_before(node, rec.dst_pid);
                t = self.nodes[node].host.run_span(
                    t,
                    cm.host_event_post,
                    "event-post",
                    node as u32,
                    &mut self.telemetry,
                );
                let action = {
                    let proc = &mut self.nodes[node].procs[rec.dst_pid as usize];
                    proc.lib
                        .complete_put(&rec.header, ticket, &rec.data, proc.mem.as_mut_memory())
                };
                self.trace.record(
                    t,
                    node as u32,
                    TraceCategory::Portals,
                    label!("put-end-posted"),
                    0,
                );
                t = self.post_cmd(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal.set_cause(int_idx);
                t = self.handle_incoming_action(q, t, node, fw_proc, rec.dst_pid, action, None);
                self.causal_eq_post(node, rec.dst_pid, TraceId(rec.tag), t, before);
                self.maybe_wake(q, t, node, rec.dst_pid);
                t
            }
        }
    }

    /// Host-side Portals matching for one header (generic mode, interrupt
    /// context).
    fn host_match(
        &mut self,
        q: &mut EventQueue<Ev>,
        mut t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) -> SimTime {
        let cm = self.config.cost;
        t = self.nodes[node].host.run_span(
            t,
            cm.host_match,
            "match",
            node as u32,
            &mut self.telemetry,
        );
        self.nodes[node].host.counters.matches += 1;
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Portals,
            label!("host-match"),
            0,
        );

        let (header, dst_pid, piggy, tag) = {
            let rec = &self.nodes[node].rx_store[&(fw_proc, pending)];
            (rec.header.clone(), rec.dst_pid, rec.piggyback, rec.tag)
        };
        let match_idx =
            self.causal
                .record_chain(TraceId(tag), CausalStage::MatchDone, t, node as u32, 0);
        // Matching itself may post a start event (PutStart/GetStart);
        // attribute any such posts to the match record so the EQ-delivery
        // FIFO stays aligned with the queue.
        let before_match = self.events_posted_before(node, dst_pid);
        let outcome = self.nodes[node].procs[dst_pid as usize]
            .lib
            .match_incoming(&header);
        if let Some(mi) = match_idx {
            let after = self.events_posted_before(node, dst_pid);
            self.causal
                .push_eq_posts(node as u32, dst_pid, mi, after.saturating_sub(before_match));
        }

        let ticket = match outcome {
            DeliverOutcome::Matched(ticket) => ticket,
            _ => {
                self.nodes[node].rx_store.remove(&(fw_proc, pending));
                return self.post_cmd(q, t, node, fw_proc, FwCommand::RecvDiscard { pending });
            }
        };

        match header.op {
            PortalsOp::Put if piggy => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rec");
                let before = self.events_posted_before(node, dst_pid);
                let action = {
                    let proc = &mut self.nodes[node].procs[dst_pid as usize];
                    proc.lib
                        .complete_put(&rec.header, &ticket, &rec.data, proc.mem.as_mut_memory())
                };
                t = self.nodes[node].host.run_span(
                    t,
                    cm.host_event_post,
                    "event-post",
                    node as u32,
                    &mut self.telemetry,
                );
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                t = self.post_cmd(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal.set_cause(match_idx);
                t = self.handle_incoming_action(q, t, node, fw_proc, dst_pid, action, None);
                self.causal_eq_post(node, dst_pid, TraceId(tag), t, before);
                self.maybe_wake(q, t, node, dst_pid);
                t
            }
            PortalsOp::Put => {
                // Prepare the deposit buffer and push the receive command.
                let (dma, prep_cost) = {
                    let proc = &self.nodes[node].procs[dst_pid as usize];
                    let prepared = proc
                        .bridge
                        .prepare(
                            &cm,
                            proc.mem.as_ref(),
                            ticket.address,
                            ticket.mlength as u32,
                        )
                        .expect("matched region is valid");
                    (prepared.commands, prepared.prep_cost)
                };
                t = self.nodes[node].host.run_span(
                    t,
                    prep_cost,
                    "rx-prepare",
                    node as u32,
                    &mut self.telemetry,
                );
                let drop_length = ticket.rlength - ticket.mlength;
                self.nodes[node]
                    .rx_store
                    .get_mut(&(fw_proc, pending))
                    .expect("rec")
                    .ticket = Some(ticket);
                let t = self.post_cmd(
                    q,
                    t,
                    node,
                    fw_proc,
                    FwCommand::RecvDeposit {
                        pending,
                        length: ticket_mlength_of(&self.nodes[node], fw_proc, pending),
                        drop_length,
                        dma,
                    },
                );
                self.causal
                    .record_chain(TraceId(tag), CausalStage::RxCmdPost, t, node as u32, 0);
                t
            }
            PortalsOp::Get => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rec");
                let synthetic = self.config.synthetic_payload;
                let before = self.events_posted_before(node, dst_pid);
                let action = {
                    let proc = &mut self.nodes[node].procs[dst_pid as usize];
                    proc.lib.complete_get_serve(
                        &rec.header,
                        &ticket,
                        proc.mem.as_ref_memory(),
                        synthetic,
                    )
                };
                // The reply leaves first; GetEnd bookkeeping and the
                // pending release follow off the reply's critical path.
                self.causal.set_cause(match_idx);
                t = self.handle_incoming_action(
                    q,
                    t,
                    node,
                    fw_proc,
                    dst_pid,
                    action,
                    Some(ticket.address),
                );
                t = self.nodes[node].host.run_span(
                    t,
                    cm.host_event_post,
                    "event-post",
                    node as u32,
                    &mut self.telemetry,
                );
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                t = self.post_cmd(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal_eq_post(node, dst_pid, TraceId(tag), t, before);
                self.maybe_wake(q, t, node, dst_pid);
                t
            }
            _ => unreachable!("reply/ack never reach host matching"),
        }
    }

    /// Send back whatever the library asked for (ack or reply).
    /// `reply_region` is the matched MD region's start address when the
    /// action may be a reply (used for scatter/gather cost accounting).
    #[allow(clippy::too_many_arguments)]
    fn handle_incoming_action(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        src_pid: u32,
        action: IncomingAction,
        reply_region: Option<u64>,
    ) -> SimTime {
        let cm = self.config.cost;
        match action {
            IncomingAction::None => t,
            IncomingAction::SendAck(ack) => self.transmit_internal(
                q,
                t,
                node,
                fw_proc,
                src_pid,
                ack,
                WireData::Synthetic(0),
                1,
                None,
                t,
            ),
            IncomingAction::SendReply(reply, data) => {
                // Reply payload is DMA'ed from the matched MD region; the
                // DMA command count mirrors that region's physical layout.
                let chunks = if let Some(region) = reply_region {
                    let proc = &self.nodes[node].procs[src_pid as usize];
                    proc.bridge
                        .prepare(
                            &cm,
                            proc.mem.as_ref(),
                            region,
                            data.len().min(u32::MAX as u64) as u32,
                        )
                        .map(|p| p.commands.len().max(1) as u32)
                        .unwrap_or(1)
                } else {
                    1
                };
                self.transmit_internal(q, t, node, fw_proc, src_pid, reply, data, chunks, None, t)
            }
        }
    }

    /// Kernel/NIC-initiated transmit (acks, replies).
    ///
    /// `api_start` is when the operation conceptually began — the
    /// app-visible API entry for user puts/gets, the serve point for
    /// internal acks/replies — and stamps the causal chain's `ApiEntry`
    /// root (the anchor every latency attribution measures from).
    #[allow(clippy::too_many_arguments)]
    fn transmit_internal(
        &mut self,
        q: &mut EventQueue<Ev>,
        mut t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        src_pid: u32,
        header: PortalsHeader,
        data: WireData,
        dma_chunks: u32,
        md: Option<MdHandle>,
        api_start: SimTime,
    ) -> SimTime {
        let cm = self.config.cost;
        let Some(pending) = self.nodes[node].alloc_tx_pending(fw_proc) else {
            // Host-managed TX pool exhausted: surface it loudly — the run
            // will stall and any_panicked() tells the harness why.
            self.trace.record(
                t,
                node as u32,
                TraceCategory::Host,
                label!("tx-pending-exhausted"),
                0,
            );
            eprintln!(
                "[portals-xt3] node {node}: host TX pending pool exhausted (fw proc {fw_proc}); marking node panicked"
            );
            self.nodes[node].panicked = true;
            return t;
        };
        let tag = self.nodes[node].fresh_tag();
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Host,
            label!("tx-cmd-post"),
            tag,
        );
        let len = data.len();
        let cause = self.causal.cause();
        self.causal.record(
            TraceId(tag),
            CausalStage::ApiEntry,
            api_start,
            node as u32,
            cause,
            len,
        );
        let target_node = header.dst.nid;
        self.nodes[node].tx_store.insert(
            (fw_proc, pending),
            TxRecord {
                header,
                data,
                src_pid,
                md,
                tag,
            },
        );
        let dma = DmaList::repeat(
            xt3_seastar::dma::DmaCommand {
                phys_addr: 0,
                bytes: (len / dma_chunks.max(1) as u64).max(1) as u32,
            },
            dma_chunks.max(1) as usize,
        );
        t = self.nodes[node].host.run_span(
            t,
            cm.host_cmd_post,
            "cmd-post",
            node as u32,
            &mut self.telemetry,
        );
        let backlog = self.nodes[node]
            .fw
            .mailbox_mut(fw_proc)
            .expect("machine-owned fw proc")
            .post_cmd(FwCommand::Transmit {
                pending,
                target_node,
                length: len,
                dma,
                tag,
            });
        if self.telemetry.is_enabled() {
            let depth = self.nodes[node]
                .fw
                .mailbox(fw_proc)
                .map_or(0, |m| m.cmd_len()) as u64;
            self.telemetry.gauge(node as u32, "fw.mailbox_depth", depth);
        }
        t = self.charge_mailbox_stall(node, t, backlog);
        self.causal
            .record_chain(TraceId(tag), CausalStage::TxCmdPost, t, node as u32, 0);
        let key = self.next_key(node as u32);
        q.schedule_keyed(
            t + cm.ht_write_latency,
            key,
            Ev::FwCmd {
                node: node as u32,
                fw_proc,
            },
        );
        t
    }

    fn post_cmd(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        cmd: FwCommand,
    ) -> SimTime {
        let cm = self.config.cost;
        let t = self.nodes[node].host.run_span(
            t,
            cm.host_cmd_post,
            "cmd-post",
            node as u32,
            &mut self.telemetry,
        );
        let backlog = self.nodes[node]
            .fw
            .mailbox_mut(fw_proc)
            .expect("machine-owned fw proc")
            .post_cmd(cmd);
        if self.telemetry.is_enabled() {
            let depth = self.nodes[node]
                .fw
                .mailbox(fw_proc)
                .map_or(0, |m| m.cmd_len()) as u64;
            self.telemetry.gauge(node as u32, "fw.mailbox_depth", depth);
        }
        let t = self.charge_mailbox_stall(node, t, backlog);
        let key = self.next_key(node as u32);
        q.schedule_keyed(
            t + cm.ht_write_latency,
            key,
            Ev::FwCmd {
                node: node as u32,
                fw_proc,
            },
        );
        t
    }

    /// The host busy-waits for mailbox space when the command FIFO is
    /// over capacity (§4.1): stall roughly one firmware dispatch per
    /// queued-over entry.
    fn charge_mailbox_stall(&mut self, node: usize, t: SimTime, backlog: u32) -> SimTime {
        if backlog == 0 {
            return t;
        }
        let cm = self.config.cost;
        self.nodes[node]
            .host
            .run(t, cm.fw_tx_cmd.times(backlog as u64))
    }

    // ----- causal EQ-delivery attribution -----

    /// Snapshot `(node, pid)`'s monotone posted-event counter before a
    /// library completion call (pairs with [`Self::causal_eq_post`]).
    fn events_posted_before(&self, node: usize, pid: u32) -> u64 {
        if !self.causal.is_enabled() {
            return 0;
        }
        self.nodes[node].procs[pid as usize]
            .lib
            .counters()
            .events_posted
    }

    /// Record the `EqPost` checkpoint for a completion that may have
    /// posted events to `(node, pid)`'s queue: diffs the library's
    /// posted-event counter across the completion and maps every new
    /// event to this producer record, so a later successful `eq_get` can
    /// name the message whose completion it consumed.
    fn causal_eq_post(
        &mut self,
        node: usize,
        pid: u32,
        id: TraceId,
        at: SimTime,
        before: u64,
    ) -> Option<u32> {
        if !self.causal.is_enabled() {
            return None;
        }
        let after = self.nodes[node].procs[pid as usize]
            .lib
            .counters()
            .events_posted;
        let posted = after.saturating_sub(before);
        if posted == 0 {
            return None;
        }
        let idx =
            self.causal
                .record_chain(id, CausalStage::EqPost, at, node as u32, u64::from(pid))?;
        self.causal.push_eq_posts(node as u32, pid, idx, posted);
        Some(idx)
    }

    /// Like [`Self::causal_eq_post`] but for sender-side `SendEnd`
    /// completions: recorded as a *root* under the message's send-chain
    /// id ([`SEND_CHAIN_BIT`]), so the receive-path spine — which shares
    /// the tag and may still be growing on the remote node — keeps its
    /// own latest-record chain.
    fn causal_eq_post_send(&mut self, node: usize, pid: u32, tag: u64, at: SimTime, before: u64) {
        if !self.causal.is_enabled() {
            return;
        }
        let after = self.nodes[node].procs[pid as usize]
            .lib
            .counters()
            .events_posted;
        let posted = after.saturating_sub(before);
        if posted == 0 {
            return;
        }
        if let Some(idx) = self.causal.record(
            TraceId(tag | SEND_CHAIN_BIT),
            CausalStage::EqPost,
            at,
            node as u32,
            None,
            u64::from(pid),
        ) {
            self.causal.push_eq_posts(node as u32, pid, idx, posted);
        }
    }

    // ----- accelerated mode -----

    /// Offloaded matching on the PPC (paper §3.3's accelerated mode).
    fn nic_match(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let t = self.nodes[node].chip.ppc.run_via(
            &cm,
            FwHandler::Match,
            t,
            node as u32,
            &mut self.telemetry,
        );
        let (header, dst_pid, piggy, tag) = {
            let rec = &self.nodes[node].rx_store[&(fw_proc, pending)];
            (rec.header.clone(), rec.dst_pid, rec.piggyback, rec.tag)
        };
        let match_idx =
            self.causal
                .record_chain(TraceId(tag), CausalStage::MatchDone, t, node as u32, 0);
        let before_match = self.events_posted_before(node, dst_pid);
        let outcome = self.nodes[node].procs[dst_pid as usize]
            .lib
            .match_incoming(&header);
        if let Some(mi) = match_idx {
            let after = self.events_posted_before(node, dst_pid);
            self.causal
                .push_eq_posts(node as u32, dst_pid, mi, after.saturating_sub(before_match));
        }
        let ticket = match outcome {
            DeliverOutcome::Matched(ticket) => ticket,
            _ => {
                self.nodes[node].rx_store.remove(&(fw_proc, pending));
                let effects = match self.nodes[node]
                    .fw
                    .handle_command(fw_proc, FwCommand::RecvDiscard { pending })
                {
                    Ok(e) => e,
                    Err(err) => self.fw_fault(t, node, err),
                };
                self.exec_effects(q, t, node, effects);
                return;
            }
        };

        match header.op {
            PortalsOp::Put if piggy => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rec");
                let before = self.events_posted_before(node, dst_pid);
                let action = {
                    let proc = &mut self.nodes[node].procs[dst_pid as usize];
                    proc.lib
                        .complete_put(&rec.header, &ticket, &rec.data, proc.mem.as_mut_memory())
                };
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                let effects = match self.nodes[node]
                    .fw
                    .handle_command(fw_proc, FwCommand::ReleasePending { pending })
                {
                    Ok(e) => e,
                    Err(err) => self.fw_fault(t, node, err),
                };
                self.exec_effects(q, t, node, effects);
                self.causal_eq_post(node, dst_pid, TraceId(tag), t + cm.ht_write_latency, before);
                // Cause is the match, not the EqPost: the post's visible
                // time is later than the ack's own start.
                self.causal.set_cause(match_idx);
                let t2 = self.handle_incoming_action(q, t, node, fw_proc, dst_pid, action, None);
                self.maybe_wake(q, t2 + cm.ht_write_latency, node, dst_pid);
            }
            PortalsOp::Put => {
                // Accelerated mode requires physically contiguous buffers
                // (§3.3): a single DMA command.
                let (dma, _) = self.nodes[node].procs[dst_pid as usize]
                    .mem
                    .translate(ticket.address, ticket.mlength as u32);
                let drop_length = ticket.rlength - ticket.mlength;
                let mlength = ticket.mlength;
                self.nodes[node]
                    .rx_store
                    .get_mut(&(fw_proc, pending))
                    .expect("rec")
                    .ticket = Some(ticket);
                let effects = match self.nodes[node].fw.handle_command(
                    fw_proc,
                    FwCommand::RecvDeposit {
                        pending,
                        length: mlength,
                        drop_length,
                        dma,
                    },
                ) {
                    Ok(e) => e,
                    Err(err) => self.fw_fault(t, node, err),
                };
                self.causal
                    .record_chain(TraceId(tag), CausalStage::RxCmdPost, t, node as u32, 0);
                self.exec_effects(q, t, node, effects);
            }
            PortalsOp::Get => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rec");
                let synthetic = self.config.synthetic_payload;
                let before = self.events_posted_before(node, dst_pid);
                let action = {
                    let proc = &mut self.nodes[node].procs[dst_pid as usize];
                    proc.lib.complete_get_serve(
                        &rec.header,
                        &ticket,
                        proc.mem.as_ref_memory(),
                        synthetic,
                    )
                };
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                let effects = match self.nodes[node]
                    .fw
                    .handle_command(fw_proc, FwCommand::ReleasePending { pending })
                {
                    Ok(e) => e,
                    Err(err) => self.fw_fault(t, node, err),
                };
                self.exec_effects(q, t, node, effects);
                self.causal_eq_post(node, dst_pid, TraceId(tag), t, before);
                self.causal.set_cause(match_idx);
                let t2 = self.handle_incoming_action(
                    q,
                    t,
                    node,
                    fw_proc,
                    dst_pid,
                    action,
                    Some(ticket.address),
                );
                self.maybe_wake(q, t2, node, dst_pid);
            }
            _ => unreachable!(),
        }
    }

    /// Completion events for accelerated processes: handled by the
    /// firmware inline, posted straight to user space, no interrupt.
    fn accel_event(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        event: FwEvent,
    ) {
        let cm = self.config.cost;
        match event {
            FwEvent::TxComplete { pending } => {
                let rec = self.nodes[node]
                    .tx_store
                    .remove(&(fw_proc, pending))
                    .expect("tx rec");
                self.nodes[node].free_tx_pending(fw_proc, pending);
                if let Some(md) = rec.md {
                    let before = self.events_posted_before(node, rec.src_pid);
                    self.nodes[node].procs[rec.src_pid as usize]
                        .lib
                        .on_send_complete(md, rec.data.len());
                    let visible = t + cm.ht_write_latency;
                    self.causal_eq_post_send(node, rec.src_pid, rec.tag, visible, before);
                    self.maybe_wake(q, visible, node, rec.src_pid);
                }
            }
            FwEvent::RxComplete { pending } => {
                let rec = self.nodes[node]
                    .rx_store
                    .remove(&(fw_proc, pending))
                    .expect("rx rec");
                let ticket = rec.ticket.as_ref().expect("ticket");
                let before = self.events_posted_before(node, rec.dst_pid);
                let action = {
                    let proc = &mut self.nodes[node].procs[rec.dst_pid as usize];
                    proc.lib
                        .complete_put(&rec.header, ticket, &rec.data, proc.mem.as_mut_memory())
                };
                let effects = match self.nodes[node]
                    .fw
                    .handle_command(fw_proc, FwCommand::ReleasePending { pending })
                {
                    Ok(e) => e,
                    Err(err) => self.fw_fault(t, node, err),
                };
                self.exec_effects(q, t, node, effects);
                // Chains onto the message's DepositDone; the ack's cause
                // is the completion record itself (stamped at `t`, not
                // after the ack's own start).
                let eq_idx = self.causal_eq_post(node, rec.dst_pid, TraceId(rec.tag), t, before);
                self.causal.set_cause(eq_idx);
                let t2 =
                    self.handle_incoming_action(q, t, node, fw_proc, rec.dst_pid, action, None);
                self.maybe_wake(q, t2 + cm.ht_write_latency, node, rec.dst_pid);
            }
            FwEvent::RxHeader { .. } => {
                unreachable!("accelerated mode matches on the NIC")
            }
        }
    }

    // ----- app scheduling -----

    fn maybe_wake(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize, pid: u32) {
        let tele = &mut self.telemetry;
        let proc = &mut self.nodes[node].procs[pid as usize];
        if proc.wake_scheduled || proc.finished {
            return;
        }
        if let WaitState::Eq(eq) = proc.wait {
            let depth = proc.lib.eq_len(eq).unwrap_or(0);
            tele.gauge(node as u32, "ptl.eq_depth", depth as u64);
            let ready = depth > 0;
            if ready {
                proc.wake_scheduled = true;
                let key = self.next_key(node as u32);
                q.schedule_keyed(
                    now,
                    key,
                    Ev::AppWake {
                        node: node as u32,
                        pid,
                    },
                );
            }
        }
    }

    fn on_app_wake(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize, pid: u32) {
        let cm = self.config.cost;
        let wait = {
            let proc = &mut self.nodes[node].procs[pid as usize];
            proc.wake_scheduled = false;
            if proc.finished {
                return;
            }
            proc.wait
        };
        match wait {
            WaitState::Idle => {}
            WaitState::Timer => {
                self.nodes[node].procs[pid as usize].wait = WaitState::Idle;
                self.causal.set_cause(None);
                self.run_app(q, now, node, pid, AppEvent::Timer);
            }
            WaitState::Eq(eq) => {
                // The polling discovery path: a trap plus an EQ read.
                let accelerated = self.nodes[node].procs[pid as usize].spec.accelerated;
                let mut t = now;
                if !accelerated {
                    t = self.nodes[node]
                        .host
                        .trap_span(&cm, t, node as u32, &mut self.telemetry);
                }
                t = self.nodes[node].host.run_span(
                    t,
                    cm.host_eq_poll,
                    "eq-poll",
                    node as u32,
                    &mut self.telemetry,
                );
                let got = self.nodes[node].procs[pid as usize].lib.eq_get(eq);
                match got {
                    Ok(ev) => {
                        self.trace.record(
                            t,
                            node as u32,
                            TraceCategory::App,
                            label!("app-event"),
                            0,
                        );
                        // Resolve which completion produced the event the
                        // app just consumed, close the message's causal
                        // chain with an `AppDeliver`, and make it the
                        // cause of whatever the app does next.
                        let producer = self.causal.pop_eq_post(node as u32, pid);
                        self.causal.record_deliver(node as u32, pid, t, producer);
                        self.nodes[node].procs[pid as usize].wait = WaitState::Idle;
                        self.run_app(q, t, node, pid, AppEvent::Ptl(ev));
                    }
                    Err(PtlError::EqEmpty) => {
                        // Spurious wake; stay blocked.
                    }
                    Err(PtlError::EqDropped) => {
                        self.nodes[node].procs[pid as usize].wait = WaitState::Idle;
                        self.causal.set_cause(None);
                        self.run_app(q, t, node, pid, AppEvent::EqDropped);
                    }
                    Err(e) => panic!("eq_get failed: {e}"),
                }
            }
        }
    }

    fn run_app(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        pid: u32,
        event: AppEvent,
    ) {
        let mut app = self.nodes[node].procs[pid as usize]
            .app
            .take()
            .expect("app present");
        let mut ctx = AppCtx {
            m: self,
            q,
            node,
            pid,
            time: now,
            wait: WaitRequest::None,
            finished: false,
        };
        app.on_event(&mut ctx, event);
        let wait = ctx.wait;
        let finished = ctx.finished;
        let end_time = ctx.time;

        self.nodes[node].procs[pid as usize].app = Some(app);
        if finished {
            self.nodes[node].procs[pid as usize].finished = true;
            self.nodes[node].procs[pid as usize].wait = WaitState::Idle;
            self.nodes[node].running_apps -= 1;
            return;
        }
        self.nodes[node].set_wait(pid, wait);
        match wait {
            WaitRequest::Timer(delay) => {
                let key = self.next_key(node as u32);
                q.schedule_keyed(
                    end_time + delay,
                    key,
                    Ev::AppWake {
                        node: node as u32,
                        pid,
                    },
                );
            }
            WaitRequest::Eq(_) => {
                // The event may already be there.
                self.maybe_wake(q, end_time, node, pid);
            }
            WaitRequest::None => {}
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
        if self.nodes[owner as usize].dark && !matches!(event, Ev::FaultAt { .. }) {
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
            Ev::NetHeader { node, mut inflight } => {
                let arrived = inflight
                    .take()
                    .expect("a queued header carries its message");
                if let NetMode::Deferred { spares, .. } = &mut self.net {
                    spares.push(inflight);
                }
                self.on_net_header(q, now, node as usize, arrived)
            }
            Ev::RxDepositDone {
                node,
                fw_proc,
                pending,
            } => self.on_rx_deposit_done(q, now, node as usize, fw_proc, pending),
            Ev::HostInterrupt { node } => self.on_host_interrupt(q, now, node as usize),
            Ev::GbnTimeout { node, peer } => {
                self.nodes[node as usize].gbn_timer_armed.remove(&peer);
                let resend = self.nodes[node as usize]
                    .gbn_tx
                    .get_mut(&peer)
                    .filter(|s| s.in_flight() > 0)
                    .map(|s| s.timeout_retransmit())
                    .unwrap_or_default();
                for (seq, mut m) in resend {
                    m.seq = Some(seq);
                    self.inject(q, now, now, m);
                }
                // The retransmission itself can be lost under an active
                // fault plan: keep a timer running while unacked.
                self.arm_gbn_timer(q, now, node as usize, peer);
            }
            Ev::RasHeartbeat { node } => {
                // The firmware's main loop stamps the control block; the
                // RAS system watches for it going stale. Ticks stop once
                // all applications finish so runs still drain.
                let tele = &mut self.telemetry;
                let n = &mut self.nodes[node as usize];
                let cm = n.chip.cost;
                n.chip
                    .ppc
                    .run_via(&cm, FwHandler::Completion, now, node, tele);
                n.fw.ras_heartbeat();
                // Gated on the *node's* own apps (not the machine-wide
                // count) so the decision is shard-local and identical
                // under any partitioning.
                if self.nodes[node as usize].running_apps > 0 {
                    if let Some(interval) = self.config.ras_heartbeat {
                        let key = self.next_key(node);
                        q.schedule_keyed(now + interval, key, Ev::RasHeartbeat { node });
                    }
                }
            }
            Ev::FaultAt { node, kind } => self.on_fault_at(now, node as usize, *kind),
        }
    }

    /// Fold the event kind plus every identifying field into the replay
    /// digest, so any reordering or substitution of events between two
    /// same-seed runs — the signature of nondeterministic state (map
    /// iteration order, tie-break drift) — changes the digest at the
    /// first divergent dispatch.
    fn fingerprint(event: &Ev, digest: &mut xt3_sim::EventDigest) {
        match event {
            Ev::AppStart { node, pid } => {
                digest.write_u8(0);
                digest.write_u32(*node);
                digest.write_u32(*pid);
            }
            Ev::AppWake { node, pid } => {
                digest.write_u8(1);
                digest.write_u32(*node);
                digest.write_u32(*pid);
            }
            Ev::FwCmd { node, fw_proc } => {
                digest.write_u8(2);
                digest.write_u32(*node);
                digest.write_u32(*fw_proc);
            }
            Ev::TxDmaDone { node } => {
                digest.write_u8(3);
                digest.write_u32(*node);
            }
            Ev::NetHeader { node, inflight } => {
                let inflight = inflight
                    .as_ref()
                    .as_ref()
                    .expect("a queued header carries its message");
                digest.write_u8(4);
                digest.write_u32(*node);
                digest.write_u64(inflight.complete_at.0);
                digest.write_u8(inflight.corrupted as u8);
                digest.write_u64(inflight.msg.tag);
                digest.write_u64(inflight.msg.wire_bytes());
                match inflight.msg.seq {
                    Some(seq) => digest.write_u64(1 + seq),
                    None => digest.write_u64(0),
                }
            }
            Ev::RxDepositDone {
                node,
                fw_proc,
                pending,
            } => {
                digest.write_u8(5);
                digest.write_u32(*node);
                digest.write_u32(*fw_proc);
                digest.write_u32(*pending);
            }
            Ev::HostInterrupt { node } => {
                digest.write_u8(6);
                digest.write_u32(*node);
            }
            Ev::RasHeartbeat { node } => {
                digest.write_u8(7);
                digest.write_u32(*node);
            }
            Ev::GbnTimeout { node, peer } => {
                digest.write_u8(8);
                digest.write_u32(*node);
                digest.write_u32(*peer);
            }
            Ev::FaultAt { node, kind } => {
                digest.write_u8(9);
                digest.write_u32(*node);
                match kind.as_ref() {
                    FwFaultKind::Stall(d) => {
                        digest.write_u8(0);
                        digest.write_u64(d.0);
                    }
                    FwFaultKind::Fault => digest.write_u8(1),
                }
            }
        }
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
            d.write_u8(u8::from(n.panicked));
            d.write_u8(u8::from(n.dark));
            d.write_u64(n.gbn_retransmissions());
        }
        d.value()
    }
}

impl Machine {
    /// Partition a freshly built (not yet run) machine into `shards`
    /// contiguous node slabs for a parallel run. Returns the shard
    /// machines plus the real fabric, which the *coordinator* owns: the
    /// shards get placeholder fabrics they never touch (their sends are
    /// deferred as [`SendIntent`]s and replayed by the coordinator in
    /// serial order).
    pub fn split(mut self, shards: usize) -> (Vec<Machine>, Fabric) {
        assert!(shards > 0, "at least one shard");
        assert!(
            self.nodes.base == 0 && matches!(self.net, NetMode::Inline),
            "only a full serial machine can be split"
        );
        assert!(
            self.nodes.iter().all(|n| n.key_ctr == 0),
            "split before running: key counters must be untouched"
        );
        let node_count = self.nodes.len();
        let shards = shards.min(node_count);
        let per = node_count.div_ceil(shards);
        let fabric = std::mem::replace(
            &mut self.fabric,
            Fabric::new(Dims::mesh(1, 1, 1), self.config.fabric),
        );
        let causal_enabled = self.causal.is_enabled();
        let mut slabs = self.nodes.inner;
        let mut out = Vec::with_capacity(shards);
        let mut base = 0usize;
        while !slabs.is_empty() {
            let take = per.min(slabs.len());
            let rest = slabs.split_off(take);
            let inner = std::mem::replace(&mut slabs, rest);
            let range = base..base + take;
            let spawned = self
                .spawned
                .iter()
                .copied()
                .filter(|(n, _)| range.contains(&(*n as usize)))
                .collect();
            out.push(Machine {
                config: self.config.clone(),
                nodes: Nodes { base, inner },
                fabric: Fabric::new(Dims::mesh(1, 1, 1), self.config.fabric),
                trace: if self.config.trace {
                    Trace::enabled(1 << 20)
                } else {
                    Trace::disabled()
                },
                faults: FaultInjector::new(self.config.faults.clone()),
                telemetry: if self.config.telemetry {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                },
                causal: if causal_enabled {
                    CausalLog::enabled()
                } else {
                    CausalLog::disabled()
                },
                spawned,
                scratch_events: Vec::new(),
                net: NetMode::Deferred {
                    intents: Vec::new(),
                    spares: Vec::new(),
                },
                cur_key: 0,
                cur_now: SimTime::ZERO,
            });
            base += take;
        }
        (out, fabric)
    }

    /// Reassemble shard machines (after their engines drained) into one
    /// machine equivalent to the serial run: nodes concatenated in slab
    /// order, trace and fault lanes disjoint-merged, and the
    /// coordinator's real `fabric` restored. Telemetry spans and the
    /// causal DAG are observation-only and are not merged — the merged
    /// machine gets fresh (empty) sinks; `telemetry_report` reads node
    /// hardware counters and fabric links, so it is unaffected.
    pub fn merge(shards: Vec<Machine>, fabric: Fabric) -> Machine {
        let mut shards = shards.into_iter();
        let mut m = shards.next().expect("at least one shard");
        assert!(m.nodes.base == 0, "shards must be merged in slab order");
        m.fabric = fabric;
        let mut trace = if m.config.trace {
            Trace::enabled(1 << 20)
        } else {
            Trace::disabled()
        };
        trace.merge_from(&m.trace);
        let mut faults = FaultInjector::new(m.config.faults.clone());
        faults.merge_from(&m.faults);
        for s in shards {
            assert_eq!(
                s.nodes.base,
                m.nodes.base + m.nodes.inner.len(),
                "shards must be merged in slab order"
            );
            m.nodes.inner.extend(s.nodes.inner);
            m.spawned.extend(s.spawned);
            trace.merge_from(&s.trace);
            faults.merge_from(&s.faults);
        }
        m.trace = trace;
        m.faults = faults;
        m.telemetry = if m.config.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let causal_enabled = m.causal.is_enabled();
        m.causal = if causal_enabled {
            CausalLog::enabled()
        } else {
            CausalLog::disabled()
        };
        m.net = NetMode::Inline;
        m
    }
}

impl Partitioned for Machine {
    type Intent = SendIntent;

    fn drain_intents(&mut self) -> Vec<SendIntent> {
        match &mut self.net {
            NetMode::Inline => Vec::new(),
            NetMode::Deferred { intents, .. } => std::mem::take(intents),
        }
    }

    fn drain_intents_into(&mut self, out: &mut Vec<SendIntent>) {
        if let NetMode::Deferred { intents, .. } = &mut self.net {
            if out.is_empty() {
                // The driver's buffer comes back drained every window:
                // trade it for the full one instead of copying. Both are
                // only ever grown here, on the shard's thread.
                std::mem::swap(out, intents);
            } else {
                out.append(intents);
            }
        }
    }
}

fn ticket_mlength_of(node: &Node, fw_proc: ProcIdx, pending: PendingId) -> u64 {
    node.rx_store[&(fw_proc, pending)]
        .ticket
        .as_ref()
        .expect("ticket stored")
        .mlength
}

// ================= the app-facing API =================

/// The API surface an [`App`] uses during a callback. Every call charges
/// the host CPU its cost-model price and advances the app's clock.
pub struct AppCtx<'a> {
    m: &'a mut Machine,
    q: &'a mut EventQueue<Ev>,
    node: usize,
    pid: u32,
    time: SimTime,
    pub(crate) wait: WaitRequest,
    pub(crate) finished: bool,
}

impl AppCtx<'_> {
    /// Current time (advances as calls are made).
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// This process's Portals id.
    pub fn my_id(&self) -> ProcessId {
        ProcessId::new(self.m.nodes[self.node].id.0, self.pid)
    }

    /// Nodes in the machine.
    pub fn node_count(&self) -> u32 {
        self.m.config.dims.node_count()
    }

    /// Whether payloads are synthetic (length-only) in this run.
    pub fn synthetic(&self) -> bool {
        self.m.config.synthetic_payload
    }

    fn proc(&mut self) -> &mut ProcState {
        &mut self.m.nodes[self.node].procs[self.pid as usize]
    }

    fn charge(&mut self, cost: SimTime) {
        self.time = self.m.nodes[self.node].host.run_span(
            self.time,
            cost,
            "api",
            self.node as u32,
            &mut self.m.telemetry,
        );
    }

    fn api_entry(&mut self) {
        let cm = self.m.config.cost;
        if self.m.nodes[self.node].procs[self.pid as usize]
            .spec
            .accelerated
        {
            self.charge(ACCEL_ENTRY_COST);
        } else {
            let crossing = self.m.nodes[self.node].procs[self.pid as usize]
                .bridge
                .api_crossing(&cm);
            self.m.nodes[self.node].host.counters.traps += 1;
            self.charge(crossing);
        }
    }

    /// `PtlEQAlloc`.
    pub fn eq_alloc(&mut self, capacity: u32) -> PtlResult<EqHandle> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        self.proc().lib.eq_alloc(capacity)
    }

    /// `PtlMDBind`.
    pub fn md_bind(
        &mut self,
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
    ) -> PtlResult<MdHandle> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        let size = self.proc().mem.size();
        self.proc()
            .lib
            .md_bind(size, start, length, options, threshold, eq, user_ptr)
    }

    /// `PtlMEAttach`.
    pub fn me_attach(
        &mut self,
        pt_index: u32,
        match_id: ProcessId,
        match_bits: MatchBits,
        ignore_bits: MatchBits,
        unlink: UnlinkOp,
        pos: InsertPos,
    ) -> PtlResult<MeHandle> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        self.proc()
            .lib
            .me_attach(pt_index, match_id, match_bits, ignore_bits, unlink, pos)
    }

    /// `PtlMDAttach`.
    #[allow(clippy::too_many_arguments)]
    pub fn md_attach(
        &mut self,
        me: MeHandle,
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
    ) -> PtlResult<MdHandle> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        let size = self.proc().mem.size();
        self.proc()
            .lib
            .md_attach(me, size, start, length, options, threshold, eq, user_ptr)
    }

    /// `PtlMEInsert`.
    #[allow(clippy::too_many_arguments)]
    pub fn me_insert(
        &mut self,
        reference: MeHandle,
        pos: InsertPos,
        match_id: ProcessId,
        match_bits: MatchBits,
        ignore_bits: MatchBits,
        unlink: UnlinkOp,
    ) -> PtlResult<MeHandle> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        self.proc()
            .lib
            .me_insert(reference, pos, match_id, match_bits, ignore_bits, unlink)
    }

    /// `PtlMEUnlink`.
    pub fn me_unlink(&mut self, me: MeHandle) -> PtlResult<()> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        self.proc().lib.me_unlink(me)
    }

    /// `PtlMDUnlink`.
    pub fn md_unlink(&mut self, md: MdHandle) -> PtlResult<()> {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        self.proc().lib.md_unlink(md)
    }

    /// `PtlPut`: put the whole descriptor (a region put over `[0, len)`).
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        md: MdHandle,
        ack: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<()> {
        let len = self.proc().lib.md(md)?.length;
        self.put_region(
            md,
            0,
            len,
            ack,
            target,
            pt_index,
            ac_index,
            match_bits,
            remote_offset,
            hdr_data,
        )
    }

    /// `PtlPutRegion`: put a sub-range of the MD.
    #[allow(clippy::too_many_arguments)]
    pub fn put_region(
        &mut self,
        md: MdHandle,
        local_offset: u64,
        length: u64,
        ack: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<()> {
        let cm = self.m.config.cost;
        let api_start = self.time;
        self.api_entry();
        self.charge(cm.host_tx_proc);
        let header = self.proc().lib.put_region(
            md,
            local_offset,
            length,
            ack,
            target,
            pt_index,
            ac_index,
            match_bits,
            remote_offset,
            hdr_data,
        )?;
        self.transmit_put(md, local_offset, length, header, api_start)
    }

    /// Atomic put (`PtlAtomic`-style): the target combines the payload
    /// into its memory lane-wise with `op` instead of overwriting. Rides
    /// the ordinary put path on the wire; offsets and length must be
    /// 8-byte aligned.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic_put(
        &mut self,
        md: MdHandle,
        local_offset: u64,
        length: u64,
        op: AtomicOp,
        ack: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<()> {
        let cm = self.m.config.cost;
        let api_start = self.time;
        self.api_entry();
        self.charge(cm.host_tx_proc);
        let header = self.proc().lib.atomic_region(
            md,
            local_offset,
            length,
            op,
            ack,
            target,
            pt_index,
            ac_index,
            match_bits,
            remote_offset,
            hdr_data,
        )?;
        self.transmit_put(md, local_offset, length, header, api_start)
    }

    /// Shared transmit tail for put-shaped operations: read/prepare the
    /// payload, charge DMA prep, and hand the message to the firmware.
    fn transmit_put(
        &mut self,
        md: MdHandle,
        local_offset: u64,
        length: u64,
        header: PortalsHeader,
        api_start: SimTime,
    ) -> PtlResult<()> {
        let cm = self.m.config.cost;
        let (start, len) = self.proc().lib.tx_region_at(md, local_offset, length)?;
        let synthetic = self.m.config.synthetic_payload;
        let (data, chunks, prep_cost) = {
            let proc = &self.m.nodes[self.node].procs[self.pid as usize];
            let prepared = proc
                .bridge
                .prepare(&cm, proc.mem.as_ref(), start, len as u32)
                .ok_or(PtlError::InvalidArg)?;
            let data = if synthetic {
                WireData::Synthetic(len)
            } else {
                WireData::Real(proc.mem.read(start, len as u32))
            };
            (
                data,
                prepared.commands.len().max(1) as u32,
                prepared.prep_cost,
            )
        };
        self.charge(prep_cost);
        let fw_proc = self.m.nodes[self.node].procs[self.pid as usize].fw_proc;
        self.time = self.m.transmit_internal(
            self.q,
            self.time,
            self.node,
            fw_proc,
            self.pid,
            header,
            data,
            chunks,
            Some(md),
            api_start,
        );
        Ok(())
    }

    /// `PtlGet`. The reply deposits at the MD's start.
    pub fn get(
        &mut self,
        md: MdHandle,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
    ) -> PtlResult<()> {
        let cm = self.m.config.cost;
        let api_start = self.time;
        self.api_entry();
        self.charge(cm.host_tx_proc);
        let header =
            self.proc()
                .lib
                .get(md, target, pt_index, ac_index, match_bits, remote_offset)?;
        // Pre-compute the reply deposit buffer and push it down with the
        // command, so the firmware can deposit the reply without host
        // involvement.
        let (start, len) = self.proc().lib.tx_region(md)?;
        let (dma, prep_cost) = {
            let proc = &self.m.nodes[self.node].procs[self.pid as usize];
            let prepared = proc
                .bridge
                .prepare(&cm, proc.mem.as_ref(), start, len as u32)
                .ok_or(PtlError::InvalidArg)?;
            (prepared.commands, prepared.prep_cost)
        };
        self.charge(prep_cost);
        self.m.nodes[self.node]
            .await_reply
            .insert((self.pid, md), dma);
        let fw_proc = self.m.nodes[self.node].procs[self.pid as usize].fw_proc;
        self.time = self.m.transmit_internal(
            self.q,
            self.time,
            self.node,
            fw_proc,
            self.pid,
            header,
            WireData::Synthetic(0),
            1,
            None,
            api_start,
        );
        Ok(())
    }

    /// Charge host CPU time for application/library computation (e.g.
    /// MPI request bookkeeping, buffer copies).
    pub fn compute(&mut self, cost: SimTime) {
        self.charge(cost);
    }

    /// Copy `len` bytes within this process's memory, charging the host
    /// memcpy rate (used for MPI unexpected-message copies).
    pub fn copy_mem(&mut self, from: u64, to: u64, len: u32) {
        let cm = self.m.config.cost;
        self.charge(cm.host_copy_bw.transfer_time(len as u64));
        if !self.m.config.synthetic_payload {
            let data = self.proc().mem.read(from, len);
            self.proc().mem.write(to, &data);
        }
    }

    /// Write bytes into this process's memory (setup; free of charge).
    pub fn write_mem(&mut self, addr: u64, data: &[u8]) {
        self.proc().mem.write(addr, data);
    }

    /// Read bytes from this process's memory.
    pub fn read_mem(&mut self, addr: u64, len: u32) -> Vec<u8> {
        self.proc().mem.read(addr, len)
    }

    /// Block until an event is available on `eq` (`PtlEQWait`).
    pub fn wait_eq(&mut self, eq: EqHandle) {
        self.wait = WaitRequest::Eq(eq);
    }

    /// Wake after `delay`.
    pub fn sleep(&mut self, delay: SimTime) {
        self.wait = WaitRequest::Timer(delay);
    }

    /// Terminate this app.
    pub fn finish(&mut self) {
        self.finished = true;
    }
}

// Helper trait to view `Box<dyn AddressSpace>` as `dyn ProcessMemory`.
pub(crate) trait AsMemory {
    fn as_mut_memory(&mut self) -> &mut dyn xt3_portals::memory::ProcessMemory;
    fn as_ref_memory(&self) -> &dyn xt3_portals::memory::ProcessMemory;
}

impl AsMemory for Box<dyn xt3_nal::addr::AddressSpace> {
    fn as_mut_memory(&mut self) -> &mut dyn xt3_portals::memory::ProcessMemory {
        &mut **self
    }
    fn as_ref_memory(&self) -> &dyn xt3_portals::memory::ProcessMemory {
        &**self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_is_sixteen_bytes() {
        // Every queue entry, bucket entry and deferred intent carries one:
        // 40-byte queue entries instead of 48 are what pays for the event
        // queue's near tiers (DESIGN.md §8, "The ladder step"). The two
        // variants that would not fit, `NetHeader` and `FaultAt`, box
        // their payload.
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }
}
