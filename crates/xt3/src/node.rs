//! Per-node state: host + SeaStar + firmware + processes.

use crate::app::{App, WaitRequest};
use crate::config::{MachineConfig, NodeSpec, ProcSpec};
use crate::host::HostCpu;
use crate::machine::Parcel;
use crate::wire::WireMsg;
// BTreeMap/BTreeSet, not HashMap/HashSet: iteration order must be
// deterministic for bit-identical replay (clippy's `disallowed_types`,
// DESIGN §11).
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use xt3_firmware::control::{Firmware, FwError, FwLayout, FwMode, ProcIdx};
use xt3_firmware::gbn::{GbnReceiver, GbnSender};
use xt3_firmware::mailbox::FwEvent;
use xt3_firmware::pending::PendingId;
use xt3_nal::addr::{AddressSpace, CatamountSpace, LinuxSpace};
use xt3_nal::bridge::{bridge_for, Bridge};
use xt3_portals::header::{PortalsHeader, PortalsOp};
use xt3_portals::library::{MatchTicket, PortalsLib, StowedTicket, WireData};
use xt3_portals::slab::fit_by_use;
use xt3_portals::types::{MdHandle, NiLimits, ProcessId};
use xt3_seastar::chip::SeaStar;
use xt3_seastar::sram::Sram;
use xt3_sim::SimTime;
use xt3_topology::coord::NodeId;

/// A row of `Option<V>` slots keyed by pending id: the host's record of
/// each message in flight on one firmware-level process.
///
/// Pending ids are small dense integers handed out lowest-first (the RX
/// pool and the host TX free list both recycle returned ids LIFO, then
/// issue the lowest fresh one), so a row gives O(1) insert/remove and
/// allocates nothing per message (the RX row's value is the message's
/// delivery box, [`Parcel`]: one pointer a slot). A row stores ids
/// relative to `base` (0 for the RX id range, the firmware's TX base for
/// the TX range), and reaches only as far as the highest id ever in
/// flight at once — a slot or two per node in practice, not the
/// firmware's table capacity — growing by the per-node row rule,
/// [`fit_by_use`]. Iteration, were it needed, is index-ordered and so as
/// deterministic as the `BTreeMap` whose API this keeps.
///
/// Not part of the crate's interface: `pub` so that the tier-1 suite
/// (`tests/rows.rs`) can step it against a `BTreeMap`.
#[doc(hidden)]
pub struct PendingRow<V> {
    slots: Vec<Option<V>>,
    base: u32,
}

impl<V> PendingRow<V> {
    /// An empty row holding ids at or above `base`.
    pub fn new(base: u32) -> Self {
        PendingRow {
            slots: Vec::new(),
            base,
        }
    }

    fn slot_of(&self, id: PendingId) -> Option<usize> {
        id.checked_sub(self.base).map(|s| s as usize)
    }

    /// Store `v` under `id`, returning what was there.
    ///
    /// # Panics
    ///
    /// Panics on a pending id below the row's base.
    pub fn insert(&mut self, id: PendingId, v: V) -> Option<V> {
        let slot = self.slot_of(id).expect("pending id below row base");
        if slot >= self.slots.len() {
            fit_by_use(&mut self.slots, slot + 1);
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot].replace(v)
    }

    /// The record under `id`.
    pub fn get(&self, id: PendingId) -> Option<&V> {
        self.slots.get(self.slot_of(id)?)?.as_ref()
    }

    /// The record under `id`, mutably.
    pub fn get_mut(&mut self, id: PendingId) -> Option<&mut V> {
        let slot = self.slot_of(id)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// Take the record under `id` out; its slot stays for the id's next
    /// use.
    pub fn remove(&mut self, id: PendingId) -> Option<V> {
        let slot = self.slot_of(id)?;
        self.slots.get_mut(slot)?.take()
    }

    /// Slots that hold a record.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|v| v.is_some()).count()
    }

    /// Slots the row has been allocated: the next power of two above the
    /// highest id it ever held (relative to the base).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// A host-managed TX pending free list with lazy id issue.
///
/// Equivalent to the eager `(base..base+count).rev()` stack it replaces:
/// returned ids pop LIFO-first, then fresh ids issue lowest-first, so the
/// id sequence is bit-identical — but the backing vector only ever holds
/// ids that have actually been returned (the TX-concurrency high-water
/// mark), not the full table range. (Bare ids, so `Vec`'s own growth:
/// see [`fit_by_use`].)
///
/// `pub` for the same reason [`PendingRow`] is.
#[doc(hidden)]
pub struct TxFreeList {
    returned: Vec<PendingId>,
    next_fresh: PendingId,
    limit: PendingId,
}

impl TxFreeList {
    /// A list that will issue `count` ids from `base` up.
    pub fn new(base: PendingId, count: PendingId) -> Self {
        TxFreeList {
            returned: Vec::new(),
            next_fresh: base,
            limit: base + count,
        }
    }

    /// The next id: the last one returned, else the lowest never issued;
    /// `None` when all `count` are out.
    pub fn pop(&mut self) -> Option<PendingId> {
        self.returned.pop().or_else(|| {
            (self.next_fresh < self.limit).then(|| {
                let id = self.next_fresh;
                self.next_fresh += 1;
                id
            })
        })
    }

    /// Return an issued id.
    pub fn push(&mut self, id: PendingId) {
        debug_assert!(id < self.next_fresh, "freed TX pending was never issued");
        self.returned.push(id);
    }
}

/// The host's state for one firmware-level process: its TX pending free
/// list, the upper pendings of its transmits and receives in flight, and
/// the host-memory event queue the firmware posts into (generic
/// processes only; accelerated completions are handled inline). One
/// record a process, so a node of one generic process holds one block
/// for all four.
pub(crate) struct HostRows {
    pub tx_free: TxFreeList,
    pub tx: PendingRow<TxRecord>,
    pub rx: PendingRow<Box<Parcel>>,
    pub eq: VecDeque<FwEvent>,
}

/// What only go-back-n and a Get's reply use, boxed behind
/// [`Node::peer_state`] and made on first use: a node of a Panic-policy,
/// put-only run never allocates it.
#[derive(Default)]
pub(crate) struct PeerState {
    /// DMA command counts of the reply deposit buffers prepared at
    /// `PtlGet` time, keyed by `(pid, initiator MD)`.
    pub await_reply: BTreeMap<(u32, MdHandle), u32>,
    /// Go-back-n sender state per destination node.
    pub gbn_tx: BTreeMap<u32, GbnSender<WireMsg>>,
    /// Go-back-n receiver state per source node.
    pub gbn_rx: BTreeMap<u32, GbnReceiver>,
    /// Transmits deferred because the go-back-n window was full, per
    /// destination node.
    pub gbn_deferred: BTreeMap<u32, VecDeque<WireMsg>>,
    /// Peers with a retransmission timer already armed (one timer per
    /// peer at a time).
    pub gbn_timer_armed: BTreeSet<u32>,
}

/// A process's wait status between activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitState {
    /// Running or idle with nothing requested.
    Idle,
    /// Blocked on an event queue.
    Eq(xt3_portals::types::EqHandle),
    /// Blocked on a timer (the wake event is already scheduled).
    Timer,
}

/// One process on a node.
pub struct ProcState {
    /// Its Portals library state (kernel-resident for generic processes).
    pub lib: PortalsLib,
    /// Its address space.
    pub mem: Box<dyn AddressSpace>,
    /// Its bridge.
    pub bridge: Box<dyn Bridge>,
    /// Its spec.
    pub spec: ProcSpec,
    /// The firmware-level process its traffic flows through (0 for all
    /// generic processes; own slot for accelerated ones).
    pub fw_proc: ProcIdx,
    pub(crate) app: Option<Box<dyn App>>,
    pub(crate) wait: WaitState,
    pub(crate) wake_scheduled: bool,
    /// The app called `finish`.
    pub finished: bool,
}

/// Host-side record of an in-flight transmit: the upper pending of a TX
/// pending.
pub(crate) struct TxRecord {
    pub header: PortalsHeader,
    pub data: WireData,
    pub src_pid: u32,
    /// `Some` when a `SendEnd` must be posted to this MD on completion.
    pub md: Option<MdHandle>,
    pub tag: u64,
}

/// Host/NIC-side record of an in-flight receive: the upper pending of an
/// RX pending, which holds "the Portals header + other info" (paper
/// §4.2). It lives in its message's delivery box ([`Parcel`]) from the
/// firmware taking the header to the end of the receive, and the RX row
/// holds the box. Nothing here that the header or payload already say:
/// once a deposit is programmed, its match's offset takes the word of the
/// spent remote offset in the header ([`MatchTicket::stow`]). At 136 B it
/// sizes the box, and the box's own tag sits in a niche (see the test
/// below).
#[derive(Debug)]
pub(crate) struct RxRecord {
    pub header: PortalsHeader,
    pub data: WireData,
    pub wire_complete: SimTime,
    /// The match of a programmed deposit, less the offset `header` holds.
    pub stowed: Option<StowedTicket>,
    /// The message's wire tag, which the causal tracer uses as its
    /// [`xt3_sim::TraceId`] on the receive path.
    pub tag: u64,
}

impl RxRecord {
    /// Keep the match of the deposit just programmed until it completes.
    pub fn keep(&mut self, ticket: MatchTicket) {
        self.stowed = Some(ticket.stow(&mut self.header));
    }

    /// The match kept by [`Self::keep`], if any.
    pub fn ticket(&self) -> Option<MatchTicket> {
        self.stowed.map(|s| s.ticket(&self.header))
    }
}

/// The firmware layouts a machine under construction has taken so far,
/// by how many accelerated processes the node runs — the one thing about
/// a node spec the layout depends on. Every node laid out the same way
/// reads the same SRAM ledger, so a full machine holds one or two, not
/// 10,368.
pub(crate) type FwLayouts = [Option<FwLayout>; Node::MAX_ACCELERATED + 1];

/// The words of a node that every event reads or writes: `dispatch`
/// reads `dark`, every scheduled event bumps `key_ctr`, every message
/// takes a tag, every heartbeat reads `running_apps`. One 24-byte record
/// at the head of [`Node`], so that they share a cache line with each
/// other and with the head of the host state behind them instead of
/// sitting wherever the compiler sorted them among 800-odd bytes.
#[derive(Debug, Default)]
pub struct NodeHot {
    /// Monotone scheduling-key counter: every event this node schedules
    /// gets key `(id << 32) | counter`, making queue tie-breaks a pure
    /// function of per-node state — the property that lets a spatial
    /// partition reproduce the serial dispatch order exactly.
    pub(crate) key_ctr: u64,
    pub(crate) next_tag: u64,
    /// Apps still running on this node (the RAS heartbeat gate; kept
    /// per-node so a partitioned shard never needs machine-global
    /// state).
    pub(crate) running_apps: u32,
    /// The node is down: its firmware took an injected unrecoverable
    /// fault (fault plan) or panicked. The NIC stops serving traffic and
    /// the RAS layer isolates the node without aborting the rest of the
    /// machine.
    pub dark: bool,
    /// Why the node panicked, if it did — the first cause: a pool that
    /// ran dry (paper §4.3's shipped panic) or a firmware protocol fault.
    /// Read it through [`Node::panic_cause`].
    pub(crate) panic: Option<PanicCause>,
}

/// Why a node panicked. On the real XT3 the firmware panics the node and
/// RAS reboots it (§4.3); the model takes the node down (it goes dark, as
/// for an injected fault), keeps the cause on it and lets the rest of the
/// run finish, so a harness can tell a pool that ran dry from a protocol
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicCause {
    /// The firmware reported this error: a pool it sizes (sources, RX
    /// pendings) ran dry, or a command broke the protocol.
    Firmware(FwError),
    /// The host-managed TX pending pool ran dry.
    TxPending,
}

/// One node.
///
/// `repr(C)`: the declaration order below is the layout. What every
/// event touches leads ([`NodeHot`], then the two processors whose
/// cursors `host_span` and `ppc_run` advance), the tables an event may
/// reach follow, and what only recovery and reporting read comes last.
/// 10,368 of these are walked in event order, so bytes here are speed:
/// `tests/node_footprint.rs` pins the size.
#[repr(C)]
pub struct Node {
    /// What every event touches.
    pub hot: NodeHot,
    /// The host Opteron.
    pub host: HostCpu,
    /// The SeaStar chip.
    pub chip: SeaStar,
    /// The firmware running on it.
    pub fw: Firmware,
    /// Processes, indexed by Portals pid.
    pub procs: Vec<ProcState>,
    /// The host's rows, one record per firmware-level process.
    pub(crate) rows: Vec<HostRows>,
    /// Go-back-n and reply state; `None` until first used.
    peer_state: Option<Box<PeerState>>,
    /// Node id (the Portals nid).
    pub id: NodeId,
    /// Headers this node's firmware dropped because they named a process
    /// the node does not have.
    pub bad_process_drops: u32,
}

impl Node {
    /// Maximum accelerated-mode processes per node. Paper §4.1: "Limited
    /// network interface resources and OS limitations prevent all
    /// processes from operating in accelerated mode. Typically, there
    /// will be a small number of accelerated processes (one or two on
    /// each Catamount compute node)".
    pub const MAX_ACCELERATED: usize = 2;

    /// Build a node from its spec; its chip reads the SRAM ledger of its
    /// firmware layout out of `layouts`.
    ///
    /// # Panics
    ///
    /// Panics on configurations the platform cannot support: more than
    /// [`Self::MAX_ACCELERATED`] accelerated processes, or accelerated
    /// mode on a paged (Linux) bridge — "accelerated mode relies on
    /// message buffers being physically contiguous in memory" (§4.1), so
    /// only Catamount (qkbridge) processes qualify.
    pub(crate) fn new(
        config: &MachineConfig,
        id: NodeId,
        spec: &NodeSpec,
        layouts: &mut FwLayouts,
    ) -> Self {
        let accel_count = spec.procs.iter().filter(|p| p.accelerated).count();
        assert!(
            accel_count <= Self::MAX_ACCELERATED,
            "node {id}: {accel_count} accelerated processes exceed the SeaStar's \
             resources (max {})",
            Self::MAX_ACCELERATED
        );
        for p in &spec.procs {
            assert!(
                !(p.accelerated && p.bridge != xt3_nal::bridge::BridgeKind::Qk),
                "node {id}: accelerated mode requires physically contiguous \
                 (Catamount) memory; Linux bridges are generic-only (paper §4.1)"
            );
        }

        // Firmware-level processes: slot 0 is the kernel's generic
        // implementation; each accelerated process gets its own slot.
        let mut fw_modes = vec![FwMode::Generic];
        let mut fw_proc_of = Vec::with_capacity(spec.procs.len());
        for p in &spec.procs {
            if p.accelerated {
                fw_proc_of.push(fw_modes.len() as ProcIdx);
                fw_modes.push(FwMode::Accelerated);
            } else {
                fw_proc_of.push(0);
            }
        }
        let layout = layouts[accel_count].get_or_insert_with(|| {
            FwLayout::reserve(config.fw, &fw_modes, Sram::default())
                .expect("firmware structures must fit SeaStar SRAM")
        });
        let chip = SeaStar::new(layout.sram().clone());
        let fw = layout.firmware();

        let procs = spec
            .procs
            .iter()
            .enumerate()
            .map(|(pid, ps)| {
                let mem: Box<dyn AddressSpace> = match ps.bridge {
                    xt3_nal::bridge::BridgeKind::Qk => {
                        Box::new(CatamountSpace::new(ps.mem_bytes, (id.0 as u64) << 36))
                    }
                    _ => Box::new(LinuxSpace::new(
                        ps.mem_bytes,
                        config.seed ^ ((id.0 as u64) << 8 | pid as u64),
                    )),
                };
                ProcState {
                    lib: PortalsLib::new(ProcessId::new(id.0, pid as u32), NiLimits::default()),
                    mem,
                    bridge: bridge_for(ps.bridge),
                    spec: *ps,
                    fw_proc: fw_proc_of[pid],
                    app: None,
                    wait: WaitState::Idle,
                    wake_scheduled: false,
                    finished: false,
                }
            })
            .collect();

        let tx_base = fw.config().rx_pendings;
        let rows = (0..fw_modes.len())
            .map(|_| HostRows {
                tx_free: TxFreeList::new(tx_base, fw.config().tx_pendings),
                tx: PendingRow::new(tx_base),
                rx: PendingRow::new(0),
                eq: VecDeque::new(),
            })
            .collect();

        Node {
            hot: NodeHot {
                next_tag: (id.0 as u64) << 40,
                ..NodeHot::default()
            },
            id,
            chip,
            fw,
            host: HostCpu::new(),
            procs,
            rows,
            peer_state: None,
            bad_process_drops: 0,
        }
    }

    /// Is the in-flight transmit `(fw_proc, pending)` a Reply (whose
    /// header the firmware synthesizes instead of fetching)?
    pub(crate) fn tx_is_reply(&self, fw_proc: ProcIdx, pending: PendingId) -> bool {
        self.rows[fw_proc as usize]
            .tx
            .get(pending)
            .is_some_and(|r| r.header.op() == PortalsOp::Reply)
    }

    /// Receives whose header the firmware took and that have not
    /// finished: each holds its delivery box in an RX row slot.
    pub fn receives_in_flight(&self) -> usize {
        self.rows.iter().map(|r| r.rx.occupied()).sum()
    }

    /// Transmits handed to the firmware that have not completed: each
    /// holds a host-managed TX pending and its record in a TX row slot.
    pub fn transmits_in_flight(&self) -> usize {
        self.rows.iter().map(|r| r.tx.occupied()).sum()
    }

    /// Fresh trace tag.
    pub(crate) fn fresh_tag(&mut self) -> u64 {
        self.hot.next_tag += 1;
        self.hot.next_tag
    }

    /// Why this node panicked; `None` if it never did.
    pub fn panic_cause(&self) -> Option<PanicCause> {
        self.hot.panic
    }

    /// Total go-back-n retransmissions this node has performed (across
    /// all peers).
    pub fn gbn_retransmissions(&self) -> u64 {
        self.peer_state
            .as_ref()
            .map_or(0, |p| p.gbn_tx.values().map(|s| s.retransmissions).sum())
    }

    /// The node's go-back-n and reply state, made on first use.
    pub(crate) fn peer_state(&mut self) -> &mut PeerState {
        self.peer_state.get_or_insert_with(Box::default)
    }

    /// Does this node hold its go-back-n and reply state — has it sent or
    /// taken a sequenced message, or awaited a Get's reply?
    pub fn holds_peer_state(&self) -> bool {
        self.peer_state.is_some()
    }

    pub(crate) fn set_wait(&mut self, pid: u32, req: WaitRequest) {
        self.procs[pid as usize].wait = match req {
            WaitRequest::None => WaitState::Idle,
            WaitRequest::Eq(h) => WaitState::Eq(h),
            WaitRequest::Timer(_) => WaitState::Timer,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rx_row_points_at_records_in_their_delivery_boxes() {
        // One record per receive in flight on every node: a contended
        // 512-node all-to-all holds ~0.2M at once, so each byte of the
        // box is 0.2 MB there. The row keeps its high water, and holds a
        // pointer a slot. The box is its larger cargo and no tag word:
        // the in-flight message ends before a niche of the record, so
        // rustc keeps the cargo's tag there. 72 B headers (88 before the
        // request and response words shared) and a stowed ticket (40 B
        // as a whole `MatchTicket`) took the in-flight message from 144
        // to 128 B, the record and the box from 160 to 136 (176 while the
        // wire message kept its own sequence and a payload its capacity).
        // Layout is rustc's choice: this pins it.
        assert_eq!(std::mem::size_of::<Option<Box<Parcel>>>(), 8);
        assert_eq!(std::mem::size_of::<crate::machine::InFlight>(), 128);
        assert_eq!(std::mem::size_of::<Parcel>(), 136);
        assert_eq!(std::mem::size_of::<RxRecord>(), 136);
    }
}
