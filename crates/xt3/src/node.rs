//! Per-node state: host + SeaStar + firmware + processes.

use crate::app::{App, WaitRequest};
use crate::config::{MachineConfig, NodeSpec, ProcSpec};
use crate::host::HostCpu;
use crate::wire::WireMsg;
// BTreeMap/BTreeSet, not HashMap/HashSet: iteration order must be
// deterministic for bit-identical replay (enforced by `cargo run -p
// audit -- lint`).
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use xt3_firmware::control::{Firmware, FwLayout, FwMode, ProcIdx};
use xt3_firmware::gbn::{GbnReceiver, GbnSender};
use xt3_firmware::mailbox::FwEvent;
use xt3_firmware::pending::PendingId;
use xt3_nal::addr::{AddressSpace, CatamountSpace, LinuxSpace};
use xt3_nal::bridge::{bridge_for, Bridge};
use xt3_portals::header::{PortalsHeader, PortalsOp};
use xt3_portals::library::{MatchTicket, PortalsLib, WireData};
use xt3_portals::slab::fit_by_use;
use xt3_portals::types::{MdHandle, NiLimits, ProcessId};
use xt3_seastar::chip::SeaStar;
use xt3_seastar::dma::DmaList;
use xt3_seastar::sram::Sram;
use xt3_sim::SimTime;
use xt3_topology::coord::NodeId;

/// A slab map keyed by `(fw_proc, pending)`: the host's record of each
/// message in flight.
///
/// Pending ids are small dense integers handed out lowest-first (the RX
/// pool and the host TX free list both recycle returned ids LIFO, then
/// issue the lowest fresh one), so a row of `Option<V>` slots per
/// firmware-level process gives O(1) insert/remove with no per-message
/// allocation. Each map stores ids relative to `base` (0 for the RX id
/// range, `tx_base` for the TX range), and a row reaches only as far as
/// the highest id ever in flight at once — a slot or two per node in
/// practice, not the firmware's table capacity — growing by the per-node
/// row rule, [`fit_by_use`]. Iteration, were it needed, is index-ordered
/// and so as deterministic as the `BTreeMap` whose API this keeps.
///
/// Not part of the crate's interface: `pub` so that the tier-1 suite
/// (`tests/rows.rs`) can step it against a `BTreeMap`.
#[doc(hidden)]
pub struct PendingMap<V> {
    slots: Vec<Vec<Option<V>>>,
    base: u32,
}

impl<V> PendingMap<V> {
    /// An empty map of `procs` rows holding ids at or above `base`.
    pub fn new(procs: usize, base: u32) -> Self {
        let mut slots = Vec::with_capacity(procs);
        slots.resize_with(procs, Vec::new);
        PendingMap { slots, base }
    }

    fn slot_of(&self, id: PendingId) -> Option<usize> {
        id.checked_sub(self.base).map(|s| s as usize)
    }

    /// Store `v` under `key`, returning what was there.
    ///
    /// # Panics
    ///
    /// Panics on a pending id below the map's base.
    pub fn insert(&mut self, key: (ProcIdx, PendingId), v: V) -> Option<V> {
        let p = key.0 as usize;
        let id = self.slot_of(key.1).expect("pending id below map base");
        if p >= self.slots.len() {
            self.slots.resize_with(p + 1, Vec::new);
        }
        let row = &mut self.slots[p];
        if id >= row.len() {
            fit_by_use(row, id + 1);
            row.resize_with(id + 1, || None);
        }
        row[id].replace(v)
    }

    /// The record under `key`.
    pub fn get(&self, key: &(ProcIdx, PendingId)) -> Option<&V> {
        let id = self.slot_of(key.1)?;
        self.slots.get(key.0 as usize)?.get(id)?.as_ref()
    }

    /// The record under `key`, mutably.
    pub fn get_mut(&mut self, key: &(ProcIdx, PendingId)) -> Option<&mut V> {
        let id = self.slot_of(key.1)?;
        self.slots.get_mut(key.0 as usize)?.get_mut(id)?.as_mut()
    }

    /// Take the record under `key` out; its slot stays for the id's next
    /// use.
    pub fn remove(&mut self, key: &(ProcIdx, PendingId)) -> Option<V> {
        let id = self.slot_of(key.1)?;
        self.slots.get_mut(key.0 as usize)?.get_mut(id)?.take()
    }

    /// Slots process `proc`'s row has been allocated: the next power of
    /// two above the highest id it ever held (relative to the base).
    #[doc(hidden)]
    pub fn row_capacity(&self, proc: ProcIdx) -> usize {
        self.slots.get(proc as usize).map_or(0, Vec::capacity)
    }
}

impl<V> std::ops::Index<&(ProcIdx, PendingId)> for PendingMap<V> {
    type Output = V;
    fn index(&self, key: &(ProcIdx, PendingId)) -> &V {
        self.get(key).expect("no record for pending")
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
/// `pub` for the same reason [`PendingMap`] is.
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

/// Host-side record of an in-flight transmit.
pub(crate) struct TxRecord {
    pub header: PortalsHeader,
    pub data: WireData,
    pub src_pid: u32,
    /// `Some` when a `SendEnd` must be posted to this MD on completion.
    pub md: Option<MdHandle>,
    pub tag: u64,
}

/// Host/NIC-side record of an in-flight receive.
pub(crate) struct RxRecord {
    pub header: PortalsHeader,
    pub data: WireData,
    pub wire_complete: SimTime,
    pub dst_pid: u32,
    pub piggyback: bool,
    pub ticket: Option<MatchTicket>,
    /// The message's wire tag, which the causal tracer uses as its
    /// [`xt3_sim::TraceId`] on the receive path.
    pub tag: u64,
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
    /// The node's firmware took an injected unrecoverable fault (fault
    /// plan): the NIC stops serving traffic and the RAS layer isolates
    /// the node without aborting the rest of the machine.
    pub dark: bool,
    /// The node hit unrecoverable resource exhaustion under the `Panic`
    /// policy (paper §4.3's shipped behaviour).
    pub panicked: bool,
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
    /// Host-managed TX pending free lists, per firmware-level process.
    pub(crate) tx_free: Vec<TxFreeList>,
    pub(crate) tx_store: PendingMap<TxRecord>,
    pub(crate) rx_store: PendingMap<RxRecord>,
    /// The host-memory event queues the firmware posts into (generic
    /// procs only; accelerated completions are handled inline).
    pub(crate) fw_eq: Vec<VecDeque<FwEvent>>,
    /// Reply deposit buffers prepared at `PtlGet` time, keyed by
    /// `(pid, initiator MD)`.
    pub(crate) await_reply: BTreeMap<(u32, MdHandle), DmaList>,
    /// Go-back-n sender state per destination node.
    pub(crate) gbn_tx: BTreeMap<u32, GbnSender<WireMsg>>,
    /// Go-back-n receiver state per source node.
    pub(crate) gbn_rx: BTreeMap<u32, GbnReceiver>,
    /// Transmits deferred because the go-back-n window was full, per
    /// destination node.
    pub(crate) gbn_deferred: BTreeMap<u32, VecDeque<WireMsg>>,
    /// Peers with a retransmission timer already armed (one timer per
    /// peer at a time).
    pub(crate) gbn_timer_armed: BTreeSet<u32>,
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
        let tx_count = fw.config().tx_pendings;
        let tx_free = (0..fw_modes.len())
            .map(|_| TxFreeList::new(tx_base, tx_count))
            .collect();
        let fw_eq = (0..fw_modes.len()).map(|_| VecDeque::new()).collect();

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
            tx_free,
            tx_store: PendingMap::new(fw_modes.len(), tx_base),
            rx_store: PendingMap::new(fw_modes.len(), 0),
            fw_eq,
            await_reply: BTreeMap::new(),
            gbn_tx: BTreeMap::new(),
            gbn_rx: BTreeMap::new(),
            gbn_deferred: BTreeMap::new(),
            gbn_timer_armed: BTreeSet::new(),
            bad_process_drops: 0,
        }
    }

    /// Allocate a host-managed TX pending for firmware-level process
    /// `fw_proc`.
    pub(crate) fn alloc_tx_pending(&mut self, fw_proc: ProcIdx) -> Option<PendingId> {
        self.tx_free[fw_proc as usize].pop()
    }

    /// Return a TX pending to the host free list.
    pub(crate) fn free_tx_pending(&mut self, fw_proc: ProcIdx, pending: PendingId) {
        self.tx_free[fw_proc as usize].push(pending);
    }

    /// Is the in-flight transmit `(fw_proc, pending)` a Reply (whose
    /// header the firmware synthesizes instead of fetching)?
    pub(crate) fn tx_is_reply(&self, fw_proc: ProcIdx, pending: PendingId) -> bool {
        self.tx_store
            .get(&(fw_proc, pending))
            .is_some_and(|r| r.header.op == PortalsOp::Reply)
    }

    /// Fresh trace tag.
    pub(crate) fn fresh_tag(&mut self) -> u64 {
        self.hot.next_tag += 1;
        self.hot.next_tag
    }

    /// Total go-back-n retransmissions this node has performed (across
    /// all peers).
    pub fn gbn_retransmissions(&self) -> u64 {
        self.gbn_tx.values().map(|s| s.retransmissions).sum()
    }

    pub(crate) fn set_wait(&mut self, pid: u32, req: WaitRequest) {
        self.procs[pid as usize].wait = match req {
            WaitRequest::None => WaitState::Idle,
            WaitRequest::Eq(h) => WaitState::Eq(h),
            WaitRequest::Timer(_) => WaitState::Timer,
        };
    }
}
