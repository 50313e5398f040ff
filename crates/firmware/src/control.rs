//! The firmware proper: the NIC control block and the §4.3 processing
//! rules, as an effects-returning state machine.
//!
//! The node model (`xt3-node`) owns the clock; every method here mutates
//! firmware state and returns the [`FwEffect`]s the PowerPC would initiate
//! (program a DMA engine, write an event, raise an interrupt). Handlers
//! run to completion, one at a time, exactly like the single-threaded
//! firmware loop.

use crate::mailbox::{FwCommand, FwEvent, Mailbox};
use crate::pending::{
    LowerPending, PendingId, PendingState, RxLink, LOWER_PENDING_BYTES, NO_SOURCE,
};
use crate::pool::Pool;
use crate::source::{Source, SourceId, SourceTable, NUM_SOURCES, SOURCE_BYTES};
use std::collections::VecDeque;
use std::sync::Arc;
use xt3_portals::slab::fit_by_use;
use xt3_seastar::dma::DmaList;
use xt3_seastar::sram::{Sram, SramError};

/// Index of a firmware-level process (0 = the generic Portals
/// implementation in the kernel; 1.. = accelerated processes).
pub type ProcIdx = u32;

/// Operating mode of a firmware-level process (§3.3/§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwMode {
    /// Host-driven: headers and completions interrupt the host, which does
    /// all Portals processing in the kernel.
    Generic,
    /// Offloaded: the firmware performs Portals matching itself and posts
    /// events directly into user space; no interrupts.
    Accelerated,
}

/// Compile-time-style firmware configuration (§4.2's constants).
#[derive(Debug, Clone, Copy)]
pub struct FwConfig {
    /// RX pendings per firmware-level process (firmware-managed pool).
    pub rx_pendings: u32,
    /// TX pendings per firmware-level process (host-managed pool).
    pub tx_pendings: u32,
    /// Global source structures.
    pub sources: u32,
    /// Mailbox command-FIFO depth.
    pub mailbox_depth: u32,
}

impl Default for FwConfig {
    fn default() -> Self {
        // Paper §4.2: 1,274 pendings allocated to the generic process and
        // 1,024 global sources. The rx/tx split is not published; we give
        // the receive side the larger share since receives are
        // firmware-paced.
        FwConfig {
            rx_pendings: 768,
            tx_pendings: 506,
            sources: NUM_SOURCES,
            mailbox_depth: 64,
        }
    }
}

impl FwConfig {
    /// Total pendings per process (the paper's 1,274 for the default).
    pub fn pendings_total(&self) -> u32 {
        self.rx_pendings + self.tx_pendings
    }
}

/// Effects the firmware hands back for the platform to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwEffect {
    /// Program the TX DMA engine for a pending at the head of the TX list.
    StartTxDma {
        /// Owning process.
        proc: ProcIdx,
        /// The pending to stream.
        pending: PendingId,
    },
    /// Program the RX DMA engine to deposit a pending at the head of its
    /// source's RX list.
    StartRxDma {
        /// Owning process.
        proc: ProcIdx,
        /// The pending to deposit.
        pending: PendingId,
    },
    /// Write the Portals header (and any piggybacked payload) into the
    /// upper pending in host memory.
    WriteUpperHeader {
        /// Owning process.
        proc: ProcIdx,
        /// The pending whose upper half to fill.
        pending: PendingId,
    },
    /// Post an event into the process's event queue (an HT write).
    PostEvent {
        /// Owning process.
        proc: ProcIdx,
        /// The event.
        event: FwEvent,
    },
    /// Raise the host interrupt (generic mode only).
    RaiseInterrupt,
    /// Perform Portals matching on the NIC (accelerated mode).
    MatchOnNic {
        /// Owning process.
        proc: ProcIdx,
        /// The pending holding the header.
        pending: PendingId,
    },
}

/// Unused filler for [`Effects`]' inline slots (never observable: `len`
/// bounds every read).
const FX_FILL: FwEffect = FwEffect::RaiseInterrupt;

/// How many effects an [`Effects`] list holds without heap allocation.
/// No single §4.3 handler produces more than three (event + interrupt +
/// next-DMA start); only multi-command mailbox drains spill.
pub const FX_INLINE: usize = 4;

/// The effect list a firmware handler returns.
///
/// Handlers run on the per-event hot path and return at most three
/// effects, so this stores up to [`FX_INLINE`] inline and only spills to
/// a `Vec` when lists are concatenated (mailbox drains). Dereferences to
/// `&[FwEffect]`, so it reads like the `Vec` it replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effects {
    /// At most [`FX_INLINE`] effects, no heap.
    Inline {
        /// Number of live entries in `fx`.
        len: u8,
        /// Storage; entries at `len..` are filler.
        fx: [FwEffect; FX_INLINE],
    },
    /// Spilled to the heap (concatenated lists).
    Heap(Vec<FwEffect>),
}

impl Effects {
    /// An empty list.
    pub const fn new() -> Self {
        Effects::Inline {
            len: 0,
            fx: [FX_FILL; FX_INLINE],
        }
    }

    /// A single-effect list.
    pub const fn one(e: FwEffect) -> Self {
        Effects::Inline {
            len: 1,
            fx: [e, FX_FILL, FX_FILL, FX_FILL],
        }
    }

    /// Append an effect, spilling to the heap past [`FX_INLINE`].
    pub fn push(&mut self, e: FwEffect) {
        match self {
            Effects::Inline { len, fx } => {
                if let Some(slot) = fx.get_mut(*len as usize) {
                    *slot = e;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(FX_INLINE + 1);
                    v.extend_from_slice(&fx[..]);
                    v.push(e);
                    *self = Effects::Heap(v);
                }
            }
            Effects::Heap(v) => v.push(e),
        }
    }

    /// Append every effect of `other` in order.
    pub fn append(&mut self, other: &Effects) {
        for &e in other.as_slice() {
            self.push(e);
        }
    }

    /// The live effects.
    pub fn as_slice(&self) -> &[FwEffect] {
        match self {
            Effects::Inline { len, fx } => fx.get(..*len as usize).unwrap_or(&[]),
            Effects::Heap(v) => v,
        }
    }
}

impl Default for Effects {
    fn default() -> Self {
        Effects::new()
    }
}

impl std::ops::Deref for Effects {
    type Target = [FwEffect];
    fn deref(&self) -> &[FwEffect] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Effects {
    type Item = &'a FwEffect;
    type IntoIter = std::slice::Iter<'a, FwEffect>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Resource-exhaustion conditions (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwError {
    /// The target process's RX pending free list is empty.
    NoRxPending,
    /// The global source pool is exhausted.
    NoSource,
    /// A command referenced a pending in the wrong state.
    BadPending,
    /// Unknown firmware-level process id in a header.
    BadProcess,
    /// A DMA completion arrived with no matching in-progress transfer —
    /// the TX list or the source's RX list did not name it. Indicates
    /// corrupted firmware state; the platform isolates the node rather
    /// than panicking the whole simulation.
    SpuriousCompletion,
}

impl std::fmt::Display for FwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FwError::NoRxPending => "rx pending pool exhausted",
            FwError::NoSource => "source pool exhausted or source missing",
            FwError::BadPending => "pending in wrong state",
            FwError::BadProcess => "unknown firmware-level process",
            FwError::SpuriousCompletion => "dma completion with no in-progress transfer",
        };
        f.write_str(s)
    }
}

/// Firmware counters exposed to the experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct FwCounters {
    /// Headers received.
    pub rx_headers: u64,
    /// Headers whose payload piggybacked in the header packet.
    pub rx_piggybacked: u64,
    /// Transmits completed.
    pub tx_completions: u64,
    /// Interrupts requested (generic mode).
    pub interrupts: u64,
    /// Interrupts raised for transmit completions (sender side).
    pub tx_interrupts: u64,
    /// Interrupts raised for new-message headers — one per host-path
    /// message in generic mode, piggybacked or not.
    pub rx_header_interrupts: u64,
    /// Interrupts raised for receive-DMA completions — the second
    /// per-message interrupt the ≤12 B header piggyback eliminates (§6).
    pub rx_complete_interrupts: u64,
    /// Headers dropped to exhaustion.
    pub exhaustion_drops: u64,
    /// RAS heartbeats written to the control block (Figure 3's
    /// "heartbeat for RAS").
    pub heartbeats: u64,
}

/// One firmware-level process's state.
#[derive(Debug)]
struct FwProcess {
    mode: FwMode,
    mailbox: Mailbox,
    /// Firmware-managed RX pool; ids `[0, rx_cap)`.
    rx_pool: Pool<LowerPending>,
    /// Host-managed TX pendings; ids `[rx_cap, rx_cap + tx_cap)`. Grows
    /// on first write of each slot (the host's Transmit command always
    /// writes a pending before anything reads it), so the vector's length
    /// is the TX-concurrency high-water mark, not the table capacity.
    tx_lower: Vec<LowerPending>,
}

/// The commands in a host-pushed DMA list, as [`LowerPending::chunks`].
fn chunk_count(dma: &DmaList) -> u32 {
    u32::try_from(dma.len()).unwrap_or(u32::MAX)
}

/// The `next` link of the pending `at` names. RX lists thread through
/// the RX pools only: TX pendings are never on one.
fn rx_next(processes: &mut [FwProcess], at: RxLink) -> Result<&mut RxLink, FwError> {
    let (proc, pending) = at.get().ok_or(FwError::BadPending)?;
    let p = processes.get_mut(proc as usize);
    let lp = p.and_then(|p| p.rx_pool.get_mut(pending));
    Ok(&mut lp.ok_or(FwError::BadPending)?.next)
}

/// A firmware layout that fits: a configuration, the processes it
/// serves and the SRAM ledger their structures were reserved in. The
/// ledger is a function of the other two alone, so a machine takes one
/// layout per distinct node shape, every chip of that shape reads the
/// same ledger, and every [`Firmware`] made from it has had its fit
/// checked — there is no third way to one besides [`Firmware::new`].
#[derive(Debug, Clone)]
pub struct FwLayout {
    config: FwConfig,
    modes: Vec<FwMode>,
    sram: Arc<Sram>,
}

impl FwLayout {
    /// Reserve in `sram` what a firmware of `config` running `modes`
    /// keeps there, or say what did not fit.
    pub fn reserve(config: FwConfig, modes: &[FwMode], mut sram: Sram) -> Result<Self, SramError> {
        Firmware::reserve(config, modes, &mut sram)?;
        Ok(FwLayout {
            config,
            modes: modes.to_vec(),
            sram: Arc::new(sram),
        })
    }

    /// The ledger, as every chip of this layout reads it.
    pub fn sram(&self) -> &Arc<Sram> {
        &self.sram
    }

    /// A fresh firmware of this layout.
    pub fn firmware(&self) -> Firmware {
        Firmware::build(self.config, &self.modes)
    }
}

/// The firmware: control block plus per-process state.
#[derive(Debug)]
pub struct Firmware {
    config: FwConfig,
    processes: Vec<FwProcess>,
    sources: SourceTable,
    /// The single global TX pending list (§4.3: "All transmits,
    /// regardless of destination or process type, are serialized through a
    /// single TX FIFO"). Entries are `(proc, pending)`.
    tx_list: VecDeque<(ProcIdx, PendingId)>,
    counters: FwCounters,
}

impl Firmware {
    /// Initialize the firmware with `modes[i]` describing firmware-level
    /// process `i`, reserving its structures from the chip SRAM.
    pub fn new(config: FwConfig, modes: &[FwMode], sram: &mut Sram) -> Result<Self, SramError> {
        Self::reserve(config, modes, sram)?;
        Ok(Self::build(config, modes))
    }

    /// Reserve from `sram` everything a firmware of `config` running
    /// `modes` keeps there (the §4.2 occupancy).
    fn reserve(config: FwConfig, modes: &[FwMode], sram: &mut Sram) -> Result<(), SramError> {
        // The control block and the firmware image itself (22 KB when
        // compiled with GCC 4.0 -O3, §4).
        sram.reserve("firmware image", 22 * 1024)?;
        sram.reserve("control block", 512)?;
        sram.reserve_array("sources", config.sources, SOURCE_BYTES)?;
        for i in 0..modes.len() {
            sram.reserve_array(
                format!("pendings[{i}]"),
                config.pendings_total(),
                LOWER_PENDING_BYTES,
            )?;
            sram.reserve(format!("process[{i}]"), 256)?;
            sram.reserve(format!("mailbox[{i}]"), 512)?;
        }
        Ok(())
    }

    /// The firmware over structures [`Self::reserve`] has found room for.
    fn build(config: FwConfig, modes: &[FwMode]) -> Self {
        let processes = modes.iter().map(|&mode| FwProcess {
            mode,
            mailbox: Mailbox::new(config.mailbox_depth),
            rx_pool: Pool::new(config.rx_pendings),
            tx_lower: Vec::new(),
        });
        Firmware {
            config,
            processes: processes.collect(),
            sources: SourceTable::new(config.sources),
            tx_list: VecDeque::new(),
            counters: FwCounters::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FwConfig {
        &self.config
    }

    /// Counters.
    pub fn counters(&self) -> FwCounters {
        self.counters
    }

    /// Number of firmware-level processes.
    pub fn process_count(&self) -> u32 {
        self.processes.len() as u32
    }

    /// Borrow a process's state, surfacing an unknown id as the typed
    /// error every handler path propagates.
    fn process(&self, proc: ProcIdx) -> Result<&FwProcess, FwError> {
        self.processes.get(proc as usize).ok_or(FwError::BadProcess)
    }

    fn process_mut(&mut self, proc: ProcIdx) -> Result<&mut FwProcess, FwError> {
        self.processes
            .get_mut(proc as usize)
            .ok_or(FwError::BadProcess)
    }

    /// A process's mode. Unknown ids read as [`FwMode::Generic`] (the
    /// conservative interrupt-raising mode) — the host side only asks
    /// about processes it configured, which the debug assert enforces.
    pub fn mode(&self, proc: ProcIdx) -> FwMode {
        debug_assert!((proc as usize) < self.processes.len(), "unknown proc");
        self.process(proc).map_or(FwMode::Generic, |p| p.mode)
    }

    /// Host-side mailbox access (the host posts commands through this).
    pub fn mailbox_mut(&mut self, proc: ProcIdx) -> Result<&mut Mailbox, FwError> {
        Ok(&mut self.process_mut(proc)?.mailbox)
    }

    /// Read-only mailbox access (telemetry harvesting).
    pub fn mailbox(&self, proc: ProcIdx) -> Result<&Mailbox, FwError> {
        Ok(&self.process(proc)?.mailbox)
    }

    /// The source table (diagnostics / exhaustion experiments).
    pub fn sources(&self) -> &SourceTable {
        &self.sources
    }

    /// RX pool diagnostics for a process: `(in_use, high_water,
    /// alloc_failures)`. Unknown ids read as zeros (telemetry never
    /// isolates a node).
    pub fn rx_pool_stats(&self, proc: ProcIdx) -> (u32, u32, u64) {
        self.process(proc).map_or((0, 0, 0), |p| {
            (
                p.rx_pool.in_use(),
                p.rx_pool.high_water(),
                p.rx_pool.alloc_failures(),
            )
        })
    }

    /// First TX pending id for a process (host-managed ids start here).
    pub fn tx_base(&self) -> PendingId {
        self.config.rx_pendings
    }

    /// Borrow a lower pending. Fails with [`FwError::BadPending`] when
    /// the id falls outside both the RX pool and the TX range.
    pub fn lower(&self, proc: ProcIdx, pending: PendingId) -> Result<&LowerPending, FwError> {
        let p = self.process(proc)?;
        if pending < self.config.rx_pendings {
            p.rx_pool.get(pending).ok_or(FwError::BadPending)
        } else {
            p.tx_lower
                .get((pending - self.config.rx_pendings) as usize)
                .ok_or(FwError::BadPending)
        }
    }

    fn lower_mut(
        &mut self,
        proc: ProcIdx,
        pending: PendingId,
    ) -> Result<&mut LowerPending, FwError> {
        let rx_cap = self.config.rx_pendings;
        let tx_cap = self.config.tx_pendings;
        let p = self.process_mut(proc)?;
        if pending < rx_cap {
            p.rx_pool.get_mut(pending).ok_or(FwError::BadPending)
        } else {
            let slot = (pending - rx_cap) as usize;
            if slot >= tx_cap as usize {
                return Err(FwError::BadPending);
            }
            if slot >= p.tx_lower.len() {
                fit_by_use(&mut p.tx_lower, slot + 1);
                p.tx_lower.resize_with(slot + 1, LowerPending::default);
            }
            p.tx_lower.get_mut(slot).ok_or(FwError::BadPending)
        }
    }

    /// Find or allocate `node`'s source structure, as the id a
    /// [`LowerPending`] carries. `None` on pool exhaustion (and for an id
    /// that does not fit, which 384 KB of SRAM cannot hold).
    ///
    /// A dry pool gives back one idle source first (§4.2: a source is
    /// allocated to each node the firmware "is sending a message to or
    /// receiving a message from", so one it is doing neither with is
    /// free to go): the lowest-numbered source whose RX list is empty
    /// and that no lower pending still in use names. Go-back-n state is
    /// keyed by peer, not source, so a reclaimed peer resumes where it
    /// was. The failed first allocation is counted in the pool's
    /// `alloc_failures`, reclaimed or not.
    fn source_for(&mut self, node: u32) -> Option<u16> {
        let id = match self.sources.find_or_alloc(node) {
            Some(id) => id,
            None => {
                let named = self.named_sources();
                self.sources.release_idle(&named)?;
                self.sources.find_or_alloc(node)?
            }
        };
        u16::try_from(id).ok().filter(|&id| id != NO_SOURCE)
    }

    /// Which sources a lower pending in use names, by source id: RX
    /// pendings between header and release, TX pendings between transmit
    /// and release.
    fn named_sources(&self) -> Vec<bool> {
        let mut named = vec![false; self.config.sources as usize];
        for p in &self.processes {
            let rx = (0..p.rx_pool.materialized()).filter_map(|i| p.rx_pool.get(i));
            for lp in rx.chain(&p.tx_lower) {
                if lp.state != PendingState::Free {
                    if let Some(slot) = named.get_mut(usize::from(lp.source)) {
                        *slot = true;
                    }
                }
            }
        }
        named
    }

    /// `proc`'s RX `pending` as a link, the source of the peer it came
    /// from, and the pools its list threads through. The source was
    /// allocated at header time and stays live while its RX list is
    /// non-empty; finding another node's (or none) under the recorded id
    /// means the host named a pending we never advertised.
    fn rx_list(
        &mut self,
        proc: ProcIdx,
        pending: PendingId,
    ) -> Result<(RxLink, &mut Source, &mut [FwProcess]), FwError> {
        let lp = self.lower(proc, pending)?;
        let (source, peer) = (SourceId::from(lp.source), lp.peer);
        let link = RxLink::new(proc, pending).ok_or(FwError::BadPending)?;
        let src = self.sources.get_mut_for(source, peer);
        Ok((link, src.ok_or(FwError::NoSource)?, &mut self.processes))
    }

    /// Append `proc`'s `pending` to its source's RX list; `true` when it
    /// is now the head: the list was empty, so its deposit starts now.
    fn push_rx(&mut self, proc: ProcIdx, pending: PendingId) -> Result<bool, FwError> {
        let (link, src, processes) = self.rx_list(proc, pending)?;
        *rx_next(processes, link)? = RxLink::END;
        match src.rx_tail {
            RxLink::END => src.rx_head = link,
            tail => *rx_next(processes, tail)? = link,
        }
        src.rx_tail = link;
        Ok(src.rx_head == link)
    }

    /// Take `proc`'s `pending`, whose deposit is done, off the head of its
    /// source's RX list and return the new head: the deposit to start
    /// next, or [`RxLink::END`]. Anything but the head is
    /// [`FwError::SpuriousCompletion`].
    fn pop_rx(&mut self, proc: ProcIdx, pending: PendingId) -> Result<RxLink, FwError> {
        let (link, src, processes) = self.rx_list(proc, pending)?;
        if src.rx_head != link {
            return Err(FwError::SpuriousCompletion);
        }
        src.rx_head = std::mem::take(rx_next(processes, link)?);
        if src.rx_head == RxLink::END {
            src.rx_tail = RxLink::END;
        }
        Ok(src.rx_head)
    }

    // ----- main-loop entry points (§4.3) -----

    /// Process one host command.
    ///
    /// Event handlers return typed errors instead of panicking: clippy's
    /// panic lints are denied across the crate (a corrupt host command
    /// must isolate the node, not abort the simulation).
    pub fn handle_command(&mut self, proc: ProcIdx, cmd: FwCommand) -> Result<Effects, FwError> {
        match cmd {
            FwCommand::Transmit {
                pending,
                target_node,
                length,
                dma,
                tag: _,
            } => {
                // Look up and initialize the lower pending from the
                // host-pushed command, allocate a source for the target if
                // needed, and enqueue on the single TX list.
                let source = self.source_for(target_node).unwrap_or(NO_SOURCE);
                {
                    let lp = self.lower_mut(proc, pending)?;
                    lp.state = PendingState::TxQueued;
                    lp.peer = target_node;
                    lp.source = source;
                    lp.length = length;
                    lp.chunks = chunk_count(&dma);
                    lp.direct = false;
                }
                self.tx_list.push_back((proc, pending));
                if self.tx_list.len() == 1 {
                    self.lower_mut(proc, pending)?.state = PendingState::TxActive;
                    Ok(Effects::one(FwEffect::StartTxDma { proc, pending }))
                } else {
                    Ok(Effects::new())
                }
            }
            FwCommand::RecvDeposit {
                pending,
                length,
                drop_length: _,
                dma,
            } => self.deposit(proc, pending, length, chunk_count(&dma)),
            FwCommand::RecvDiscard { pending } => {
                let lp = self.lower_mut(proc, pending)?;
                if lp.state == PendingState::RxHeaderPending {
                    lp.state = PendingState::Free;
                    self.process_mut(proc)?.rx_pool.free(pending);
                }
                Ok(Effects::new())
            }
            FwCommand::ReleasePending { pending } => {
                let rx_cap = self.config.rx_pendings;
                let lp = self.lower_mut(proc, pending)?;
                if lp.state == PendingState::AwaitRelease {
                    lp.state = PendingState::Free;
                    if pending < rx_cap {
                        self.process_mut(proc)?.rx_pool.free(pending);
                    }
                }
                Ok(Effects::new())
            }
        }
    }

    /// Queue a firmware-direct deposit (Reply data whose buffer the
    /// originating get command pushed down, as a list of `chunks` DMA
    /// commands): enqueues on the source's RX pending list exactly like a
    /// host `RecvDeposit`, without a mailbox round trip.
    pub fn direct_deposit(
        &mut self,
        proc: ProcIdx,
        pending: PendingId,
        length: u64,
        chunks: u32,
    ) -> Result<Effects, FwError> {
        self.deposit(proc, pending, length, chunks)
    }

    /// A receive's buffer is known: queue `pending` on its source's RX
    /// list, and start its deposit if the list was empty. A pending not
    /// waiting on its buffer is left as it is.
    fn deposit(
        &mut self,
        proc: ProcIdx,
        pending: PendingId,
        length: u64,
        chunks: u32,
    ) -> Result<Effects, FwError> {
        let lp = self.lower_mut(proc, pending)?;
        if lp.state != PendingState::RxHeaderPending {
            return Ok(Effects::new());
        }
        lp.state = PendingState::RxQueued;
        lp.length = length;
        lp.chunks = chunks;
        if !self.push_rx(proc, pending)? {
            return Ok(Effects::new());
        }
        self.lower_mut(proc, pending)?.state = PendingState::RxActive;
        Ok(Effects::one(FwEffect::StartRxDma { proc, pending }))
    }

    /// The TX DMA engine finished streaming the head-of-list pending.
    ///
    /// A completion with an empty TX list is a spurious interrupt from
    /// the DMA engine (or corrupted firmware state) and is surfaced as a
    /// typed error rather than a panic.
    pub fn tx_dma_complete(&mut self) -> Result<Effects, FwError> {
        let (proc, pending) = self
            .tx_list
            .pop_front()
            .ok_or(FwError::SpuriousCompletion)?;
        self.counters.tx_completions += 1;
        self.lower_mut(proc, pending)?.state = PendingState::AwaitRelease;

        let mut effects = Effects::one(FwEffect::PostEvent {
            proc,
            event: FwEvent::TxComplete { pending },
        });
        if self.process(proc)?.mode == FwMode::Generic {
            self.counters.interrupts += 1;
            self.counters.tx_interrupts += 1;
            effects.push(FwEffect::RaiseInterrupt);
        }
        if let Some(&(nproc, npending)) = self.tx_list.front() {
            self.lower_mut(nproc, npending)?.state = PendingState::TxActive;
            effects.push(FwEffect::StartTxDma {
                proc: nproc,
                pending: npending,
            });
        }
        Ok(effects)
    }

    /// Record a header rejection forced by the fault-injection subsystem's
    /// SRAM pool-exhaustion pulse. The header was seen but no pending was
    /// allocated; accounting matches a real pool miss so exhaustion
    /// counters cover injected squeezes too.
    pub fn note_injected_exhaustion(&mut self) {
        self.counters.rx_headers += 1;
        self.counters.exhaustion_drops += 1;
    }

    /// A new message header arrived from the network for firmware-level
    /// process `proc`.
    ///
    /// On success returns the RX pending id and the effects (upper-header
    /// write plus either the generic header event + interrupt or the
    /// accelerated on-NIC match). `piggybacked` marks payloads that rode in
    /// the header packet.
    pub fn rx_header(
        &mut self,
        proc: ProcIdx,
        from_node: u32,
        piggybacked: bool,
        direct: bool,
    ) -> Result<(PendingId, Effects), FwError> {
        self.process(proc)?;
        self.counters.rx_headers += 1;
        if piggybacked {
            self.counters.rx_piggybacked += 1;
        }
        let Some(source) = self.source_for(from_node) else {
            self.counters.exhaustion_drops += 1;
            return Err(FwError::NoSource);
        };
        let Some(pending) = self.process_mut(proc)?.rx_pool.alloc() else {
            self.counters.exhaustion_drops += 1;
            return Err(FwError::NoRxPending);
        };
        {
            let lp = self.lower_mut(proc, pending)?;
            lp.state = PendingState::RxHeaderPending;
            lp.peer = from_node;
            lp.source = source;
            lp.chunks = 0;
            lp.direct = direct;
        }
        let mut effects = Effects::one(FwEffect::WriteUpperHeader { proc, pending });
        if direct {
            // Reply/Ack: the firmware already knows the destination buffer
            // (the originating command pushed it down); no host matching,
            // no interrupt. The node model drives the deposit directly.
            return Ok((pending, effects));
        }
        match self.process(proc)?.mode {
            FwMode::Generic => {
                effects.push(FwEffect::PostEvent {
                    proc,
                    event: FwEvent::RxHeader { pending },
                });
                self.counters.interrupts += 1;
                self.counters.rx_header_interrupts += 1;
                effects.push(FwEffect::RaiseInterrupt);
            }
            FwMode::Accelerated => {
                effects.push(FwEffect::MatchOnNic { proc, pending });
            }
        }
        Ok((pending, effects))
    }

    /// The RX DMA engine finished depositing `pending`.
    ///
    /// Fails with [`FwError::NoSource`] when the completion names a peer
    /// with no live source structure, and with
    /// [`FwError::SpuriousCompletion`] when `pending` is not the deposit
    /// in progress from it (corrupted state) — handlers never panic.
    pub fn rx_dma_complete(
        &mut self,
        proc: ProcIdx,
        pending: PendingId,
    ) -> Result<Effects, FwError> {
        let next = self.pop_rx(proc, pending)?;

        let direct = {
            let lp = self.lower_mut(proc, pending)?;
            lp.state = PendingState::AwaitRelease;
            lp.direct
        };

        let mut effects = Effects::new();
        if !direct {
            effects.push(FwEffect::PostEvent {
                proc,
                event: FwEvent::RxComplete { pending },
            });
            if self.process(proc)?.mode == FwMode::Generic {
                self.counters.interrupts += 1;
                self.counters.rx_complete_interrupts += 1;
                effects.push(FwEffect::RaiseInterrupt);
            }
        }
        // The next deposit may be another process's: the link says whose.
        if let Some((nproc, npending)) = next.get() {
            self.lower_mut(nproc, npending)?.state = PendingState::RxActive;
            effects.push(FwEffect::StartRxDma {
                proc: nproc,
                pending: npending,
            });
        }
        Ok(effects)
    }

    /// Free a direct pending immediately after the node finished its
    /// inline completion (no host release command is involved). A
    /// foreign id is ignored (the node only releases pendings the
    /// firmware handed it).
    pub fn release_direct(&mut self, proc: ProcIdx, pending: PendingId) {
        let Ok(lp) = self.lower_mut(proc, pending) else {
            debug_assert!(false, "release_direct on foreign pending");
            return;
        };
        debug_assert!(lp.direct, "release_direct on non-direct pending");
        debug_assert!(matches!(
            lp.state,
            PendingState::AwaitRelease | PendingState::RxHeaderPending
        ));
        lp.state = PendingState::Free;
        if let Ok(p) = self.process_mut(proc) {
            p.rx_pool.free(pending);
        }
    }

    /// Tick the control block's RAS heartbeat (Figure 3). The RAS system
    /// reads this to distinguish a hung firmware from a hung application.
    pub fn ras_heartbeat(&mut self) {
        self.counters.heartbeats += 1;
    }

    /// A piggybacked (≤ 12 byte) message needs no RX DMA: the payload was
    /// written with the header. Completes the pending immediately after
    /// host matching deposits the bytes.
    pub fn rx_piggyback_complete(&mut self, proc: ProcIdx, pending: PendingId) {
        let Ok(lp) = self.lower_mut(proc, pending) else {
            debug_assert!(false, "piggyback completion for foreign pending");
            return;
        };
        debug_assert_eq!(lp.state, PendingState::RxHeaderPending);
        lp.state = PendingState::AwaitRelease;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_seastar::dma::DmaCommand;

    fn fw(modes: &[FwMode]) -> (Firmware, Sram) {
        let mut sram = Sram::default();
        let f = Firmware::new(FwConfig::default(), modes, &mut sram).unwrap();
        (f, sram)
    }

    fn tx_cmd(pending: PendingId, target: u32) -> FwCommand {
        FwCommand::Transmit {
            pending,
            target_node: target,
            length: 1024,
            dma: DmaList::new(),
            tag: 0,
        }
    }

    #[test]
    fn default_config_matches_paper_counts() {
        let c = FwConfig::default();
        assert_eq!(c.pendings_total(), 1274);
        assert_eq!(c.sources, 1024);
    }

    #[test]
    fn sram_accounting_covers_formula() {
        let (_f, sram) = fw(&[FwMode::Generic]);
        // M = S*Ssize + sum(Pi*Psize) for the message structures.
        let expected_msg_structs = 1024 * 32 + 1274 * 64;
        let msg_bytes: u32 = sram
            .regions()
            .iter()
            .filter(|r| r.name.starts_with("sources") || r.name.starts_with("pendings"))
            .map(|r| r.bytes)
            .sum();
        assert_eq!(msg_bytes, expected_msg_structs);
        assert!(sram.used() <= sram.capacity());
    }

    #[test]
    fn several_more_processes_fit_in_sram() {
        // Paper §4.2: "several more similarly sized pending pools can be
        // supported for additional firmware-level processes."
        let mut sram = Sram::default();
        let f = Firmware::new(
            FwConfig::default(),
            &[FwMode::Generic, FwMode::Accelerated, FwMode::Accelerated],
            &mut sram,
        )
        .unwrap();
        assert_eq!(f.process_count(), 3);
    }

    #[test]
    fn a_layout_is_the_ledger_new_leaves_and_refuses_what_new_refuses() {
        let modes = [FwMode::Generic, FwMode::Accelerated];
        let (f, sram) = fw(&modes);
        let layout = FwLayout::reserve(FwConfig::default(), &modes, Sram::default()).unwrap();
        assert_eq!(layout.sram().used(), sram.used());
        assert_eq!(layout.sram().regions().len(), sram.regions().len());
        assert_eq!(layout.firmware().process_count(), f.process_count());

        let tight = || Sram::new(64 * 1024);
        let by_new = Firmware::new(FwConfig::default(), &modes, &mut tight()).unwrap_err();
        let by_layout = FwLayout::reserve(FwConfig::default(), &modes, tight()).unwrap_err();
        assert_eq!(by_layout, by_new);
    }

    #[test]
    fn single_tx_fifo_serializes_all_transmits() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let base = f.tx_base();
        // First transmit starts the DMA immediately.
        let e1 = f.handle_command(0, tx_cmd(base, 1)).unwrap();
        assert_eq!(
            e1.as_slice(),
            &[FwEffect::StartTxDma {
                proc: 0,
                pending: base
            }]
        );
        // Second (even to a different node) just queues.
        let e2 = f.handle_command(0, tx_cmd(base + 1, 2)).unwrap();
        assert!(e2.is_empty());

        // Completion posts an event, raises the interrupt (generic) and
        // starts the next transmit.
        let e3 = f.tx_dma_complete().unwrap();
        assert!(e3.contains(&FwEffect::PostEvent {
            proc: 0,
            event: FwEvent::TxComplete { pending: base }
        }));
        assert!(e3.contains(&FwEffect::RaiseInterrupt));
        assert!(e3.contains(&FwEffect::StartTxDma {
            proc: 0,
            pending: base + 1
        }));
    }

    #[test]
    fn rx_header_generic_posts_event_and_interrupt() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let (pending, effects) = f.rx_header(0, 7, false, false).unwrap();
        assert_eq!(effects[0], FwEffect::WriteUpperHeader { proc: 0, pending });
        assert!(effects.contains(&FwEffect::PostEvent {
            proc: 0,
            event: FwEvent::RxHeader { pending }
        }));
        assert!(effects.contains(&FwEffect::RaiseInterrupt));
        assert_eq!(f.counters().rx_headers, 1);
        assert_eq!(f.sources().in_use(), 1);
    }

    #[test]
    fn rx_header_accelerated_matches_on_nic() {
        let (mut f, _) = fw(&[FwMode::Accelerated]);
        let (pending, effects) = f.rx_header(0, 7, true, false).unwrap();
        assert!(effects.contains(&FwEffect::MatchOnNic { proc: 0, pending }));
        assert!(!effects.contains(&FwEffect::RaiseInterrupt));
        assert_eq!(f.counters().rx_piggybacked, 1);
        assert_eq!(f.counters().interrupts, 0);
    }

    #[test]
    fn per_source_rx_lists_serialize_deposits() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let (p1, _) = f.rx_header(0, 7, false, false).unwrap();
        let (p2, _) = f.rx_header(0, 7, false, false).unwrap();
        let (p3, _) = f.rx_header(0, 8, false, false).unwrap();

        // Deposits for the same source queue; the first starts DMA.
        let e1 = f
            .handle_command(
                0,
                FwCommand::RecvDeposit {
                    pending: p1,
                    length: 100,
                    drop_length: 0,
                    dma: DmaList::new(),
                },
            )
            .unwrap();
        assert_eq!(e1.len(), 1);
        let e2 = f
            .handle_command(
                0,
                FwCommand::RecvDeposit {
                    pending: p2,
                    length: 100,
                    drop_length: 0,
                    dma: DmaList::new(),
                },
            )
            .unwrap();
        assert!(e2.is_empty(), "second deposit from same source queues");

        // A different source proceeds independently.
        let e3 = f
            .handle_command(
                0,
                FwCommand::RecvDeposit {
                    pending: p3,
                    length: 100,
                    drop_length: 0,
                    dma: DmaList::new(),
                },
            )
            .unwrap();
        assert_eq!(e3.len(), 1);

        // Completing p1 starts p2.
        let e4 = f.rx_dma_complete(0, p1).unwrap();
        assert!(e4.iter().any(|e| matches!(
            e,
            FwEffect::StartRxDma { pending, .. } if *pending == p2
        )));
    }

    #[test]
    fn one_peers_rx_list_keeps_each_pending_with_its_process() {
        // Pools are per process: a generic and an accelerated process
        // both hold pending 0 from peer 5. Completing process 0's deposit
        // must start process 1's, not process 0's own again.
        let (mut f, _) = fw(&[FwMode::Generic, FwMode::Accelerated]);
        let (p0, _) = f.rx_header(0, 5, false, false).unwrap();
        let (p1, _) = f.rx_header(1, 5, false, false).unwrap();
        assert_eq!((p0, p1), (0, 0));
        let deposit = |pending| FwCommand::RecvDeposit {
            pending,
            length: 64,
            drop_length: 0,
            dma: DmaList::new(),
        };
        let started = f.handle_command(0, deposit(p0)).unwrap();
        assert!(matches!(
            started.as_slice(),
            [FwEffect::StartRxDma {
                proc: 0,
                pending: 0
            }]
        ));
        assert!(f.handle_command(1, deposit(p1)).unwrap().is_empty());

        let done = f.rx_dma_complete(0, p0).unwrap();
        assert!(matches!(
            done.last(),
            Some(FwEffect::StartRxDma {
                proc: 1,
                pending: 0
            })
        ));
        assert_eq!(f.lower(0, p0).unwrap().state, PendingState::AwaitRelease);
        assert_eq!(f.lower(1, p1).unwrap().state, PendingState::RxActive);
        assert_eq!(
            f.rx_dma_complete(0, p0).unwrap_err(),
            FwError::SpuriousCompletion,
            "process 0's deposit is no longer the one in progress"
        );
        let done = f.rx_dma_complete(1, p1).unwrap();
        assert!(!done
            .iter()
            .any(|e| matches!(e, FwEffect::StartRxDma { .. })));
        assert_eq!(f.lower(1, p1).unwrap().state, PendingState::AwaitRelease);
    }

    #[test]
    fn release_returns_rx_pending_to_pool() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let (p, _) = f.rx_header(0, 7, false, false).unwrap();
        f.handle_command(
            0,
            FwCommand::RecvDeposit {
                pending: p,
                length: 10,
                drop_length: 0,
                dma: DmaList::new(),
            },
        )
        .unwrap();
        f.rx_dma_complete(0, p).unwrap();
        assert_eq!(f.rx_pool_stats(0).0, 1);
        f.handle_command(0, FwCommand::ReleasePending { pending: p })
            .unwrap();
        assert_eq!(f.rx_pool_stats(0).0, 0);
    }

    #[test]
    fn a_pending_keeps_the_count_of_its_dma_list() {
        // Three commands spill a list to the heap (a paged buffer); each
        // path that records a receive's or transmit's list keeps only its
        // length.
        let paged = || {
            let cmd = DmaCommand {
                phys_addr: 0x1000,
                bytes: 4096,
            };
            DmaList::repeat(cmd, 3)
        };
        assert!(matches!(paged(), DmaList::Heap(_)));
        let (mut f, _) = fw(&[FwMode::Generic]);

        let tx = f.tx_base();
        let transmit = FwCommand::Transmit {
            pending: tx,
            target_node: 7,
            length: 3 * 4096,
            dma: paged(),
            tag: 0,
        };
        f.handle_command(0, transmit).unwrap();
        assert_eq!(f.lower(0, tx).unwrap().chunks, 3);

        let (host, _) = f.rx_header(0, 7, false, false).unwrap();
        assert_eq!(f.lower(0, host).unwrap().chunks, 0);
        let deposit = FwCommand::RecvDeposit {
            pending: host,
            length: 3 * 4096,
            drop_length: 0,
            dma: paged(),
        };
        f.handle_command(0, deposit).unwrap();
        assert_eq!(f.lower(0, host).unwrap().chunks, 3);

        let (direct, _) = f.rx_header(0, 8, false, true).unwrap();
        f.direct_deposit(0, direct, 3 * 4096, chunk_count(&paged()))
            .unwrap();
        assert_eq!(f.lower(0, direct).unwrap().chunks, 3);

        // A new header on the recycled pending starts from no list.
        f.rx_dma_complete(0, host).unwrap();
        f.handle_command(0, FwCommand::ReleasePending { pending: host })
            .unwrap();
        let (again, _) = f.rx_header(0, 7, false, false).unwrap();
        assert_eq!(again, host, "the pool hands the freed pending out again");
        assert_eq!(f.lower(0, again).unwrap().chunks, 0);
    }

    #[test]
    fn rx_pending_exhaustion_reported() {
        let config = FwConfig {
            rx_pendings: 2,
            tx_pendings: 2,
            sources: 8,
            mailbox_depth: 8,
        };
        let mut sram = Sram::default();
        let mut f = Firmware::new(config, &[FwMode::Generic], &mut sram).unwrap();
        f.rx_header(0, 1, false, false).unwrap();
        f.rx_header(0, 1, false, false).unwrap();
        assert_eq!(
            f.rx_header(0, 1, false, false).unwrap_err(),
            FwError::NoRxPending
        );
        assert_eq!(f.counters().exhaustion_drops, 1);
    }

    #[test]
    fn source_exhaustion_reported() {
        let config = FwConfig {
            rx_pendings: 64,
            tx_pendings: 2,
            sources: 2,
            mailbox_depth: 8,
        };
        let mut sram = Sram::default();
        let mut f = Firmware::new(config, &[FwMode::Generic], &mut sram).unwrap();
        f.rx_header(0, 1, false, false).unwrap();
        f.rx_header(0, 2, false, false).unwrap();
        assert_eq!(
            f.rx_header(0, 3, false, false).unwrap_err(),
            FwError::NoSource
        );
        // Existing sources still accept.
        assert!(f.rx_header(0, 1, false, false).is_ok());
    }

    #[test]
    fn completion_checks_the_recorded_source_against_the_peer() {
        // A pending carries the source id resolved when it was set up;
        // a completion whose pending has none (the pool was exhausted at
        // transmit time) is a typed error, as when the peer was re-hashed.
        let config = FwConfig {
            rx_pendings: 8,
            tx_pendings: 2,
            sources: 2,
            mailbox_depth: 8,
        };
        let mut sram = Sram::default();
        let mut f = Firmware::new(config, &[FwMode::Generic], &mut sram).unwrap();
        let (p, _) = f.rx_header(0, 1, false, false).unwrap();
        f.rx_header(0, 2, false, false).unwrap();
        let tx = f.tx_base();
        f.handle_command(0, tx_cmd(tx, 9)).unwrap();
        assert_eq!(f.rx_dma_complete(0, tx).unwrap_err(), FwError::NoSource);
        // The advertised pending still finds its source by index.
        let deposit = FwCommand::RecvDeposit {
            pending: p,
            length: 64,
            drop_length: 0,
            dma: DmaList::new(),
        };
        let effects = f.handle_command(0, deposit).unwrap();
        assert!(matches!(
            effects.iter().next(),
            Some(FwEffect::StartRxDma { pending, .. }) if *pending == p
        ));
        assert!(f.rx_dma_complete(0, p).is_ok());
    }

    #[test]
    fn discard_frees_pending_without_deposit() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let (p, _) = f.rx_header(0, 7, false, false).unwrap();
        f.handle_command(0, FwCommand::RecvDiscard { pending: p })
            .unwrap();
        assert_eq!(f.rx_pool_stats(0).0, 0);
    }

    #[test]
    fn piggyback_completion_skips_dma() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let (p, _) = f.rx_header(0, 7, true, false).unwrap();
        f.rx_piggyback_complete(0, p);
        f.handle_command(0, FwCommand::ReleasePending { pending: p })
            .unwrap();
        assert_eq!(f.rx_pool_stats(0).0, 0);
    }

    #[test]
    fn mailbox_polling_drains_commands() {
        let (mut f, _) = fw(&[FwMode::Generic]);
        let base = f.tx_base();
        f.mailbox_mut(0).unwrap().post_cmd(tx_cmd(base, 1));
        f.mailbox_mut(0).unwrap().post_cmd(tx_cmd(base + 1, 1));
        let mut effects = Effects::new();
        while let Some(cmd) = f.mailbox_mut(0).unwrap().take_cmd() {
            effects.append(&f.handle_command(0, cmd).unwrap());
        }
        // Only the first starts (single TX FIFO).
        assert_eq!(
            effects
                .iter()
                .filter(|e| matches!(e, FwEffect::StartTxDma { .. }))
                .count(),
            1
        );
        assert_eq!(f.mailbox_mut(0).unwrap().cmd_len(), 0);
    }
}
