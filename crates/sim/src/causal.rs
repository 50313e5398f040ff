//! Causal message tracing.
//!
//! Where [`crate::Trace`] records *that* a protocol step happened, the
//! [`CausalLog`] records *why*: every Portals operation gets a
//! [`TraceId`] at initiation, every significant step along its life
//! (trap, firmware command, TX DMA, each link hop, remote header match,
//! interrupt, completion, EQ delivery) appends a [`CausalRecord`], and
//! each record carries an explicit parent edge. The result is a
//! deterministic DAG that [`crate::chain`] walks backwards from an EQ
//! delivery to attribute a measured latency to cost classes with zero
//! residual.
//!
//! Like the telemetry registry (and unlike `Trace`), the log is
//! *observation-only*: it is never folded into a model's state
//! fingerprint, so enabling it cannot perturb replay digests. It still
//! keeps its own streaming digest so tests can assert that two
//! instrumented runs recorded identical causal streams.
//!
//! **Memory grows with messages in flight, not with run length.** Every
//! record carries the path behind it forward — its parent's classified
//! path plus the edge between them, by [`crate::chain`]'s per-edge rule —
//! and each delivery adds the path it consumed to exact running totals
//! ([`ChainFold`]: chains, per-class time, per-link head-of-line stall)
//! as it is recorded. So a record is held only while something names it,
//! as a *tip* with its carry: a message's latest stage (its carry moves
//! on in place with each next stage), a completion with EQ posts
//! pending, the activation cause. A message whose completion the machine
//! has attributed ([`CausalLog::finish`]) drops out of the index, and its
//! last record goes when its posts are consumed. What the log holds is
//! one carry per message in flight (about 100 bytes, plus 16 a stalled
//! hop) instead of every record it made. The first [`HEAD`] records are
//! also stored whole, for good, so a run that makes no more keeps every
//! record for [`CausalLog::records`], whole-log extraction and Perfetto;
//! their totals come from the same carries.
//!
//! What a record costs is O(1): an append, one probe of the
//! [`LatestIndex`] that chains it onto the message's previous stage, and
//! one update of that message's carry. What a stored record *occupies*
//! is 32 bytes: the log keeps each one packed (private `Stored`: the
//! parent edge as a bare `u32` with a sentinel, the stage in the low byte
//! of the node word) and hands out [`CausalRecord`] by value through the
//! [`Records`] view. [`CausalLog::with_cap`] is the other shape: every
//! record whole up to a cap, the rest counted as dropped.

use std::collections::VecDeque;

use crate::chain::{self, Breakdown, ChainFold, CostClass, CritPathError};
use crate::digest::EventDigest;
use crate::time::SimTime;

/// Records stored whole at the start of every default log; past them the
/// log folds without storing. 2^16 records (2 MiB) hold every run the tests,
/// goldens and `explain` defaults make, with room.
pub const HEAD: u32 = 1 << 16;

/// Correlation identity of one wire message.
///
/// The simulator's per-node `fresh_tag()` counter already mints a
/// globally unique id for every message a node injects ("tag"); the
/// causal layer adopts it as the trace id, so `Trace`, telemetry and the
/// causal DAG all correlate on the same value. Id 0 means "no identity"
/// (control traffic such as go-back-n acks) and is never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null id: records with it are dropped.
    pub const NONE: TraceId = TraceId(0);

    /// Is this a real id?
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// A checkpoint in a message's life. Each stage implies the cost class
/// of the segment *ending* at it (see `telemetry::critpath`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum CausalStage {
    /// API call began on the initiator (before the kernel trap).
    /// `info` = payload length in bytes.
    ApiEntry = 0,
    /// Transmit command posted to the firmware mailbox (end of the
    /// host's send-path work).
    TxCmdPost = 1,
    /// Header handed to the fabric (TX DMA header fetch done; for
    /// go-back-n deferrals and retransmissions, the actual inject time).
    TxInject = 2,
    /// Header started serializing onto one link of its route.
    /// `info` = packed hop detail: low 56 bits are the head-of-line
    /// stall at this hop in picoseconds, the high byte is the router
    /// port plus one (0 = port unknown). See [`linkhop_info`].
    LinkHop = 3,
    /// Header packet reached the destination NIC.
    NetArrive = 4,
    /// Firmware finished processing the received header (or, for direct
    /// replies/acks, the reply-handling fast path).
    FwRxDone = 5,
    /// The host interrupt handler reached this message's firmware event
    /// (delivery latency + handler entry/exit + queue drain).
    IntDeliver = 6,
    /// Portals matching for this header finished on the host.
    MatchDone = 7,
    /// Receive-deposit command posted back to the firmware (rx DMA
    /// program built and handed off).
    RxCmdPost = 8,
    /// RX DMA deposit complete (firmware completion handler done).
    DepositDone = 9,
    /// Completion event delivered into the application's event queue and
    /// any wakeup posted.
    EqPost = 10,
    /// The application consumed the completion event (`PtlEQGet`
    /// returned it). `info` = consuming pid.
    AppDeliver = 11,
}

impl CausalStage {
    /// Every stage, indexed by its discriminant.
    const ALL: [CausalStage; 12] = [
        CausalStage::ApiEntry,
        CausalStage::TxCmdPost,
        CausalStage::TxInject,
        CausalStage::LinkHop,
        CausalStage::NetArrive,
        CausalStage::FwRxDone,
        CausalStage::IntDeliver,
        CausalStage::MatchDone,
        CausalStage::RxCmdPost,
        CausalStage::DepositDone,
        CausalStage::EqPost,
        CausalStage::AppDeliver,
    ];

    /// Stable short name (used by exports and reports).
    pub fn name(self) -> &'static str {
        match self {
            CausalStage::ApiEntry => "api-entry",
            CausalStage::TxCmdPost => "tx-cmd-post",
            CausalStage::TxInject => "tx-inject",
            CausalStage::LinkHop => "link-hop",
            CausalStage::NetArrive => "net-arrive",
            CausalStage::FwRxDone => "fw-rx-done",
            CausalStage::IntDeliver => "int-deliver",
            CausalStage::MatchDone => "match-done",
            CausalStage::RxCmdPost => "rx-cmd-post",
            CausalStage::DepositDone => "deposit-done",
            CausalStage::EqPost => "eq-post",
            CausalStage::AppDeliver => "app-deliver",
        }
    }
}

/// Mask selecting the stall picoseconds from a packed `LinkHop` info.
///
/// 2^56 ps ≈ 20 hours of simulated time per hop — no physical stall
/// approaches it, so the high byte is free to carry the router port.
pub const LINKHOP_STALL_MASK: u64 = (1 << 56) - 1;

/// Pack a `LinkHop` record's info: router `port` in the high byte
/// (stored plus one so 0 still means "unknown"), stall picoseconds in
/// the low 56 bits.
#[inline]
pub fn linkhop_info(port: u8, stall_ps: u64) -> u64 {
    ((port as u64 + 1) << 56) | (stall_ps & LINKHOP_STALL_MASK)
}

/// The head-of-line stall (picoseconds) from a packed `LinkHop` info.
/// Also correct for legacy unpacked infos (high byte zero).
#[inline]
pub fn linkhop_stall(info: u64) -> u64 {
    info & LINKHOP_STALL_MASK
}

/// The router port from a packed `LinkHop` info, or `None` when the
/// record predates port packing (high byte zero).
#[inline]
pub fn linkhop_port(info: u64) -> Option<u8> {
    match info >> 56 {
        0 => None,
        p => Some((p - 1) as u8),
    }
}

/// One node of the causal DAG, as [`Records`] hands it out (the log
/// itself keeps the packed 32-byte form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalRecord {
    /// Message identity ([`TraceId::NONE`] only for `AppDeliver` records
    /// whose producing message could not be resolved).
    pub id: TraceId,
    /// Which checkpoint.
    pub stage: CausalStage,
    /// When it was reached.
    pub at: SimTime,
    /// Node it was reached on.
    pub node: u32,
    /// Index (into [`CausalLog::records`]) of the record that caused
    /// this one. `None` for roots and for records whose parent fell past
    /// the retention cap.
    pub parent: Option<u32>,
    /// Stage-specific detail (see each stage's doc).
    pub info: u64,
}

/// Highest node id a stored record can carry: the node shares a `u32`
/// with the one-byte stage.
pub const MAX_CAUSAL_NODE: u32 = (1 << 24) - 1;

/// The stored parent word of a record without a parent. No stored record
/// has this index: the cap is at most `u32::MAX` records, so the highest
/// index is `u32::MAX - 1`.
const NO_PARENT: u32 = u32::MAX;

/// A record the log cannot hold in its packed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalError {
    /// The node id does not fit beside the stage byte.
    NodeBeyondLimit {
        /// The offending node id.
        node: u32,
        /// The highest storable one ([`MAX_CAUSAL_NODE`]).
        limit: u32,
    },
}

impl std::fmt::Display for CausalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CausalError::NodeBeyondLimit { node, limit } => write!(
                f,
                "causal record on node {node}: the log stores node ids up to {limit}"
            ),
        }
    }
}

impl std::error::Error for CausalError {}

/// A record as the log keeps it.
#[derive(Debug, Clone, Copy)]
struct Stored {
    id: u64,
    at: u64,
    info: u64,
    /// Parent index, or [`NO_PARENT`].
    parent: u32,
    /// `node << 8 | stage`.
    node_stage: u32,
}

impl Stored {
    /// Pack a record whose node passed [`CausalRecord::check`].
    fn pack(rec: &CausalRecord) -> Stored {
        Stored {
            id: rec.id.0,
            at: rec.at.ps(),
            info: rec.info,
            // `Some(u32::MAX)` names no storable record and reads back
            // as no parent.
            parent: rec.parent.unwrap_or(NO_PARENT),
            node_stage: rec.node << 8 | rec.stage as u32,
        }
    }

    fn unpack(&self) -> CausalRecord {
        let stage = CausalStage::ALL.get((self.node_stage & 0xFF) as usize);
        CausalRecord {
            id: TraceId(self.id),
            // `pack` is the only writer, so the byte is a discriminant.
            stage: stage.copied().unwrap_or(CausalStage::ApiEntry),
            at: SimTime::from_ps(self.at),
            node: self.node_stage >> 8,
            parent: (self.parent != NO_PARENT).then_some(self.parent),
            info: self.info,
        }
    }
}

impl CausalRecord {
    /// Can the log store this record? Fails, by name, for a node id past
    /// [`MAX_CAUSAL_NODE`]; [`CausalLog::record`] counts such a record as
    /// dropped instead of wrapping its node.
    pub fn check(&self) -> Result<(), CausalError> {
        if self.node > MAX_CAUSAL_NODE {
            return Err(CausalError::NodeBeyondLimit {
                node: self.node,
                limit: MAX_CAUSAL_NODE,
            });
        }
        Ok(())
    }
}

/// The stored records of a [`CausalLog`], in append order: a borrowed
/// view that unpacks each record as it is read.
#[derive(Debug, Clone, Copy)]
pub struct Records<'a> {
    stored: &'a [Stored],
}

impl<'a> Records<'a> {
    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Record `idx`, if stored.
    pub fn get(&self, idx: usize) -> Option<CausalRecord> {
        self.stored.get(idx).map(Stored::unpack)
    }

    /// Every record, in append order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CausalRecord> + 'a {
        self.stored.iter().map(Stored::unpack)
    }
}

/// Index length at first use.
const MIN_INDEX_LEN: usize = 16;

/// The latest record of each message id: an open-addressed table of
/// `(hash, tip slot)` pairs — 8 bytes a slot, the id itself read back
/// from the tip a matching hash names — empty until the first record, doubled when more than half full, Fibonacci-hashed and
/// linearly probed, with backward-shift deletion. It is only ever probed
/// for one id, never iterated, so slot order cannot reach any output.
///
/// The same pattern as `firmware::source`'s active-source index, and
/// deliberately not the same type: that one keys on a `u32` node id it
/// stores whole and takes its live count from the source pool (a counter
/// of its own would add 8 B to each of 10,368 nodes, and those
/// workloads' heap is held to the byte); this one counts for itself.
#[derive(Debug, Default)]
struct LatestIndex {
    /// Empty or a power of two long and never more than half full, so
    /// every probe run ends at a vacant slot (tip slot [`NO_PARENT`]).
    slots: Vec<(u32, u32)>,
    live: u32,
}

/// The hash an id is filed under: the top half of its Fibonacci hash.
fn id_hash(id: u64) -> u32 {
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// An empty [`LatestIndex`] slot.
const VACANT: (u32, u32) = (0, NO_PARENT);

impl LatestIndex {
    /// Where a hash's probe run starts: its top bits (length >= 16, so
    /// the shift is below 32).
    fn home(&self, hash: u32) -> usize {
        (hash >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `id` — `id_of` reads the id of the tip a matching
    /// hash names — or the vacant one ending its probe run.
    /// `None` only while the table is empty.
    fn probe(&self, id: u64, id_of: impl Fn(u32) -> Option<u64>) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let hash = id_hash(id);
        let mut pos = self.home(hash);
        loop {
            let (held, idx) = *self.slots.get(pos)?;
            if idx == NO_PARENT || (held == hash && id_of(idx) == Some(id)) {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The tip slot of `id`'s latest record.
    fn latest(&self, id: u64, id_of: impl Fn(u32) -> Option<u64>) -> Option<u32> {
        let &(_, idx) = self.slots.get(self.probe(id, id_of)?)?;
        (idx != NO_PARENT).then_some(idx)
    }

    /// Make tip `idx` the latest record of `id` (non-zero); returns the
    /// one it replaces.
    fn replace(&mut self, id: u64, idx: u32, id_of: impl Fn(u32) -> Option<u64>) -> Option<u32> {
        if (self.live as usize + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let pos = self.probe(id, id_of)?;
        let slot = self.slots.get_mut(pos)?;
        let prev = (slot.1 != NO_PARENT).then_some(slot.1);
        if prev.is_none() {
            self.live += 1;
        }
        *slot = (id_hash(id), idx);
        prev
    }

    /// Forget `id`; returns its latest record's tip slot. The gap is closed by
    /// shifting later entries of the probe run back, so no lookup ever
    /// steps over a deleted slot.
    fn remove(&mut self, id: u64, id_of: impl Fn(u32) -> Option<u64>) -> Option<u32> {
        let mut hole = self.probe(id, id_of)?;
        let (_, idx) = *self.slots.get(hole)?;
        if idx == NO_PARENT {
            return None;
        }
        self.live -= 1;
        let mask = self.slots.len() - 1;
        if let Some(slot) = self.slots.get_mut(hole) {
            *slot = VACANT;
        }
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let Some(&(hash, _)) = self.slots.get(pos).filter(|s| s.1 != NO_PARENT) else {
                return Some(idx);
            };
            // Cyclic distances back from `pos`: movable iff the hole is
            // no further back than the entry's home.
            let from_home = pos.wrapping_sub(self.home(hash)) & mask;
            if from_home >= (pos.wrapping_sub(hole) & mask) {
                self.slots.swap(hole, pos);
                hole = pos;
            }
        }
    }

    /// Double the table (from nothing: [`MIN_INDEX_LEN`]) and re-enter
    /// every entry by its hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_INDEX_LEN);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; len]);
        let mask = len - 1;
        for entry in old.into_iter().filter(|s| s.1 != NO_PARENT) {
            let mut pos = self.home(entry.0);
            while self.slots.get(pos).is_some_and(|s| s.1 != NO_PARENT) {
                pos = (pos + 1) & mask;
            }
            if let Some(slot) = self.slots.get_mut(pos) {
                *slot = entry;
            }
        }
    }
}

/// No hop cell: the end of a [`Hops`] list.
const NO_HOP: u32 = u32::MAX;

/// Entries a [`Chunks`] allocates at a time (a power of two).
const CHUNK: u32 = 4096;

/// A growable array allocated in fixed chunks of [`CHUNK`] entries: it
/// holds at most one chunk past its high water, where a doubling vector
/// holds as much again.
#[derive(Debug)]
struct Chunks<T> {
    chunks: Vec<Vec<T>>,
    len: u32,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Chunks<T> {
    fn get(&self, i: u32) -> Option<&T> {
        self.chunks
            .get((i / CHUNK) as usize)?
            .get((i % CHUNK) as usize)
    }

    fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        let chunk = self.chunks.get_mut((i / CHUNK) as usize)?;
        chunk.get_mut((i % CHUNK) as usize)
    }

    /// Append `v`; its index.
    fn push(&mut self, v: T) -> u32 {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK as usize));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.push(v);
        }
        self.len += 1;
        self.len - 1
    }
}

/// One stalled hop on the path behind a tip: its stall, and a word
/// holding its link — the node, the router port plus one (0 for none) —
/// and how many lists share this cell and everything after it.
#[derive(Debug, Clone, Copy)]
struct HopCell {
    stall: SimTime,
    /// `refs << 27 | node << 3 | port + 1`.
    word: u32,
    next: u32,
}

/// Bits of [`HopCell::word`] below the reference count.
const HOP_REFS_SHIFT: u32 = 27;
/// The most lists one cell can be shared by; a copy past it is deep.
const HOP_REFS_MAX: u32 = (1 << (32 - HOP_REFS_SHIFT)) - 1;

impl HopCell {
    fn refs(&self) -> u32 {
        self.word >> HOP_REFS_SHIFT
    }

    /// `(node, port or -1)`.
    fn key(&self) -> (u32, i16) {
        let link = self.word & ((1 << HOP_REFS_SHIFT) - 1);
        (link >> 3, (link & 7) as i16 - 1)
    }
}

/// The stalled hops behind every tip, as persistent singly linked lists
/// in one arena with a free list: a new stage puts its hop in front of
/// the list it carries, and a tip that copies another's carry shares its
/// list, counted in the head cell, so no list is ever copied cell by
/// cell unless a head is shared [`HOP_REFS_MAX`] times.
#[derive(Debug)]
struct Hops {
    cells: Chunks<HopCell>,
    /// First free cell, or [`NO_HOP`].
    free: u32,
}

impl Default for Hops {
    fn default() -> Self {
        Hops {
            cells: Chunks::default(),
            free: NO_HOP,
        }
    }
}

impl Hops {
    /// A cell holding `cell`.
    fn alloc(&mut self, cell: HopCell) -> u32 {
        match self.cells.get_mut(self.free) {
            Some(slot) => {
                let at = self.free;
                self.free = slot.next;
                *slot = cell;
                at
            }
            None => self.cells.push(cell),
        }
    }

    /// List `head` with one more hop in front; the new list owns the
    /// reference the caller held on `head`.
    fn push(&mut self, head: u32, key: (u32, i16), stall: SimTime) -> u32 {
        let link = key.0 << 3 | (key.1 + 1) as u32;
        self.alloc(HopCell {
            stall,
            word: 1 << HOP_REFS_SHIFT | link,
            next: head,
        })
    }

    /// The hops of list `head`, by `(node, port or -1)`.
    fn iter(&self, head: u32) -> impl Iterator<Item = ((u32, i16), SimTime)> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            let cell = self.cells.get(at)?;
            at = cell.next;
            Some((cell.key(), cell.stall))
        })
    }

    /// Another reference on list `head`: the same cells, one more count.
    fn share(&mut self, head: u32) -> u32 {
        match self.cells.get_mut(head) {
            Some(cell) if cell.refs() < HOP_REFS_MAX => {
                cell.word += 1 << HOP_REFS_SHIFT;
                head
            }
            Some(_) => self.copy(head),
            None => NO_HOP,
        }
    }

    /// A list of its own with the hops of `head`, in the same order.
    fn copy(&mut self, head: u32) -> u32 {
        let (mut first, mut last, mut at) = (NO_HOP, NO_HOP, head);
        while let Some(&cell) = self.cells.get(at) {
            let own = cell.word & ((1 << HOP_REFS_SHIFT) - 1);
            let new = self.alloc(HopCell {
                word: 1 << HOP_REFS_SHIFT | own,
                next: NO_HOP,
                ..cell
            });
            match self.cells.get_mut(last) {
                Some(prev) => prev.next = new,
                None => first = new,
            }
            (last, at) = (new, cell.next);
        }
        first
    }

    /// Drop a reference on list `head`: each cell no other list shares
    /// goes back to the free list.
    fn free(&mut self, mut head: u32) {
        while let Some(cell) = self.cells.get_mut(head) {
            cell.word -= 1 << HOP_REFS_SHIFT;
            if cell.refs() > 0 {
                return;
            }
            let next = cell.next;
            cell.next = self.free;
            self.free = head;
            head = next;
        }
    }
}

/// What a delivery through a record adds to the fold: the classified
/// path behind it, back to where a walk through it stops.
#[derive(Debug, Clone, Copy)]
struct Carry {
    sum: Breakdown,
    /// Its stalled hops ([`Hops`] list head).
    hops: u32,
    /// The first defect on the path — the walk's error — as an index
    /// into the log's defects plus one; 0 for none.
    defect: u32,
}

impl Carry {
    /// Nothing behind: where a walk stops.
    const ROOT: Carry = Carry {
        sum: Breakdown::ZERO,
        hops: NO_HOP,
        defect: 0,
    };
}

/// A record that something still names — the latest record of a
/// message in flight, a completion with events pending, the activation
/// cause — with the path behind it folded into its carry.
#[derive(Debug, Clone, Copy)]
struct Tip {
    carry: Carry,
    id: u64,
    at: SimTime,
    /// Handles naming it: the latest-record index, each pending EQ post,
    /// the cause, an EQ post popped and not yet delivered.
    refs: u32,
    /// Its index in the stream (what a whole log would index it by).
    ordinal: u32,
    stage: CausalStage,
    /// The path behind it reaches an `ApiEntry` root.
    rooted: bool,
}

/// The tips: a slab with a free list. A record past the head is named by
/// `head + slot`, so a handle finds its tip without a lookup; a stored
/// record by its index, through the tip slot it was made in.
#[derive(Debug, Default)]
struct Tips {
    slab: Chunks<Tip>,
    free: Vec<u32>,
}

impl Tips {
    fn get(&self, slot: u32) -> Option<&Tip> {
        self.slab.get(slot).filter(|t| t.refs != FREED)
    }

    fn get_mut(&mut self, slot: u32) -> Option<&mut Tip> {
        self.slab.get_mut(slot).filter(|t| t.refs != FREED)
    }

    fn insert(&mut self, tip: Tip) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                if let Some(free) = self.slab.get_mut(slot) {
                    *free = tip;
                }
                slot
            }
            None => self.slab.push(tip),
        }
    }

    /// Forget tip `slot`; returns its hops, now the caller's.
    fn remove(&mut self, slot: u32) -> u32 {
        let Some(tip) = self.get_mut(slot) else {
            return NO_HOP;
        };
        tip.refs = FREED;
        let hops = std::mem::replace(&mut tip.carry.hops, NO_HOP);
        self.free.push(slot);
        hops
    }

    fn live(&self) -> u32 {
        self.slab.len - self.free.len() as u32
    }
}

/// The reference count of a free slab slot.
const FREED: u32 = u32::MAX;

/// No tip slot: what a hold on a record nothing names takes.
const NO_SLOT: u32 = u32::MAX;

/// A pending EQ post: the record that posted it, and the tip slot its
/// reference is held on.
type Post = (u32, u32);

/// Add the edge from `from` — `(ordinal, stage, time)` of the record it
/// leaves — to record `ordinal` into `carry`, classified as a walk would
/// classify it: its time to the classes, a stalled hop to the carry's
/// hops, a defect (the first) to `defects`.
fn extend(
    carry: &mut Carry,
    hops: &mut Hops,
    defects: &mut Vec<CritPathError>,
    from: (u32, CausalStage, SimTime),
    ordinal: u32,
    rec: &CausalRecord,
) {
    let parent = CausalRecord {
        id: rec.id,
        stage: from.1,
        at: from.2,
        node: 0,
        parent: None,
        info: 0,
    };
    let added = chain::segments((from.0, &parent), (ordinal, rec), |s| {
        carry.sum.add(s.class, s.dur);
        if s.class == CostClass::HopQueue && s.stage == CausalStage::LinkHop {
            carry.hops = hops.push(carry.hops, chain::link_key(rec), s.dur);
        }
    });
    if let Err(e) = added {
        if carry.defect == 0 {
            defects.push(e);
            carry.defect = defects.len() as u32;
        }
    }
}

/// Deterministic causal record log that folds each chain as it completes.
///
/// Disabled, every record call is one predictable branch. Enabled, the
/// log appends records, maintains the per-message "latest record" index
/// that turns independent handler callbacks into parent→child chains,
/// and tracks the FIFO of pending EQ posts per `(node, pid)` so an
/// `AppDeliver` can name the completion that produced the event it
/// consumed. Each record carries the path behind it forward; each
/// delivery folds its chain into the [`ChainFold`] as it is recorded, and
/// only the records something still names are kept as tips.
#[derive(Debug)]
pub struct CausalLog {
    enabled: bool,
    /// Records below this index are stored whole, for good.
    head: u32,
    /// At most `u32::MAX`: parent edges are `u32` record indices.
    cap: u32,
    /// The head, in append order.
    records: Vec<Stored>,
    /// The tip slot each stored record was made in.
    head_slots: Vec<u32>,
    /// Records made and not dropped: the next record's index.
    made: u32,
    /// The records still named, and their stalled hops.
    tips: Tips,
    hops: Hops,
    /// Defects met on paths (a carry names one by index).
    defects: Vec<CritPathError>,
    dropped: u64,
    digest: EventDigest,
    /// Latest record per trace id, by tip slot (chains stages recorded
    /// by different handlers).
    latest: LatestIndex,
    /// Pending EQ posts, dense by node: each node's `(pid, posts in
    /// order)` lanes, a node having a process or two.
    eq_fifo: Vec<Vec<(u32, VecDeque<Post>)>>,
    /// The post [`Self::pop_eq_post`] handed out and its tip slot, whose
    /// reference [`Self::record_deliver`] takes.
    popped: Option<(u32, u32)>,
    /// The record causally responsible for work done in the current
    /// handler activation (an `AppDeliver`, or a serve-side `MatchDone`),
    /// and the tip slot held for it.
    cause: Option<(u32, u32)>,
    fold: ChainFold,
}

/// Where a new record's parent edge comes from.
#[derive(Clone, Copy)]
enum Parent {
    /// The caller names it.
    Given(Option<u32>),
    /// The caller names it and hands over a reference on it — a popped EQ
    /// post — so a tip nothing else names gives its hops up, not a copy.
    Delivered(Option<u32>),
    /// The latest record of the same id.
    Latest,
}

impl Default for CausalLog {
    fn default() -> Self {
        Self::disabled()
    }
}

impl CausalLog {
    /// A log that records nothing until enabled.
    pub fn disabled() -> Self {
        CausalLog {
            enabled: false,
            head: HEAD,
            cap: u32::MAX,
            records: Vec::new(),
            head_slots: Vec::new(),
            made: 0,
            tips: Tips::default(),
            hops: Hops::default(),
            defects: Vec::new(),
            dropped: 0,
            digest: EventDigest::new(),
            latest: LatestIndex::default(),
            eq_fifo: Vec::new(),
            popped: None,
            cause: None,
            fold: ChainFold::default(),
        }
    }

    /// An enabled log: the first [`HEAD`] records whole, the rest folded.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A log like [`Self::enabled`], recording or not as `enabled` says —
    /// for callers holding the choice as a flag.
    pub fn new(enabled: bool) -> Self {
        CausalLog {
            enabled,
            ..Self::disabled()
        }
    }

    /// An enabled log that stores at most `cap` records, all of them
    /// whole, and counts the rest as dropped (never more than
    /// `u32::MAX`, the range of a parent edge). It folds the chains it
    /// stores.
    pub fn with_cap(cap: usize) -> Self {
        let cap = u32::try_from(cap).unwrap_or(u32::MAX);
        CausalLog {
            head: cap,
            cap,
            ..Self::enabled()
        }
    }

    /// An enabled log storing only its first `head` records whole — the
    /// seam that lets a test hold a small run to what a long one keeps.
    #[doc(hidden)]
    pub fn with_head(head: usize) -> Self {
        CausalLog {
            head: u32::try_from(head).unwrap_or(u32::MAX),
            ..Self::enabled()
        }
    }

    /// Turn recording on or off (already-recorded data is kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Is recording active?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The records stored whole — every record of a run that made no more
    /// than the head — in append order (a child's index is always
    /// greater than its parent's).
    pub fn records(&self) -> Records<'_> {
        Records {
            stored: &self.records,
        }
    }

    /// Records made and not dropped: stored whole, or past the head and
    /// folded.
    pub fn made(&self) -> u64 {
        u64::from(self.made)
    }

    /// Records held right now: the head, plus the tips — the records
    /// something still names.
    pub fn held(&self) -> u64 {
        self.records.len() as u64 + u64::from(self.tips.live())
    }

    /// The running totals over every chain delivered so far.
    pub fn fold(&self) -> &ChainFold {
        &self.fold
    }

    /// Records discarded after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Streaming digest over every record made while enabled (covers the
    /// full stream even past the retention cap).
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Set the record causally responsible for the current activation.
    pub fn set_cause(&mut self, cause: Option<u32>) {
        let held = cause.map(|idx| (idx, self.hold(idx, 1)));
        if let Some((_, old)) = std::mem::replace(&mut self.cause, held) {
            self.release(old);
        }
    }

    /// The current activation's cause, if any.
    pub fn cause(&self) -> Option<u32> {
        self.cause.map(|(idx, _)| idx)
    }

    /// The tip slot record `idx` names: past the head the handle is
    /// `head + slot`; a stored record's is the slot it was made in, while
    /// its tip is still that record (a held tip never moves on, so a
    /// handle held stays good, and a stale one names nothing).
    fn slot_of(&self, idx: u32) -> Option<u32> {
        if let Some(slot) = idx.checked_sub(self.head) {
            return Some(slot);
        }
        let slot = *self.head_slots.get(idx as usize)?;
        let tip = self.tips.get(slot)?;
        (tip.ordinal == idx).then_some(slot)
    }

    /// The tip slot of `id`'s latest record.
    fn latest(&self, id: u64) -> Option<u32> {
        let tips = &self.tips;
        self.latest.latest(id, |slot| tips.get(slot).map(|t| t.id))
    }

    /// Take `n` references on record `idx`'s tip; its slot, which the
    /// holder releases, or [`NO_SLOT`] for a record nothing names.
    fn hold(&mut self, idx: u32, n: u32) -> u32 {
        let Some(slot) = self.slot_of(idx) else {
            return NO_SLOT;
        };
        match self.tips.get_mut(slot) {
            Some(tip) => {
                tip.refs += n;
                slot
            }
            None => NO_SLOT,
        }
    }

    /// Drop a reference on tip `slot`; forget it after the last.
    fn release(&mut self, slot: u32) {
        let Some(tip) = self.tips.get_mut(slot) else {
            return;
        };
        debug_assert!(
            tip.refs > 0,
            "causal record #{} released unheld",
            tip.ordinal
        );
        tip.refs = tip.refs.saturating_sub(1);
        if tip.refs == 0 {
            let hops = self.tips.remove(slot);
            self.hops.free(hops);
        }
    }

    /// Append a record whose parent is the latest record of the same id
    /// (or the explicit `parent` when given). Returns the new record's
    /// index — past the head, a handle that names it while it is held or
    /// its message's latest — or `None` when disabled, capped, or `id` is
    /// null.
    #[inline]
    pub fn record(
        &mut self,
        id: TraceId,
        stage: CausalStage,
        at: SimTime,
        node: u32,
        parent: Option<u32>,
        info: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.record_slow(id, stage, at, node, Parent::Given(parent), info)
    }

    /// Append a record chained onto the message's previous stage.
    #[inline]
    pub fn record_chain(
        &mut self,
        id: TraceId,
        stage: CausalStage,
        at: SimTime,
        node: u32,
        info: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.record_slow(id, stage, at, node, Parent::Latest, info)
    }

    #[inline(never)]
    fn record_slow(
        &mut self,
        id: TraceId,
        stage: CausalStage,
        at: SimTime,
        node: u32,
        parent: Parent,
        info: u64,
    ) -> Option<u32> {
        if !id.is_some() && stage != CausalStage::AppDeliver {
            return None;
        }
        self.digest.write_u64(id.0);
        self.digest.write_u8(stage as u8);
        self.digest.write_u64(at.ps());
        self.digest.write_u32(node);
        self.digest.write_u64(info);
        let mut rec = CausalRecord {
            id,
            stage,
            at,
            node,
            parent: None,
            info,
        };
        if self.made >= self.cap || rec.check().is_err() {
            self.dropped += 1;
            return None;
        }
        let ordinal = self.made;
        self.made += 1;
        let indexed = id.is_some() && stage != CausalStage::AppDeliver;
        let chained = matches!(parent, Parent::Latest);
        let previous = (indexed || chained).then(|| self.latest(id.0)).flatten();
        let sole = previous
            .and_then(|s| self.tips.get_mut(s))
            .filter(|tip| chained && indexed && tip.refs == 1);
        let slot = match (sole, previous) {
            // The message's next stage takes its tip over in place:
            // nothing else names the stage before.
            (Some(tip), Some(s)) => {
                rec.parent = Some(tip.ordinal);
                let from = (tip.ordinal, tip.stage, tip.at);
                extend(
                    &mut tip.carry,
                    &mut self.hops,
                    &mut self.defects,
                    from,
                    ordinal,
                    &rec,
                );
                (tip.at, tip.stage, tip.ordinal) = (at, stage, ordinal);
                s
            }
            _ => {
                // The parent edge, and the tip it leaves from.
                let from = match parent {
                    Parent::Given(p) | Parent::Delivered(p) => p.map(|p| (p, self.slot_of(p))),
                    Parent::Latest => {
                        previous.and_then(|s| Some((self.tips.get(s)?.ordinal, Some(s))))
                    }
                };
                rec.parent = from.map(|(p, _)| p);
                let take = matches!(parent, Parent::Delivered(_));
                let previous = previous.filter(|_| indexed);
                self.push_tip(ordinal, &rec, from, previous, take)
            }
        };
        if self.made >= self.cap {
            self.latest = LatestIndex::default();
        }
        if ordinal < self.head {
            self.records.push(Stored::pack(&rec));
            self.head_slots.push(slot);
            return Some(ordinal);
        }
        Some(self.head + slot)
    }

    /// Hold record `ordinal` in a tip of its own; its slot. Its carry is
    /// its parent's — `from`, the parent edge and its tip — plus the edge
    /// between them; a delivery folds it. The message's previous tip, if
    /// any, is released.
    fn push_tip(
        &mut self,
        ordinal: u32,
        rec: &CausalRecord,
        from: Option<(u32, Option<u32>)>,
        previous: Option<u32>,
        take: bool,
    ) -> u32 {
        let (carry, rooted) = self.carry(ordinal, rec, from, take);
        if rec.stage == CausalStage::AppDeliver && rec.parent.is_some() && rooted {
            match carry.defect.checked_sub(1) {
                Some(d) => self.fold.defect(self.defects[d as usize]),
                None => self.fold.add(&carry.sum, self.hops.iter(carry.hops)),
            }
        }
        let indexed = rec.id.is_some() && rec.stage != CausalStage::AppDeliver;
        let slot = self.tips.insert(Tip {
            carry,
            id: rec.id.0,
            at: rec.at,
            refs: u32::from(indexed),
            ordinal,
            stage: rec.stage,
            rooted,
        });
        if indexed {
            let tips = &self.tips;
            let id_of = |s: u32| tips.get(s).map(|t| t.id);
            self.latest.replace(rec.id.0, slot, id_of);
        }
        if let Some(prev) = previous {
            self.release(prev);
        }
        slot
    }

    /// The carry of record `ordinal`, and whether its path is rooted: its
    /// parent's carry plus the edge between them, classified as a walk
    /// would. The parent's hops are taken when `take` and nothing else
    /// names it, shared otherwise.
    fn carry(
        &mut self,
        ordinal: u32,
        rec: &CausalRecord,
        from: Option<(u32, Option<u32>)>,
        take: bool,
    ) -> (Carry, bool) {
        let Some((p, slot)) = from else {
            return (Carry::ROOT, rec.stage == CausalStage::ApiEntry);
        };
        let Some(tip) = slot.and_then(|s| self.tips.get_mut(s)) else {
            let defect = self.defect(CritPathError::MissingRecord { idx: p });
            return (
                Carry {
                    defect,
                    ..Carry::ROOT
                },
                true,
            );
        };
        if chain::stops(rec, tip.stage) {
            // A walk stops at `rec`: nothing behind it counts.
            return (Carry::ROOT, true);
        }
        let edge = (tip.ordinal, tip.stage, tip.at);
        let (mut carry, rooted) = (tip.carry, tip.rooted);
        if take && tip.refs == 1 {
            tip.carry.hops = NO_HOP;
        } else {
            carry.hops = self.hops.share(carry.hops);
        }
        extend(
            &mut carry,
            &mut self.hops,
            &mut self.defects,
            edge,
            ordinal,
            rec,
        );
        (carry, rooted)
    }

    /// Keep defect `e`; the carry's name for it.
    fn defect(&mut self, e: CritPathError) -> u32 {
        self.defects.push(e);
        self.defects.len() as u32
    }

    /// Note that the completion recorded at `idx` posted `count` events
    /// to `(node, pid)`'s event queue.
    pub fn push_eq_posts(&mut self, node: u32, pid: u32, idx: u32, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        let slot = self.hold(idx, count as u32);
        let node = node as usize;
        if self.eq_fifo.len() <= node {
            self.eq_fifo.resize_with(node + 1, Vec::new);
        }
        let Some(lanes) = self.eq_fifo.get_mut(node) else {
            return;
        };
        if !lanes.iter().any(|&(p, _)| p == pid) {
            lanes.push((pid, VecDeque::new()));
        }
        if let Some((_, fifo)) = lanes.iter_mut().find(|(p, _)| *p == pid) {
            fifo.extend(std::iter::repeat_n((idx, slot), count as usize));
        }
    }

    /// Pop the oldest pending EQ post for `(node, pid)` (the event a
    /// successful `eq_get` just consumed). The post's reference on its
    /// record passes to the caller, and [`Self::record_deliver`] takes it.
    pub fn pop_eq_post(&mut self, node: u32, pid: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let lanes = self.eq_fifo.get_mut(node as usize)?;
        let (_, fifo) = lanes.iter_mut().find(|(p, _)| *p == pid)?;
        let (idx, slot) = fifo.pop_front()?;
        if let Some((_, old)) = self.popped.replace((idx, slot)) {
            self.release(old);
        }
        Some(idx)
    }

    /// Message `id` records nothing more: its completion is attributed
    /// (or it found no match). Its latest-record entry goes when that
    /// record is past the head, so the record is forgotten once no
    /// pending EQ post or cause names it. (A later record of the id — a
    /// go-back-n duplicate of a delivered message — starts a chain of its
    /// own, which no delivery walks.) A caller still holding one of the
    /// message's record indices makes it the cause first.
    pub fn finish(&mut self, id: TraceId) {
        if !self.enabled {
            return;
        }
        let past_head = |s: u32| self.tips.get(s).is_some_and(|t| t.ordinal >= self.head);
        if !self.latest(id.0).is_some_and(past_head) {
            return;
        }
        let tips = &self.tips;
        let id_of = |s: u32| tips.get(s).map(|t| t.id);
        if let Some(slot) = self.latest.remove(id.0, id_of) {
            self.release(slot);
        }
    }

    /// Record the `AppDeliver` for a consumed event, fold its chain, and
    /// make it the current activation's cause. `producer` is the
    /// `EqPost`-side record [`Self::pop_eq_post`] returned.
    pub fn record_deliver(
        &mut self,
        node: u32,
        pid: u32,
        at: SimTime,
        producer: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = producer.and_then(|i| match self.records.get(i as usize) {
            Some(rec) => Some(rec.id),
            None => self.tips.get(self.slot_of(i)?).map(|tip| tip.id),
        });
        let popped = self.popped.take();
        let idx = self.record_slow(
            TraceId(id.unwrap_or(0)),
            CausalStage::AppDeliver,
            at,
            node,
            Parent::Delivered(producer),
            pid as u64,
        );
        if let Some((_, slot)) = popped {
            self.release(slot);
        }
        self.set_cause(idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_record_is_thirty_two_bytes() {
        // The head is 2 MiB of them instead of the 2.5 MiB of
        // `CausalRecord`s (an `Option<u32>` parent and a one-byte stage
        // each padded out to eight). Past the head a message in flight
        // is one tip, its path folded into it, and its stalled hops sit
        // in cache-line blocks.
        // DESIGN.md §9 quotes this.
        assert_eq!(std::mem::size_of::<Stored>(), 32);
        assert_eq!(std::mem::size_of::<CausalRecord>(), 40);
        assert!(std::mem::size_of::<Tip>() <= 104);
    }

    #[test]
    fn a_disabled_log_holds_no_heap() {
        let mut log = CausalLog::disabled();
        log.record_chain(TraceId(1), CausalStage::ApiEntry, SimTime::ZERO, 0, 8);
        log.push_eq_posts(3, 0, 0, 2);
        log.set_cause(None);
        log.finish(TraceId(1));
        assert_eq!(log.records.capacity(), 0);
        assert_eq!(log.head_slots.capacity(), 0);
        assert_eq!(log.tips.slab.chunks.capacity(), 0);
        assert_eq!(log.latest.slots.capacity(), 0);
        assert_eq!(log.eq_fifo.capacity(), 0);
    }

    #[test]
    fn every_field_survives_packing() {
        let mut log = CausalLog::enabled();
        for (i, &stage) in CausalStage::ALL.iter().enumerate() {
            assert_eq!(stage as usize, i, "ALL is indexed by discriminant");
            let rec = CausalRecord {
                id: TraceId(u64::MAX - i as u64),
                stage,
                at: SimTime::from_ps(u64::MAX - 7 * i as u64),
                node: MAX_CAUSAL_NODE - i as u32,
                parent: (i % 2 == 1).then(|| i as u32 - 1),
                info: linkhop_info(5, LINKHOP_STALL_MASK - i as u64),
            };
            let idx = log
                .record(rec.id, rec.stage, rec.at, rec.node, rec.parent, rec.info)
                .expect("stored");
            assert_eq!(log.records().get(idx as usize), Some(rec));
        }
        assert_eq!(log.records().iter().len(), 12);
    }

    #[test]
    fn the_parent_sentinel_is_not_a_storable_index() {
        // The last index a log can hold is u32::MAX - 1 (the cap is at
        // most u32::MAX records), and it round-trips; u32::MAX itself
        // names no record and reads back as a root.
        let mut log = CausalLog::enabled();
        let id = TraceId(1);
        let last = Some(u32::MAX - 1);
        let a = log.record(id, CausalStage::LinkHop, SimTime::ZERO, 0, last, 0);
        let b = log.record(
            id,
            CausalStage::LinkHop,
            SimTime::ZERO,
            0,
            Some(u32::MAX),
            0,
        );
        let parent = |idx: Option<u32>| log.records().get(idx.unwrap() as usize).unwrap().parent;
        assert_eq!(parent(a), last);
        assert_eq!(parent(b), None);
        assert_eq!(CausalLog::with_cap(usize::MAX).cap, u32::MAX);
    }

    #[test]
    fn a_node_past_the_packing_limit_is_refused_by_name() {
        let mut log = CausalLog::enabled();
        let at = SimTime::from_ns(1);
        let ok = log.record_chain(TraceId(1), CausalStage::TxInject, at, MAX_CAUSAL_NODE, 0);
        assert_eq!(ok, Some(0));
        let over = MAX_CAUSAL_NODE + 1;
        // Counted, folded into the digest like a record past the cap,
        // never stored as node 0 and never indexed as a parent.
        let before = log.digest();
        assert_eq!(
            log.record_chain(TraceId(2), CausalStage::TxInject, at, over, 0),
            None
        );
        assert_eq!((log.records().len(), log.dropped()), (1, 1));
        assert_ne!(log.digest(), before);
        let next = log.record_chain(TraceId(2), CausalStage::NetArrive, at, 1, 0);
        assert_eq!(
            log.records().get(next.unwrap() as usize).unwrap().parent,
            None
        );
        let rec = CausalRecord {
            id: TraceId(2),
            stage: CausalStage::TxInject,
            at,
            node: over,
            parent: None,
            info: 0,
        };
        assert_eq!(
            rec.check(),
            Err(CausalError::NodeBeyondLimit {
                node: over,
                limit: MAX_CAUSAL_NODE
            })
        );
    }

    #[test]
    fn disabled_log_stores_nothing() {
        let mut log = CausalLog::disabled();
        assert!(log
            .record_chain(TraceId(1), CausalStage::ApiEntry, SimTime::ZERO, 0, 8)
            .is_none());
        assert!(log.records().is_empty());
        assert_eq!(log.digest(), CausalLog::enabled().digest());
    }

    #[test]
    fn chained_records_link_to_latest_of_same_id() {
        let mut log = CausalLog::enabled();
        let a = log
            .record_chain(TraceId(7), CausalStage::ApiEntry, SimTime::ZERO, 0, 8)
            .unwrap();
        let b = log
            .record_chain(
                TraceId(7),
                CausalStage::TxCmdPost,
                SimTime::from_ns(1),
                0,
                0,
            )
            .unwrap();
        let _other = log
            .record_chain(TraceId(9), CausalStage::ApiEntry, SimTime::from_ns(2), 1, 4)
            .unwrap();
        let c = log
            .record_chain(TraceId(7), CausalStage::TxInject, SimTime::from_ns(3), 0, 0)
            .unwrap();
        let parent = |idx: u32| log.records().get(idx as usize).unwrap().parent;
        assert_eq!(parent(b), Some(a));
        assert_eq!(parent(c), Some(b));
    }

    #[test]
    fn null_ids_are_dropped() {
        let mut log = CausalLog::enabled();
        assert!(log
            .record_chain(TraceId::NONE, CausalStage::TxInject, SimTime::ZERO, 0, 0)
            .is_none());
        assert!(log.records().is_empty());
    }

    #[test]
    fn cap_counts_drops_and_keeps_head() {
        let mut log = CausalLog::with_cap(2);
        for i in 1..=4u64 {
            log.record_chain(TraceId(i), CausalStage::ApiEntry, SimTime::from_ns(i), 0, 0);
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.records().get(0).unwrap().id, TraceId(1));
    }

    #[test]
    fn digest_covers_records_past_cap() {
        let mut capped = CausalLog::with_cap(1);
        let mut free = CausalLog::enabled();
        for log in [&mut capped, &mut free] {
            for i in 1..=3u64 {
                log.record_chain(TraceId(i), CausalStage::ApiEntry, SimTime::from_ns(i), 0, 0);
            }
        }
        assert_eq!(capped.digest(), free.digest());
        assert_ne!(capped.records().len(), free.records().len());
    }

    #[test]
    fn linkhop_info_round_trips_port_and_stall() {
        for port in 0..6u8 {
            for stall in [0u64, 1, 40_000, LINKHOP_STALL_MASK] {
                let info = linkhop_info(port, stall);
                assert_eq!(linkhop_port(info), Some(port));
                assert_eq!(linkhop_stall(info), stall);
            }
        }
        // Legacy records carried the raw stall with no port byte.
        assert_eq!(linkhop_port(40_000), None);
        assert_eq!(linkhop_stall(40_000), 40_000);
    }

    #[test]
    fn eq_fifo_resolves_deliveries_in_post_order() {
        let mut log = CausalLog::enabled();
        let p1 = log
            .record_chain(TraceId(1), CausalStage::EqPost, SimTime::from_ns(1), 0, 0)
            .unwrap();
        let p2 = log
            .record_chain(TraceId(2), CausalStage::EqPost, SimTime::from_ns(2), 0, 0)
            .unwrap();
        log.push_eq_posts(0, 0, p1, 1);
        log.push_eq_posts(0, 0, p2, 1);
        let got = log.pop_eq_post(0, 0);
        assert_eq!(got, Some(p1));
        let d = log.record_deliver(0, 0, SimTime::from_ns(3), got).unwrap();
        let delivered = log.records().get(d as usize).unwrap();
        assert_eq!(delivered.id, TraceId(1));
        assert_eq!(delivered.parent, Some(p1));
        assert_eq!(log.cause(), Some(d));
        assert_eq!(log.pop_eq_post(0, 0), Some(p2));
        assert_eq!(log.pop_eq_post(0, 0), None);
    }
}
