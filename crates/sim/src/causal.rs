//! Causal message tracing.
//!
//! The [`CausalLog`] records each protocol step of a message and *why*
//! it happened: every Portals operation gets a [`TraceId`] at
//! initiation, every significant step along its life (trap, firmware
//! command, TX DMA, each link hop, remote header match, interrupt,
//! completion, EQ delivery) appends a [`CausalRecord`], and each record
//! carries an explicit parent edge. The result is a
//! deterministic DAG that [`crate::chain`] walks backwards from an EQ
//! delivery to attribute a measured latency to cost classes with zero
//! residual.
//!
//! Like the telemetry registry, the log is
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
//! **Two halves, one stream.** The [`CausalLog`] the model calls only
//! numbers a record — its handle is its index in the stream, so a handle
//! held after its record was forgotten names nothing rather than whatever
//! record took its place — and keeps what the model reads back at once,
//! the activation cause. Everything else is its [`CausalFolder`]'s — the
//! pending EQ posts too, so an `AppDeliver` names its producer on the
//! side that holds the producer's tip — which applies the log's
//! fixed-size [`Observation`] records in order: in line, or on a consumer
//! thread ([`crate::par::offload`]) from the start of a run to its settle
//! ([`crate::Model::settle`]), beside the link series the same hop
//! records feed. Either way it computes the same thing.
//!
//! What a record costs the folder is O(1): one probe of the
//! [`LatestIndex`] that chains it onto the message's previous stage, and
//! one update of that message's carry. What a stored record *occupies*
//! is 32 bytes: the log keeps each one packed (private `Stored`: the
//! parent edge as a bare `u32` with a sentinel, the stage in the low byte
//! of the node word) and hands out [`CausalRecord`] by value through the
//! [`Records`] view. [`CausalLog::with_cap`] is the other shape: every
//! record whole up to a cap, the rest counted as dropped.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::float_arithmetic)]

use std::collections::VecDeque;

use crate::chain::{self, Breakdown, ChainFold, CostClass, CritPathError};
use crate::digest::EventDigest;
use crate::narrow::{join, split, Spill};
use crate::par::offload::{self, Consume, Pipe, Worker};
use crate::time::SimTime;

/// Records stored whole at the start of every default log; past them the
/// log folds without storing. 2^16 records (2 MiB) hold every run the tests,
/// goldens and `explain` defaults make, with room.
pub const HEAD: u32 = 1 << 16;

/// Correlation identity of one wire message.
///
/// The simulator's per-node `fresh_tag()` counter already mints a
/// globally unique id for every message a node injects ("tag"); the
/// causal layer adopts it as the trace id, so telemetry and the causal
/// DAG all correlate on the same value. Id 0 means "no identity"
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

/// One stalled hop on the path behind a tip: its stall in picoseconds
/// (the low 32 bits; the high ones, when any is set, are the cell's row
/// in [`Hops::spill`]), and a word holding its link — the node, the
/// router port plus one (0 for none) — and how many lists share this
/// cell and everything after it.
#[derive(Debug, Clone, Copy)]
struct HopCell {
    stall: u32,
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
    /// The high words of stalls of 2^32 ps or more, by cell.
    spill: Spill<1>,
    /// First free cell, or [`NO_HOP`].
    free: u32,
}

impl Default for Hops {
    fn default() -> Self {
        Hops {
            cells: Chunks::default(),
            spill: Spill::default(),
            free: NO_HOP,
        }
    }
}

impl Hops {
    /// A cell holding a hop of `stall` with `word` and `next`.
    fn alloc(&mut self, stall: SimTime, word: u32, next: u32) -> u32 {
        let (low, high) = split(stall.ps(), 32);
        let cell = HopCell {
            stall: low,
            word,
            next,
        };
        let at = match self.cells.get_mut(self.free) {
            Some(slot) => {
                let at = self.free;
                self.free = slot.next;
                *slot = cell;
                at
            }
            None => self.cells.push(cell),
        };
        // A reused cell drops the row its last holder left.
        self.spill.set(at, [high]);
        at
    }

    /// The stall of cell `at`, which holds `cell`.
    fn stall(&self, at: u32, cell: &HopCell) -> SimTime {
        let [high] = self.spill.get(at);
        SimTime::from_ps(join(cell.stall, high, 32))
    }

    /// List `head` with one more hop in front; the new list owns the
    /// reference the caller held on `head`.
    fn push(&mut self, head: u32, key: (u32, i16), stall: SimTime) -> u32 {
        let link = key.0 << 3 | (key.1 + 1) as u32;
        self.alloc(stall, 1 << HOP_REFS_SHIFT | link, head)
    }

    /// The hops of list `head`, by `(node, port or -1)`.
    fn iter(&self, head: u32) -> impl Iterator<Item = ((u32, i16), SimTime)> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            let cell = self.cells.get(at)?;
            let hop = (cell.key(), self.stall(at, cell));
            at = cell.next;
            Some(hop)
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
            let new = self.alloc(self.stall(at, &cell), 1 << HOP_REFS_SHIFT | own, NO_HOP);
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
    /// The key it is filed under in the latest-record index: its id, or
    /// a resent copy's key.
    id: u64,
    at: SimTime,
    /// Handles naming it: the latest-record index, each pending EQ post,
    /// the cause.
    refs: u32,
    /// Its index in the stream (what a whole log would index it by).
    ordinal: u32,
    stage: CausalStage,
    /// The path behind it reaches an `ApiEntry` root.
    rooted: bool,
}

/// The tips: a slab with a free list. A handle finds its tip through the
/// slot its record was made in while that tip is still its record
/// ([`CausalFolder`]'s `slot_of`).
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

    /// The slot of the tip that is record `ordinal`, by a scan.
    fn find(&self, ordinal: u32) -> Option<u32> {
        (0..self.slab.len).find(|&s| self.get(s).is_some_and(|t| t.ordinal == ordinal))
    }
}

/// The reference count of a free slab slot.
const FREED: u32 = u32::MAX;

/// No tip slot: what a hold on a record nothing names takes.
const NO_SLOT: u32 = u32::MAX;

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

/// Pending EQ posts, dense by node: each node's `(pid, posts in order)`
/// lanes, a node having a process or two. A post is its producer's record
/// index and the tip slot it holds: a delivery names the producer by the
/// index — its id from the head when the tip is gone — and folds from
/// the tip.
#[derive(Debug, Default)]
struct EqLanes(Vec<Vec<(u32, VecDeque<Post>)>>);

/// A pending EQ post: its producer's record index and the tip slot held.
type Post = (u32, u32);

impl EqLanes {
    /// Queue `count` posts of `v` on `(node, pid)`.
    fn push(&mut self, node: u32, pid: u32, v: Post, count: u64) {
        let node = node as usize;
        if self.0.len() <= node {
            self.0.resize_with(node + 1, Vec::new);
        }
        let Some(lanes) = self.0.get_mut(node) else {
            return;
        };
        if !lanes.iter().any(|&(p, _)| p == pid) {
            lanes.push((pid, VecDeque::new()));
        }
        if let Some((_, fifo)) = lanes.iter_mut().find(|(p, _)| *p == pid) {
            fifo.extend(std::iter::repeat_n(v, count as usize));
        }
    }

    /// The oldest post on `(node, pid)`.
    fn pop(&mut self, node: u32, pid: u32) -> Option<Post> {
        let lanes = self.0.get_mut(node as usize)?;
        let (_, fifo) = lanes.iter_mut().find(|(p, _)| *p == pid)?;
        fifo.pop_front()
    }
}

/// What the log decided about a record before it went down the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Not a causal record (the log is off, or the id is null): only a
    /// link series takes it.
    Off,
    /// Past the cap or unstorable: the digest covers it, nothing keeps it.
    Dropped,
    /// Made, under the next record index.
    Kept,
}

/// One link transit, as the fabric's walk computed it: the `LinkHop`
/// causal record and the link series' occupancy in one.
#[derive(Debug, Clone, Copy)]
pub struct Transit {
    /// The message's tag (its trace id).
    pub tag: u64,
    /// When the header reached the link.
    pub arrival: SimTime,
    /// When it started serializing onto it.
    pub start: SimTime,
    /// When the last packet left it.
    pub done: SimTime,
    /// Packets on the wire.
    pub packets: u64,
    /// Node owning the link.
    pub node: u32,
    /// Router port.
    pub port: u8,
    /// Set by [`CausalLog::hop`].
    pub fate: Fate,
    /// A resent copy's hop (set by [`CausalLog::hop`]).
    pub resent: bool,
}

impl Transit {
    /// The packed `LinkHop` info: the port and the head-of-line stall.
    pub fn info(&self) -> u64 {
        linkhop_info(self.port, self.start.saturating_sub(self.arrival).ps())
    }
}

/// Where a new record's parent edge comes from.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// The caller names it.
    Given(Option<u32>),
    /// A popped EQ post's record and the tip slot it holds, whose
    /// reference passes to the new record — so a tip nothing else names
    /// gives its hops up, not a copy.
    Delivered(u32, u32),
    /// The latest record of the same id.
    Latest,
    /// None: the first stage of a resent copy of its message, filed under
    /// the copy's own key so its hops chain onto it and not onto the
    /// stages of another copy still in flight.
    Resent,
    /// The latest record under the copy's key (a resent copy's hop).
    Copy,
    /// The latest record under the copy's key, which it leaves for the
    /// message's own entry (a resent copy reaching its destination).
    Arrived,
}

/// The latest-record key of a resent copy's stages: its id with a bit no
/// trace id carries (tags are `node << 40 | counter`; the send chain has
/// the top bit).
const RESENT_KEY: u64 = 1 << 62;

impl Parent {
    /// The key `id`'s record is filed under, and the key its parent is
    /// the latest record of (`None` for an explicit or no parent).
    fn keys(self, id: u64) -> (u64, Option<u64>) {
        let copy = id | RESENT_KEY;
        match self {
            Parent::Given(_) | Parent::Delivered(..) => (id, None),
            Parent::Latest => (id, Some(id)),
            Parent::Resent => (copy, None),
            Parent::Copy => (copy, Some(copy)),
            Parent::Arrived => (id, Some(copy)),
        }
    }
}

/// One fixed-size record of the observation stream: everything a
/// [`CausalLog`] is told, in the order it was told, for its
/// [`CausalFolder`] to apply — in line, or on a consumer thread
/// ([`crate::par::offload`]) together with the link series.
#[derive(Debug, Clone, Copy)]
pub enum Observation {
    /// A stage record.
    Record {
        /// Message identity.
        id: TraceId,
        /// When the stage was reached.
        at: SimTime,
        /// Stage detail.
        info: u64,
        /// Node it was reached on.
        node: u32,
        /// Its parent edge.
        parent: Parent,
        /// Which stage.
        stage: CausalStage,
        /// Kept or dropped.
        fate: Fate,
    },
    /// A link transit: a `LinkHop` record chained onto the message's
    /// previous stage, unless its fate is [`Fate::Off`].
    Hop(Transit),
    /// A message injected at a node: for the link series only.
    Inject {
        /// Source node.
        node: u32,
        /// Injection time.
        at: SimTime,
        /// Payload bytes.
        bytes: u64,
    },
    /// The activation cause changed.
    Cause(Option<u32>),
    /// `count` events posted to `(node, pid)`'s queue by record `idx`.
    Posts {
        /// Posting node.
        node: u32,
        /// Process.
        pid: u32,
        /// Producing record.
        idx: u32,
        /// Events posted.
        count: u64,
    },
    /// An `AppDeliver` for the oldest pending post on `(node, pid)`,
    /// which it consumes.
    Deliver {
        /// When the application consumed the event.
        at: SimTime,
        /// Consuming node.
        node: u32,
        /// Consuming process.
        pid: u32,
        /// Kept or dropped.
        fate: Fate,
    },
    /// A message records nothing more.
    Finish(TraceId),
}

/// Deterministic causal record log that folds each chain as it completes.
///
/// Disabled, every record call is one predictable branch. Enabled, the
/// log itself only numbers records — a record's index is the count of
/// records made before it, so a handle never names a later record — and
/// keeps what the model reads back at once: the activation cause.
/// Everything else — the per-message "latest record" index that turns
/// independent handler callbacks into parent→child chains, the FIFO of
/// pending EQ posts per `(node, pid)` through which an `AppDeliver` names
/// the completion that produced the event it consumed, the tips and their
/// carries, the fold, the stored head, the digest — is its
/// [`CausalFolder`]'s, which applies the log's [`Observation`] stream: in
/// line, or on a consumer thread between [`Self::offload`] and
/// [`Self::settle`], while the folder's readers ([`Self::records`],
/// [`Self::fold`], [`Self::held`], [`Self::digest`]) wait for the settle.
#[derive(Debug)]
pub struct CausalLog {
    enabled: bool,
    /// Hop and injection records go down the pipe for a link series.
    lanes: bool,
    /// Stages chained from now on belong to a resent copy.
    resent: bool,
    /// At most `u32::MAX`: parent edges are `u32` record indices.
    cap: u32,
    /// Records made and not dropped: the next record's index.
    made: u32,
    dropped: u64,
    /// The record causally responsible for work done in the current
    /// handler activation (an `AppDeliver`, or a serve-side `MatchDone`).
    cause: Option<u32>,
    /// Applies the stream while no pipe is open (a placeholder while one is).
    folder: CausalFolder,
    pipe: Option<Pipe<Observation>>,
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
            lanes: false,
            resent: false,
            cap: u32::MAX,
            made: 0,
            dropped: 0,
            cause: None,
            folder: CausalFolder::default(),
            pipe: None,
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
            cap,
            folder: CausalFolder {
                head: cap,
                cap,
                ..CausalFolder::default()
            },
            ..Self::enabled()
        }
    }

    /// An enabled log storing only its first `head` records whole — the
    /// seam that lets a test hold a small run to what a long one keeps.
    #[doc(hidden)]
    pub fn with_head(head: usize) -> Self {
        CausalLog {
            folder: CausalFolder {
                head: u32::try_from(head).unwrap_or(u32::MAX),
                ..CausalFolder::default()
            },
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

    /// The folder, which only a settled log has.
    fn folder(&self) -> &CausalFolder {
        assert!(
            self.pipe.is_none(),
            "causal log read while its records are on the consumer thread: settle it first"
        );
        &self.folder
    }

    /// The records stored whole — every record of a run that made no more
    /// than the head — in append order (a child's index is always
    /// greater than its parent's).
    pub fn records(&self) -> Records<'_> {
        Records {
            stored: &self.folder().records,
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
        let folder = self.folder();
        folder.records.len() as u64 + u64::from(folder.tips.live())
    }

    /// The running totals over every chain delivered so far.
    pub fn fold(&self) -> &ChainFold {
        &self.folder().fold
    }

    /// Records discarded after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Streaming digest over every record made while enabled (covers the
    /// full stream even past the retention cap).
    pub fn digest(&self) -> u64 {
        self.folder().digest.value()
    }

    /// Hand `obs` to the folder: down the pipe while one is open.
    #[inline]
    fn send(&mut self, obs: Observation) {
        match &mut self.pipe {
            Some(pipe) => pipe.feed(obs),
            None => self.folder.apply(&obs),
        }
    }

    /// Run the folder on a consumer thread: `state` wraps it into what
    /// the thread drives, and the log's records go down a pipe to it —
    /// with `lanes`, its hop and injection records too, for a link series
    /// the state keeps. [`Self::settle`] takes it back.
    pub fn offload<C: Consume<Rec = Observation>>(
        &mut self,
        lanes: bool,
        state: impl FnOnce(CausalFolder) -> C,
    ) -> Worker<C> {
        assert!(self.pipe.is_none(), "causal log offloaded twice");
        let (pipe, worker) = offload::spawn(state(std::mem::take(&mut self.folder)));
        self.pipe = Some(pipe);
        self.lanes = lanes;
        worker
    }

    /// Close the pipe [`Self::offload`] opened, wait for its consumer to
    /// apply every record, and take the folder back (`folder` finds it in
    /// the state); the state, for whatever else it kept.
    pub fn settle<C>(
        &mut self,
        worker: Worker<C>,
        folder: impl FnOnce(&mut C) -> CausalFolder,
    ) -> C {
        if let Some(pipe) = self.pipe.take() {
            pipe.close();
        }
        let mut state = worker.join();
        self.folder = folder(&mut state);
        self.lanes = false;
        state
    }

    /// Set the record causally responsible for the current activation.
    pub fn set_cause(&mut self, cause: Option<u32>) {
        self.cause = cause;
        if self.enabled {
            self.send(Observation::Cause(cause));
        }
    }

    /// The current activation's cause, if any.
    pub fn cause(&self) -> Option<u32> {
        self.cause
    }

    /// Count a record bound for the log: kept under the next index, or
    /// dropped past the cap or the node limit.
    fn fate(&mut self, node: u32) -> Fate {
        if self.made >= self.cap || node > MAX_CAUSAL_NODE {
            self.dropped += 1;
            Fate::Dropped
        } else {
            self.made += 1;
            Fate::Kept
        }
    }

    /// Append a record whose parent is the latest record of the same id
    /// (or the explicit `parent` when given). Returns the new record's
    /// index — a handle that names it while it is held or its message's
    /// latest, and nothing after — or `None` when disabled, capped, or
    /// `id` is null.
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
        let parent = match (self.resent, stage) {
            (false, _) => Parent::Latest,
            (true, CausalStage::TxInject) => Parent::Resent,
            (true, _) => Parent::Copy,
        };
        self.record_slow(id, stage, at, node, parent, info)
    }

    /// While `on`, the stages [`Self::record_chain`] and [`Self::hop`]
    /// record belong to a resent copy of their message (a go-back-n
    /// retransmission): its `TxInject` starts a chain of its own, and its
    /// hops chain onto it rather than onto the latest stage of another
    /// copy, which may be later in time.
    pub fn set_resent(&mut self, on: bool) {
        self.resent = on;
    }

    /// The `NetArrive` of a resent copy: chained onto that copy's last
    /// hop, and the message's latest stage from now on.
    pub fn record_copy_arrival(&mut self, id: TraceId, at: SimTime, node: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let stage = CausalStage::NetArrive;
        self.record_slow(id, stage, at, node, Parent::Arrived, 0)
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
        let idx = self.made;
        let fate = self.fate(node);
        self.send(Observation::Record {
            id,
            at,
            info,
            node,
            parent,
            stage,
            fate,
        });
        (fate == Fate::Kept).then_some(idx)
    }

    /// Is anything watching link transits: the log, or a link series it
    /// carries?
    #[inline]
    pub fn observes_hops(&self) -> bool {
        self.enabled || self.lanes
    }

    /// A link transit: a `LinkHop` record chained onto the message's
    /// previous stage (whose `info` packs the port and the stall), and,
    /// while the log carries a link series, that series' occupancy.
    pub fn hop(&mut self, mut transit: Transit) {
        transit.resent = self.resent;
        transit.fate = if self.enabled && transit.tag != 0 {
            self.fate(transit.node)
        } else {
            Fate::Off
        };
        if transit.fate != Fate::Off || self.lanes {
            self.send(Observation::Hop(transit));
        }
    }

    /// A message injected at `node`: for the link series the log carries,
    /// if any.
    pub fn inject(&mut self, node: u32, at: SimTime, bytes: u64) {
        if self.lanes {
            self.send(Observation::Inject { node, at, bytes });
        }
    }

    /// Note that the completion recorded at `idx` posted `count` events
    /// to `(node, pid)`'s event queue.
    pub fn push_eq_posts(&mut self, node: u32, pid: u32, idx: u32, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        self.send(Observation::Posts {
            node,
            pid,
            idx,
            count,
        });
    }

    /// Message `id` records nothing more: its completion is attributed
    /// (or it found no match). Its latest-record entry goes when that
    /// record is past the head, so the record is forgotten once no
    /// pending EQ post or cause names it. (A later record of the id — a
    /// go-back-n duplicate of a delivered message — starts a chain of its
    /// own, which no delivery walks.) A caller still holding one of the
    /// message's record indices makes it the cause first.
    pub fn finish(&mut self, id: TraceId) {
        if self.enabled {
            self.send(Observation::Finish(id));
        }
    }

    /// Record the `AppDeliver` for the event a successful `eq_get` on
    /// `(node, pid)` just consumed — chained onto the completion behind
    /// the oldest pending post there ([`Self::push_eq_posts`]), whose
    /// chain folds — and make it the current activation's cause.
    pub fn record_deliver(&mut self, node: u32, pid: u32, at: SimTime) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.made;
        let fate = self.fate(node);
        self.send(Observation::Deliver {
            at,
            node,
            pid,
            fate,
        });
        self.cause = (fate == Fate::Kept).then_some(idx);
        self.cause
    }
}

/// Ordinals whose tip slot [`CausalFolder`] remembers (a power of two):
/// a handle is almost always used within a handler of its record.
const RECENT: u32 = 1 << 12;

/// What a [`CausalLog`]'s stream builds: the records still named (tips,
/// with the path behind each folded into its carry), the latest record of
/// each message, the stored head, the running fold and the digest. A
/// plain single-threaded type: the log applies its stream in line, or a
/// consumer thread does between [`CausalLog::offload`] and
/// [`CausalLog::settle`].
#[derive(Debug)]
pub struct CausalFolder {
    /// Records below this index are stored whole, for good.
    head: u32,
    cap: u32,
    /// The head, in append order.
    records: Vec<Stored>,
    /// Records made: the next record's index.
    made: u32,
    /// The records still named, and their stalled hops.
    tips: Tips,
    hops: Hops,
    /// Defects met on paths (a carry names one by index).
    defects: Vec<CritPathError>,
    digest: EventDigest,
    /// Latest record per trace id, by tip slot (chains stages recorded
    /// by different handlers).
    latest: LatestIndex,
    /// The tip slot record `i` was made in, at `i % RECENT` (empty
    /// until the first record).
    recent: Vec<u32>,
    /// Pending EQ posts: each its record and the tip slot it holds.
    posts: EqLanes,
    /// The tip slot held for the activation cause.
    cause: Option<u32>,
    fold: ChainFold,
}

impl Default for CausalFolder {
    fn default() -> Self {
        CausalFolder {
            head: HEAD,
            cap: u32::MAX,
            records: Vec::new(),
            made: 0,
            tips: Tips::default(),
            hops: Hops::default(),
            defects: Vec::new(),
            digest: EventDigest::new(),
            latest: LatestIndex::default(),
            recent: Vec::new(),
            posts: EqLanes::default(),
            cause: None,
            fold: ChainFold::default(),
        }
    }
}

impl CausalFolder {
    /// Apply one record of the stream.
    pub fn apply(&mut self, obs: &Observation) {
        match *obs {
            Observation::Record {
                id,
                at,
                info,
                node,
                parent,
                stage,
                fate,
            } => {
                self.digest(id, stage, at, node, info);
                if fate == Fate::Kept {
                    self.record(id, stage, at, node, parent, info);
                }
            }
            Observation::Hop(t) => {
                if t.fate != Fate::Off {
                    let (id, info) = (TraceId(t.tag), t.info());
                    self.digest(id, CausalStage::LinkHop, t.start, t.node, info);
                    if t.fate == Fate::Kept {
                        let parent = if t.resent {
                            Parent::Copy
                        } else {
                            Parent::Latest
                        };
                        self.record(id, CausalStage::LinkHop, t.start, t.node, parent, info);
                    }
                }
            }
            Observation::Inject { .. } => {}
            Observation::Cause(cause) => {
                let held = cause.map(|idx| self.hold(idx, 1));
                self.set_cause(held);
            }
            Observation::Posts {
                node,
                pid,
                idx,
                count,
            } => {
                let slot = self.hold(idx, count as u32);
                self.posts.push(node, pid, (idx, slot), count);
            }
            Observation::Deliver {
                at,
                node,
                pid,
                fate,
            } => self.deliver(at, node, pid, fate),
            Observation::Finish(id) => self.finish(id),
        }
    }

    fn digest(&mut self, id: TraceId, stage: CausalStage, at: SimTime, node: u32, info: u64) {
        self.digest.write_u64(id.0);
        self.digest.write_u8(stage as u8);
        self.digest.write_u64(at.ps());
        self.digest.write_u32(node);
        self.digest.write_u64(info);
    }

    /// Make `held` — a tip slot with a reference taken for it — the
    /// cause, releasing the one it replaces.
    fn set_cause(&mut self, held: Option<u32>) {
        if let Some(old) = std::mem::replace(&mut self.cause, held) {
            self.release(old);
        }
    }

    /// The tip slot record `idx` names: the tip made in it, while that
    /// tip is still that record (a held tip never moves on, so a handle
    /// held stays good, and a stale one names nothing).
    fn slot_of(&self, idx: u32) -> Option<u32> {
        let names = |s: u32| self.tips.get(s).is_some_and(|t| t.ordinal == idx);
        let recent = self.recent.get((idx % RECENT) as usize).copied();
        if let Some(s) = [self.cause, recent]
            .into_iter()
            .flatten()
            .find(|&s| names(s))
        {
            return Some(s);
        }
        // Remembered slots hold the last RECENT records; an older record
        // is found only where a tip still is it.
        if idx >= self.made || self.made - idx <= RECENT {
            return None;
        }
        self.tips.find(idx)
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

    /// Make record `made` (the next index) with its parent edge; its index.
    fn record(
        &mut self,
        id: TraceId,
        stage: CausalStage,
        at: SimTime,
        node: u32,
        parent: Parent,
        info: u64,
    ) -> u32 {
        let mut rec = CausalRecord {
            id,
            stage,
            at,
            node,
            parent: None,
            info,
        };
        let ordinal = self.made;
        self.made += 1;
        // Where the message's own chain is: a resent copy joins it only
        // while it is on the sender side — a copy reaching a receive
        // already under way is a duplicate, off the spine.
        let spine = matches!(parent, Parent::Resent | Parent::Arrived)
            .then(|| self.latest(id.0))
            .flatten()
            .and_then(|s| Some((s, self.tips.get(s)?)))
            .filter(|(_, tip)| tip.stage < CausalStage::NetArrive)
            .map(|(s, tip)| (s, tip.stage, tip.at));
        let duplicate =
            matches!(parent, Parent::Arrived) && self.latest(id.0).is_some() && spine.is_none();
        let indexed = id.is_some() && stage != CausalStage::AppDeliver && !duplicate;
        let (key, chain) = parent.keys(id.0);
        let chained = chain == Some(key);
        let previous = (indexed || chained).then(|| self.latest(key)).flatten();
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
                    Parent::Given(p) => p.map(|p| (p, self.slot_of(p))),
                    Parent::Delivered(p, slot) => Some((p, Some(slot))),
                    Parent::Latest | Parent::Copy => previous.and_then(|s| self.edge_from(s)),
                    Parent::Arrived => self
                        .latest(id.0 | RESENT_KEY)
                        .and_then(|s| self.edge_from(s)),
                    // The sender-side tail it was resent from, unless that
                    // is later than the copy (another copy's hop).
                    Parent::Resent => spine
                        .filter(|&(_, st, t)| st == CausalStage::TxCmdPost || t <= at)
                        .and_then(|(s, ..)| self.edge_from(s)),
                };
                rec.parent = from.map(|(p, _)| p);
                let take = matches!(parent, Parent::Delivered(..));
                let file = indexed.then_some((key, previous));
                let slot = self.push_tip(ordinal, &rec, from, file, take);
                if matches!(parent, Parent::Arrived) {
                    self.unfile(id.0 | RESENT_KEY);
                    if duplicate {
                        // Nothing names it.
                        let hops = self.tips.remove(slot);
                        self.hops.free(hops);
                    }
                }
                slot
            }
        };
        if self.made >= self.cap {
            self.latest = LatestIndex::default();
        }
        if self.recent.is_empty() {
            self.recent = vec![NO_SLOT; RECENT as usize];
        }
        if let Some(r) = self.recent.get_mut((ordinal % RECENT) as usize) {
            *r = slot;
        }
        if ordinal < self.head {
            self.records.push(Stored::pack(&rec));
        }
        ordinal
    }

    /// Hold record `ordinal` in a tip of its own; its slot. Its carry is
    /// its parent's — `from`, the parent edge and its tip — plus the edge
    /// between them; a delivery folds it. With `file`, it becomes the
    /// latest record under that key, releasing the one it replaces.
    fn push_tip(
        &mut self,
        ordinal: u32,
        rec: &CausalRecord,
        from: Option<(u32, Option<u32>)>,
        file: Option<(u64, Option<u32>)>,
        take: bool,
    ) -> u32 {
        let (carry, rooted) = self.carry(ordinal, rec, from, take);
        if rec.stage == CausalStage::AppDeliver && rec.parent.is_some() && rooted {
            match carry.defect.checked_sub(1) {
                Some(d) => {
                    if let Some(&e) = self.defects.get(d as usize) {
                        self.fold.defect(e);
                    }
                }
                None => self.fold.add(&carry.sum, self.hops.iter(carry.hops)),
            }
        }
        let slot = self.tips.insert(Tip {
            carry,
            id: file.map_or(rec.id.0, |(key, _)| key),
            at: rec.at,
            refs: u32::from(file.is_some()),
            ordinal,
            stage: rec.stage,
            rooted,
        });
        if let Some((key, previous)) = file {
            let tips = &self.tips;
            let id_of = |s: u32| tips.get(s).map(|t| t.id);
            self.latest.replace(key, slot, id_of);
            if let Some(prev) = previous {
                self.release(prev);
            }
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

    /// The edge from tip `slot`: its record and the slot.
    fn edge_from(&self, slot: u32) -> Option<(u32, Option<u32>)> {
        Some((self.tips.get(slot)?.ordinal, Some(slot)))
    }

    /// Message `id` records nothing more (see [`CausalLog::finish`]): nor
    /// does a resent copy of it still in flight.
    fn finish(&mut self, id: TraceId) {
        self.forget(id.0);
        self.forget(id.0 | RESENT_KEY);
    }

    /// Drop `key`'s latest-record entry if its record is past the head.
    fn forget(&mut self, key: u64) {
        let past_head = |s: u32| self.tips.get(s).is_some_and(|t| t.ordinal >= self.head);
        if self.latest(key).is_some_and(past_head) {
            self.unfile(key);
        }
    }

    /// Drop `key`'s latest-record entry.
    fn unfile(&mut self, key: u64) {
        let tips = &self.tips;
        let id_of = |s: u32| tips.get(s).map(|t| t.id);
        if let Some(slot) = self.latest.remove(key, id_of) {
            self.release(slot);
        }
    }

    /// The `AppDeliver` of the oldest pending post on `(node, pid)` (its
    /// chain folds), made the activation's cause. The producer's id is
    /// its stored record's, or its tip's while the post holds one.
    fn deliver(&mut self, at: SimTime, node: u32, pid: u32, fate: Fate) {
        let post = self.posts.pop(node, pid);
        let id = post
            .and_then(|(idx, slot)| match self.records.get(idx as usize) {
                Some(rec) => Some(rec.id),
                None => self.tips.get(slot).map(|tip| tip.id),
            })
            .map_or(TraceId::NONE, TraceId);
        let stage = CausalStage::AppDeliver;
        self.digest(id, stage, at, node, u64::from(pid));
        let idx = (fate == Fate::Kept).then(|| {
            let parent = post.map_or(Parent::Given(None), |(p, slot)| Parent::Delivered(p, slot));
            self.record(id, stage, at, node, parent, u64::from(pid))
        });
        if let Some((_, slot)) = post {
            self.release(slot);
        }
        let held = idx.map(|idx| self.hold(idx, 1));
        self.set_cause(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_past_u32_reads_back_through_copy_and_reuse() {
        let mut hops = Hops::default();
        let (long, short) = (SimTime::from_ps((1 << 32) + 5), SimTime::from_ps(7));
        let a = hops.push(NO_HOP, (3, 1), long);
        let b = hops.push(a, (4, -1), short);
        let want = [((4, -1), short), ((3, 1), long)];
        assert_eq!(hops.iter(b).collect::<Vec<_>>(), want);
        let copy = hops.copy(b);
        assert_eq!(hops.iter(copy).collect::<Vec<_>>(), want);
        // Both of `b`'s cells go back to the free list and are reused
        // for short stalls: the long one's row goes with its holder.
        hops.free(b);
        let d = hops.push(NO_HOP, (5, 2), short);
        let e = hops.push(d, (6, 0), short);
        assert_eq!(
            hops.iter(e).collect::<Vec<_>>(),
            [((6, 0), short), ((5, 2), short)]
        );
        assert_eq!(hops.iter(copy).collect::<Vec<_>>(), want);
        assert_eq!(hops.spill.len(), 1, "only the copy's long stall");
    }

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
        assert_eq!(std::mem::size_of::<HopCell>(), 12);
        // What one record costs in flight to a consumer thread.
        assert_eq!(std::mem::size_of::<Observation>(), 56);
    }

    #[test]
    fn a_disabled_log_holds_no_heap() {
        let mut log = CausalLog::disabled();
        log.record_chain(TraceId(1), CausalStage::ApiEntry, SimTime::ZERO, 0, 8);
        log.push_eq_posts(3, 0, 0, 2);
        log.set_cause(None);
        log.finish(TraceId(1));
        let folder = &log.folder;
        assert_eq!(folder.records.capacity(), 0);
        assert_eq!(folder.recent.capacity(), 0);
        assert_eq!(folder.tips.slab.chunks.capacity(), 0);
        assert_eq!(folder.latest.slots.capacity(), 0);
        assert_eq!(folder.posts.0.capacity(), 0);
    }

    /// A consumer that only folds.
    struct Folds(CausalFolder);

    impl Consume for Folds {
        type Rec = Observation;
        fn apply(&mut self, rec: &Observation) {
            self.0.apply(rec);
        }
    }

    /// Ten thousand messages of five stages, every delivery consumed.
    fn drive(log: &mut CausalLog) {
        for m in 1..=10_000u64 {
            let (id, at) = (TraceId(m), SimTime::from_ns(m));
            let api = log.record(id, CausalStage::ApiEntry, at, 0, log.cause(), 8);
            assert!(api.is_some());
            for (k, stage) in [CausalStage::TxInject, CausalStage::NetArrive]
                .into_iter()
                .enumerate()
            {
                log.record_chain(id, stage, at + SimTime::from_ns(k as u64 + 1), 1, 0);
            }
            log.hop(Transit {
                tag: m,
                arrival: at + SimTime::from_ns(3),
                start: at + SimTime::from_ns(4),
                done: at + SimTime::from_ns(5),
                packets: 1,
                node: 1,
                port: 2,
                fate: Fate::Off,
                resent: false,
            });
            let post = log.record_chain(id, CausalStage::EqPost, at + SimTime::from_ns(6), 1, 0);
            log.push_eq_posts(1, 0, post.expect("made"), 1);
            log.finish(id);
            log.record_deliver(1, 0, at + SimTime::from_ns(7));
        }
    }

    #[test]
    fn an_offloaded_log_settles_to_the_in_line_result() {
        let mut here = CausalLog::enabled();
        drive(&mut here);
        let mut piped = CausalLog::enabled();
        let worker = piped.offload(false, Folds);
        drive(&mut piped);
        piped.settle(worker, |f| std::mem::take(&mut f.0));
        assert_eq!(piped.digest(), here.digest());
        assert_eq!(piped.fold(), here.fold());
        assert_eq!(piped.fold().chains(), 10_000);
        assert_eq!((piped.made(), piped.held()), (here.made(), here.held()));
        assert_eq!(
            piped.records().iter().collect::<Vec<_>>(),
            here.records().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn an_old_handle_to_a_live_record_still_names_it() {
        // Record `a` stays its message's latest while more than RECENT
        // records are made, so only the scan of the tips finds it.
        let mut log = CausalLog::with_head(0);
        let a = log.record_chain(TraceId(1), CausalStage::ApiEntry, SimTime::ZERO, 0, 0);
        for m in 2..2 + u64::from(RECENT) {
            let at = SimTime::from_ns(1);
            log.record_chain(TraceId(m), CausalStage::ApiEntry, at, 0, 0);
            log.finish(TraceId(m));
        }
        let at = SimTime::from_ns(2);
        let post = log.record(TraceId(1), CausalStage::EqPost, at, 0, a, 0);
        log.push_eq_posts(0, 0, post.expect("made"), 1);
        log.record_deliver(0, 0, at);
        assert_eq!(log.fold().error(), None);
        assert_eq!(log.fold().chains(), 1);
    }

    #[test]
    fn a_handle_to_a_freed_record_names_nothing() {
        // Past the head: `a`'s tip is freed when its message finishes,
        // and `b`'s record takes its slot. A child of `a` has no parent to
        // fold from — it must not chain onto `b`.
        let mut log = CausalLog::with_head(0);
        let a = log.record_chain(TraceId(1), CausalStage::ApiEntry, SimTime::ZERO, 0, 0);
        log.finish(TraceId(1));
        let at = SimTime::from_ns(1);
        log.record_chain(TraceId(2), CausalStage::ApiEntry, at, 0, 0);
        assert_eq!(log.folder.tips.live(), 1, "a's slot was reused");
        let c = log.record(TraceId(3), CausalStage::EqPost, at, 0, a, 0);
        log.push_eq_posts(0, 0, c.expect("made"), 1);
        log.record_deliver(0, 0, at);
        assert_eq!(
            log.fold().error(),
            Some(CritPathError::MissingRecord { idx: 0 })
        );
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
        let at = SimTime::from_ns(3);
        let parent = |log: &CausalLog, d: Option<u32>| {
            let rec = log.records().get(d.unwrap() as usize).unwrap();
            (rec.id, rec.parent)
        };
        let d = log.record_deliver(0, 0, at);
        assert_eq!(parent(&log, d), (TraceId(1), Some(p1)));
        assert_eq!(log.cause(), d);
        let d = log.record_deliver(0, 0, at);
        assert_eq!(parent(&log, d), (TraceId(2), Some(p2)));
        // Nothing pending: a delivery with no producer.
        let d = log.record_deliver(0, 0, at);
        assert_eq!(parent(&log, d), (TraceId::NONE, None));
    }
}
