//! Causal message tracing.
//!
//! Where [`crate::Trace`] records *that* a protocol step happened, the
//! [`CausalLog`] records *why*: every Portals operation gets a
//! [`TraceId`] at initiation, every significant step along its life
//! (trap, firmware command, TX DMA, each link hop, remote header match,
//! interrupt, completion, EQ delivery) appends a [`CausalRecord`], and
//! each record carries an explicit parent edge. The result is a bounded,
//! deterministic DAG the `telemetry::critpath` extractor can walk
//! backwards from an EQ delivery to attribute a measured latency to cost
//! classes with zero residual.
//!
//! Like the telemetry registry (and unlike `Trace`), the log is
//! *observation-only*: it is never folded into a model's state
//! fingerprint, so enabling it cannot perturb replay digests. It still
//! keeps its own streaming digest so tests can assert that two
//! instrumented runs recorded identical causal streams.
//!
//! What a record costs is O(1): an append, plus one probe of the
//! [`LatestIndex`] that chains it onto the message's previous stage. The
//! index holds one slot per message id among the *stored* records, so the
//! record cap bounds it too: a record past the cap is folded into the
//! digest and counted, never indexed or looked up, and the record that
//! fills the log releases the index — every chain ends there, because no
//! later record can have a stored child.
//!
//! What a record *occupies* is 32 bytes: the log keeps each one packed
//! (private `Stored`: the parent edge as a bare `u32` with a sentinel, the
//! stage in the low byte of the node word) and hands out [`CausalRecord`]
//! by value through the [`Records`] view, so the 2²¹-record default cap
//! is 64 MiB of log and not 80.

use crate::digest::EventDigest;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Default cap on stored causal records. Past it new records are counted
/// but not stored (the buffer is append-only — a ring would invalidate
/// parent indices — so truncation keeps the *head* of the stream).
const DEFAULT_RECORD_CAP: u32 = 1 << 21;

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

/// The latest stored record of each message id: an open-addressed
/// `id → record index` table, empty until the first record, doubled when
/// more than half full, Fibonacci-hashed and linearly probed. It is only
/// ever probed for one id, never iterated, so slot order cannot reach any
/// output.
///
/// The same pattern as `firmware::source`'s active-source index, and
/// deliberately not the same type: that one keys on a `u32` node id for
/// which 0 is a real key (so vacancy lives in the value), takes its live
/// count from the source pool (a counter of its own would add 8 B to each
/// of 10,368 nodes, and those workloads' heap is held to the byte), and
/// needs backward-shift deletion; this one has a free key (0 is
/// [`TraceId::NONE`], never recorded), counts for itself and is only ever
/// released whole.
#[derive(Debug, Default)]
struct LatestIndex {
    /// Empty or a power of two long and never more than half full, so
    /// every probe run ends at a vacant slot (id 0).
    slots: Vec<(u64, u32)>,
    live: u32,
}

impl LatestIndex {
    /// The slot holding `id`, or the vacant one ending its probe run.
    /// `None` only while the table is empty.
    fn probe(&self, id: u64) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        // Top bits of the Fibonacci hash (length >= 2, so the shift is
        // below 64).
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut pos = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let (held, _) = *self.slots.get(pos)?;
            if held == id || held == 0 {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The latest record of `id` (0 is never a key).
    fn latest(&self, id: u64) -> Option<u32> {
        let &(held, idx) = self.slots.get(self.probe(id)?)?;
        (held == id && id != 0).then_some(idx)
    }

    /// Make `idx` the latest record of `id` (non-zero); returns the one
    /// it replaces.
    fn replace(&mut self, id: u64, idx: u32) -> Option<u32> {
        if (self.live as usize + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let pos = self.probe(id)?;
        let slot = self.slots.get_mut(pos)?;
        let prev = (slot.0 == id).then_some(slot.1);
        if prev.is_none() {
            self.live += 1;
        }
        *slot = (id, idx);
        prev
    }

    /// Double the table (from nothing: [`MIN_INDEX_LEN`]) and re-enter
    /// every id.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_INDEX_LEN);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); len]);
        for (id, idx) in old.into_iter().filter(|&(id, _)| id != 0) {
            let vacant = self.probe(id);
            if let Some(slot) = vacant.and_then(|pos| self.slots.get_mut(pos)) {
                *slot = (id, idx);
            }
        }
    }
}

/// Bounded, deterministic causal record log.
///
/// Disabled, every record call is one predictable branch. Enabled, the
/// log appends records, maintains the per-message "latest record" index
/// that turns independent handler callbacks into parent→child chains,
/// and tracks the FIFO of pending EQ posts per `(node, pid)` so an
/// `AppDeliver` can name the completion that produced the event it
/// consumed.
#[derive(Debug)]
pub struct CausalLog {
    enabled: bool,
    /// At most `u32::MAX`: parent edges are `u32` record indices.
    cap: u32,
    records: Vec<Stored>,
    dropped: u64,
    digest: EventDigest,
    /// Latest stored record per trace id (chains stages recorded by
    /// different handlers).
    latest: LatestIndex,
    /// Pending EQ posts, dense by node: each node's `(pid, record
    /// indices in post order)` lanes, a node having a process or two.
    eq_fifo: Vec<Vec<(u32, VecDeque<u32>)>>,
    /// The record causally responsible for work done in the current
    /// handler activation (an `AppDeliver`, or a serve-side `MatchDone`).
    cause: Option<u32>,
}

/// Where a new record's parent edge comes from.
#[derive(Clone, Copy)]
enum Parent {
    /// The caller names it.
    Given(Option<u32>),
    /// The latest stored record of the same id.
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
            cap: DEFAULT_RECORD_CAP,
            records: Vec::new(),
            dropped: 0,
            digest: EventDigest::new(),
            latest: LatestIndex::default(),
            eq_fifo: Vec::new(),
            cause: None,
        }
    }

    /// An enabled log with the default record cap.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A log with the default record cap, recording or not as `enabled`
    /// says — for callers holding the choice as a flag.
    pub fn new(enabled: bool) -> Self {
        CausalLog {
            enabled,
            ..Self::disabled()
        }
    }

    /// An enabled log storing at most `cap` records (and never more
    /// than `u32::MAX`, the range of a parent edge).
    pub fn with_cap(cap: usize) -> Self {
        CausalLog {
            enabled: true,
            cap: u32::try_from(cap).unwrap_or(u32::MAX),
            ..Self::disabled()
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

    /// All stored records, in append order (a child's index is always
    /// greater than its parent's).
    pub fn records(&self) -> Records<'_> {
        Records {
            stored: &self.records,
        }
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
        self.cause = cause;
    }

    /// The current activation's cause, if any.
    pub fn cause(&self) -> Option<u32> {
        self.cause
    }

    /// Append a record whose parent is the latest record of the same id
    /// (or the explicit `parent` when given). Returns the new record's
    /// index, or `None` when disabled, capped, or `id` is null.
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
        if self.records.len() >= self.cap as usize || rec.check().is_err() {
            self.dropped += 1;
            return None;
        }
        let idx = self.records.len() as u32;
        // One probe both finds the previous stage and enters this one.
        let indexed = id.is_some() && stage != CausalStage::AppDeliver;
        let previous = indexed.then(|| self.latest.replace(id.0, idx)).flatten();
        rec.parent = match parent {
            Parent::Given(parent) => parent,
            Parent::Latest if indexed => previous,
            Parent::Latest => self.latest.latest(id.0),
        };
        self.records.push(Stored::pack(&rec));
        if self.records.len() >= self.cap as usize {
            self.latest = LatestIndex::default();
        }
        Some(idx)
    }

    /// Note that the completion recorded at `idx` posted `count` events
    /// to `(node, pid)`'s event queue.
    pub fn push_eq_posts(&mut self, node: u32, pid: u32, idx: u32, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
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
            fifo.extend(std::iter::repeat_n(idx, count as usize));
        }
    }

    /// Pop the oldest pending EQ post for `(node, pid)` (the event a
    /// successful `eq_get` just consumed).
    pub fn pop_eq_post(&mut self, node: u32, pid: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let lanes = self.eq_fifo.get_mut(node as usize)?;
        let (_, fifo) = lanes.iter_mut().find(|(p, _)| *p == pid)?;
        fifo.pop_front()
    }

    /// Convenience: record the `AppDeliver` for a consumed event and make
    /// it the current activation's cause. `producer` is the `EqPost`-side
    /// record popped from the FIFO.
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
        let id = producer
            .and_then(|i| self.records.get(i as usize))
            .map_or(TraceId::NONE, |r| TraceId(r.id));
        let idx = self.record_slow(
            id,
            CausalStage::AppDeliver,
            at,
            node,
            Parent::Given(producer),
            pid as u64,
        );
        self.cause = idx;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_record_is_thirty_two_bytes() {
        // 2^21 of them are the default log: 64 MiB instead of the 80 MiB
        // of `CausalRecord`s (an `Option<u32>` parent and a one-byte
        // stage each padded out to eight). DESIGN.md §9 quotes this.
        assert_eq!(std::mem::size_of::<Stored>(), 32);
        assert_eq!(std::mem::size_of::<CausalRecord>(), 40);
    }

    #[test]
    fn a_disabled_log_holds_no_heap() {
        let mut log = CausalLog::disabled();
        log.record_chain(TraceId(1), CausalStage::ApiEntry, SimTime::ZERO, 0, 8);
        log.push_eq_posts(3, 0, 0, 2);
        assert_eq!(log.records.capacity(), 0);
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
