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

/// One node of the causal DAG.
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
    records: Vec<CausalRecord>,
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
    pub fn records(&self) -> &[CausalRecord] {
        &self.records
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
        if self.records.len() >= self.cap as usize {
            self.dropped += 1;
            return None;
        }
        let idx = self.records.len() as u32;
        // One probe both finds the previous stage and enters this one.
        let indexed = id.is_some() && stage != CausalStage::AppDeliver;
        let previous = indexed.then(|| self.latest.replace(id.0, idx)).flatten();
        let parent = match parent {
            Parent::Given(parent) => parent,
            Parent::Latest if indexed => previous,
            Parent::Latest => self.latest.latest(id.0),
        };
        self.records.push(CausalRecord {
            id,
            stage,
            at,
            node,
            parent,
            info,
        });
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
            .map(|r| r.id)
            .unwrap_or(TraceId::NONE);
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
        let recs = log.records();
        assert_eq!(recs[b as usize].parent, Some(a));
        assert_eq!(recs[c as usize].parent, Some(b));
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
        assert_eq!(log.records()[0].id, TraceId(1));
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
        assert_eq!(log.records()[d as usize].id, TraceId(1));
        assert_eq!(log.records()[d as usize].parent, Some(p1));
        assert_eq!(log.cause(), Some(d));
        assert_eq!(log.pop_eq_post(0, 0), Some(p2));
        assert_eq!(log.pop_eq_post(0, 0), None);
    }
}
