//! The critical-path walk over a causal log, and its eight cost classes.
//!
//! A delivered message's critical path is the backward walk from its
//! [`CausalStage::AppDeliver`] to the [`CausalStage::ApiEntry`] that
//! caused it. Every segment of it is the difference of two consecutive
//! checkpoint timestamps, charged to one [`CostClass`], so a chain's
//! per-class durations telescope and sum *exactly* — to the picosecond —
//! to its span.
//!
//! The classification lives here, beside the log, because the log runs it
//! itself: [`crate::CausalLog`] classifies each edge as its child is
//! recorded, carries the classified path forward record by record, and
//! folds it into its [`ChainFold`] when the delivery is recorded.
//! `telemetry::critpath` runs [`walk_one`] — the same edges, walked back
//! from a delivery — over a whole log.

use crate::causal::{linkhop_port, linkhop_stall, CausalRecord, CausalStage, Records, TraceId};
use crate::time::SimTime;
use core::fmt;

/// One of the eight cost classes a critical-path segment is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum CostClass {
    /// Host-side trap into the kernel to post a TX command.
    Trap = 0,
    /// Firmware TX processing: command decode, DMA setup, injection.
    FwTx = 1,
    /// TX or RX DMA engine data movement (HyperTransport crossings).
    Dma = 2,
    /// Wire propagation and serialization across fabric links.
    Wire = 3,
    /// Head-of-line blocking while queued behind other traffic at a hop.
    HopQueue = 4,
    /// Host interrupt delivery and service entry.
    Interrupt = 5,
    /// Firmware RX processing: header parse, match dispatch.
    FwRx = 6,
    /// Host-side completion: matching, event posting, EQ poll wakeup.
    HostCompletion = 7,
}

impl CostClass {
    /// Number of cost classes.
    pub const COUNT: usize = 8;

    /// All classes, in stable display order.
    pub const ALL: [CostClass; CostClass::COUNT] = [
        CostClass::Trap,
        CostClass::FwTx,
        CostClass::Dma,
        CostClass::Wire,
        CostClass::HopQueue,
        CostClass::Interrupt,
        CostClass::FwRx,
        CostClass::HostCompletion,
    ];

    /// Stable kebab-case name, used in JSON output and tables.
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Trap => "trap",
            CostClass::FwTx => "fw-tx",
            CostClass::Dma => "dma",
            CostClass::Wire => "wire",
            CostClass::HopQueue => "hop-queueing",
            CostClass::Interrupt => "interrupt",
            CostClass::FwRx => "fw-rx",
            CostClass::HostCompletion => "host-completion",
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class time totals. Indexable by [`CostClass`]; sums are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    classes: [SimTime; CostClass::COUNT],
}

impl Breakdown {
    /// Nothing in any class.
    pub const ZERO: Breakdown = Breakdown {
        classes: [SimTime::ZERO; CostClass::COUNT],
    };

    /// An all-zero breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Add `dur` to `class`.
    pub fn add(&mut self, class: CostClass, dur: SimTime) {
        if let Some(t) = self.classes.get_mut(class as usize) {
            *t += dur;
        }
    }

    /// Time charged to `class`.
    pub fn get(&self, class: CostClass) -> SimTime {
        let t = self.classes.get(class as usize);
        t.copied().unwrap_or(SimTime::ZERO)
    }

    /// Sum of all classes. For a single chain this equals the chain
    /// span exactly (the segments telescope).
    pub fn total(&self) -> SimTime {
        let mut sum = SimTime::ZERO;
        for t in self.classes {
            sum += t;
        }
        sum
    }

    /// Accumulate another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (sum, t) in self.classes.iter_mut().zip(other.classes) {
            *sum += t;
        }
    }

    /// Iterate `(class, duration)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (CostClass, SimTime)> + '_ {
        CostClass::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// One classified edge of a critical path: the time between two
/// consecutive causal checkpoints, charged to `class`.
///
/// A [`CausalStage::LinkHop`] edge yields up to two segments with the
/// same endpoints: the wire portion and the head-of-line stall portion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index of the earlier (parent) record in the causal log.
    pub from: u32,
    /// Index of the later (child) record the segment ends at.
    pub to: u32,
    /// Stage of the record the segment ends at.
    pub stage: CausalStage,
    /// Cost class the segment is charged to.
    pub class: CostClass,
    /// Segment duration; non-negative by construction.
    pub dur: SimTime,
}

/// The critical path of one delivered message: the unique backward walk
/// from its EQ delivery to the API call that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Id of the message whose completion was delivered.
    pub id: TraceId,
    /// Causal-log index of the [`CausalStage::ApiEntry`] root.
    pub root: u32,
    /// Causal-log index of the [`CausalStage::AppDeliver`] terminal.
    pub deliver: u32,
    /// Node that observed the delivery.
    pub node: u32,
    /// Process (pid) that observed the delivery.
    pub pid: u32,
    /// Timestamp of the root API entry.
    pub start: SimTime,
    /// Timestamp of the delivery.
    pub end: SimTime,
    /// Payload length (bytes) stamped on the root API entry. Zero-byte
    /// chains are synchronization traffic (barrier rounds, RMA fence
    /// notifications), which latency attribution may want to separate
    /// from data movement.
    pub len: u64,
    /// Classified segments in causal (forward) order.
    pub segments: Vec<Segment>,
    /// Per-class totals; `breakdown.total() == end - start` exactly.
    pub breakdown: Breakdown,
}

impl Chain {
    /// End-to-end span of this chain.
    pub fn span(&self) -> SimTime {
        // Guaranteed non-negative: extraction fails rather than emit a
        // chain whose delivery precedes its root.
        self.end
            .checked_sub(self.start)
            .expect("chain end precedes start")
    }
}

/// Why a causal log cannot be attributed: a structural defect found while
/// walking the DAG (the log is produced by the deterministic engine, so
/// those indicate a recording bug rather than bad user input), or a log
/// that does not hold the run's records whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CritPathError {
    /// The log dropped records (its cap was reached), so the chains it
    /// still holds are an unknown subset of the run's: a breakdown or an
    /// attribution table over them would be exact about the wrong thing.
    Truncated {
        /// Records the log stored.
        kept: u64,
        /// Records it counted and discarded.
        dropped: u64,
    },
    /// The log folded the records past its head into its [`ChainFold`]
    /// without storing them: the whole-log readers see only the head, and the
    /// fold holds the run's exact totals.
    Folded {
        /// Records stored whole (the head).
        kept: u64,
        /// Records folded past it.
        folded: u64,
    },
    /// A child record carries an earlier timestamp than its parent.
    TimeUnderflow {
        /// Index of the parent record.
        parent: u32,
        /// Index of the child record.
        child: u32,
    },
    /// A parent index points past the end of the log.
    MissingRecord {
        /// The out-of-range index.
        idx: u32,
    },
    /// The backward walk revisited a record (parent pointers cycle).
    Cycle {
        /// Index of the delivery whose walk cycled.
        deliver: u32,
    },
}

impl fmt::Display for CritPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CritPathError::Truncated { kept, dropped } => write!(
                f,
                "causal log is truncated: {kept} records kept, {dropped} dropped at the cap"
            ),
            CritPathError::Folded { kept, folded } => write!(
                f,
                "causal log holds its first {kept} records whole and folded {folded} more \
                 into its running totals (`CausalLog::fold`)"
            ),
            CritPathError::TimeUnderflow { parent, child } => write!(
                f,
                "causal record #{child} is earlier than its parent #{parent}"
            ),
            CritPathError::MissingRecord { idx } => {
                write!(f, "causal parent index #{idx} is out of range")
            }
            CritPathError::Cycle { deliver } => {
                write!(f, "causal parent pointers cycle below delivery #{deliver}")
            }
        }
    }
}

impl std::error::Error for CritPathError {}

/// Cost class of the segment *ending* at a record of `stage`.
///
/// Returns `None` for [`CausalStage::LinkHop`], which splits between
/// [`CostClass::Wire`] and [`CostClass::HopQueue`] using the stall
/// picoseconds stashed in the record's `info` field.
fn class_of(stage: CausalStage) -> Option<CostClass> {
    match stage {
        // Reaching an API entry from an upstream record is host-side
        // turnaround (e.g. the matched header that triggered a reply).
        CausalStage::ApiEntry => Some(CostClass::HostCompletion),
        CausalStage::TxCmdPost => Some(CostClass::Trap),
        CausalStage::TxInject => Some(CostClass::FwTx),
        CausalStage::LinkHop => None,
        CausalStage::NetArrive => Some(CostClass::Wire),
        CausalStage::FwRxDone => Some(CostClass::FwRx),
        CausalStage::IntDeliver => Some(CostClass::Interrupt),
        CausalStage::MatchDone => Some(CostClass::HostCompletion),
        CausalStage::RxCmdPost => Some(CostClass::Dma),
        CausalStage::DepositDone => Some(CostClass::Dma),
        CausalStage::EqPost => Some(CostClass::HostCompletion),
        CausalStage::AppDeliver => Some(CostClass::HostCompletion),
    }
}

fn at(records: Records<'_>, idx: u32) -> Result<CausalRecord, CritPathError> {
    let rec = records.get(idx as usize);
    rec.ok_or(CritPathError::MissingRecord { idx })
}

/// Collect the path from delivery `deliver` back to its root into `path`
/// (delivery first). `Ok(false)` when the chain is intentionally
/// unattributable: no producer recorded, or the walk bottoms out on a
/// non-`ApiEntry` root such as a sender-side completion chain.
fn walk_path(
    records: Records<'_>,
    deliver: u32,
    path: &mut Vec<u32>,
) -> Result<bool, CritPathError> {
    path.clear();
    if at(records, deliver)?.parent.is_none() {
        // EQ-FIFO attribution missed (e.g. dropped-event overflow).
        return Ok(false);
    }
    path.push(deliver);
    let mut cur_idx = deliver;
    loop {
        if path.len() > records.len() {
            return Err(CritPathError::Cycle { deliver });
        }
        let cur = at(records, cur_idx)?;
        let Some(parent) = cur.parent else {
            // Bottomed out. Only an ApiEntry is a legitimate root;
            // anything else (a sender-side chain) is skipped rather
            // than mis-attributed.
            return Ok(cur.stage == CausalStage::ApiEntry);
        };
        if stops(&cur, at(records, parent)?.stage) {
            return Ok(true);
        }
        path.push(parent);
        cur_idx = parent;
    }
}

/// Is `rec`, whose parent is at `parent` stage, where a walk stops? An
/// app-initiated send: the parent delivery belongs to the previous
/// half-round-trip, so this `ApiEntry` is the chain's root.
pub(crate) fn stops(rec: &CausalRecord, parent: CausalStage) -> bool {
    rec.stage == CausalStage::ApiEntry && parent == CausalStage::AppDeliver
}

/// Classify a [`walk_path`] path forward (root → delivery), handing each
/// segment to `seg`.
fn classify(
    records: Records<'_>,
    path: &[u32],
    mut seg: impl FnMut(Segment),
) -> Result<(), CritPathError> {
    for pair in path.windows(2).rev() {
        let &[child_idx, parent_idx] = pair else {
            continue;
        };
        let (child, parent) = (at(records, child_idx)?, at(records, parent_idx)?);
        segments((parent_idx, &parent), (child_idx, &child), &mut seg)?;
    }
    Ok(())
}

/// Classify the edge from `parent` to `child` (each with its index) into
/// its one or two segments: the time between them, charged to the class
/// the child's stage implies.
pub(crate) fn segments(
    (parent_idx, parent): (u32, &CausalRecord),
    (child_idx, child): (u32, &CausalRecord),
    mut seg: impl FnMut(Segment),
) -> Result<(), CritPathError> {
    let dur = match child.at.checked_sub(parent.at) {
        Some(d) => d,
        // The host's TxCmdPost/RxCmdPost timestamps include the
        // mailbox-stall charge, but the command word itself is visible
        // to the firmware as soon as it is written: under concurrent
        // TX/RX load another doorbell service can fetch and execute the
        // command before the host's charged post time completes. A fully
        // overlapped handoff contributes zero spine latency, so charge
        // the firmware segment as zero instead of rejecting the chain.
        None if (parent.stage == CausalStage::TxCmdPost
            && child.stage == CausalStage::TxInject)
            || (parent.stage == CausalStage::RxCmdPost
                && child.stage == CausalStage::DepositDone) =>
        {
            SimTime::ZERO
        }
        None => {
            return Err(CritPathError::TimeUnderflow {
                parent: parent_idx,
                child: child_idx,
            })
        }
    };
    let mut emit = |class, dur| {
        seg(Segment {
            from: parent_idx,
            to: child_idx,
            stage: child.stage,
            class,
            dur,
        })
    };
    match class_of(child.stage) {
        Some(class) => emit(class, dur),
        None => {
            // LinkHop: the low 56 bits of `info` hold the head-of-line
            // stall in ps (the high byte is the router port), clamped to
            // the segment so the split still telescopes.
            let stall = SimTime::from_ps(linkhop_stall(child.info)).min(dur);
            let wire = dur.saturating_sub(stall);
            if wire > SimTime::ZERO || stall == SimTime::ZERO {
                emit(CostClass::Wire, wire);
            }
            if stall > SimTime::ZERO {
                emit(CostClass::HopQueue, stall);
            }
        }
    }
    Ok(())
}

/// Walk one delivery of a whole log back to its root. `Ok(None)` when
/// the chain is intentionally unattributable (no producer recorded, or
/// the walk bottoms out on a non-`ApiEntry` root such as a sender-side
/// completion chain).
pub fn walk_one(records: Records<'_>, deliver_idx: u32) -> Result<Option<Chain>, CritPathError> {
    let mut path = Vec::new();
    if !walk_path(records, deliver_idx, &mut path)? {
        return Ok(None);
    }
    let mut segments = Vec::with_capacity(path.len());
    let mut breakdown = Breakdown::new();
    classify(records, &path, |s| {
        breakdown.add(s.class, s.dur);
        segments.push(s);
    })?;
    let root_idx = *path.last().expect("a rooted path is non-empty");
    let (root, deliver) = (at(records, root_idx)?, at(records, deliver_idx)?);
    Ok(Some(Chain {
        id: deliver.id,
        root: root_idx,
        deliver: deliver_idx,
        node: deliver.node,
        pid: deliver.info as u32,
        start: root.at,
        end: deliver.at,
        len: root.info,
        segments,
        breakdown,
    }))
}

/// The key a [`CausalStage::LinkHop`] record's link folds under: its
/// node and router port, `-1` for a record without a port.
pub(crate) fn link_key(rec: &CausalRecord) -> (u32, i16) {
    (rec.node, linkhop_port(rec.info).map_or(-1, i16::from))
}

/// Head-of-line stall folded by physical link: where the aggregate
/// [`CostClass::HopQueue`] class was actually paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStall {
    /// Node owning the link.
    pub node: u32,
    /// Router port (`None` for a record without one).
    pub port: Option<u8>,
    /// Total head-of-line stall paid at this link.
    pub stall: SimTime,
    /// Stalled crossings (one per `HopQueue` segment).
    pub waits: u64,
}

/// Exact running totals over every chain a log has folded as its
/// deliveries were recorded: the same chains, classes and per-link
/// head-of-line stalls a whole-log extraction of the run would sum to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainFold {
    chains: u64,
    breakdown: Breakdown,
    /// `(stall, stalled crossings)` by link, dense from node 0:
    /// [`LINK_SLOTS`] a node, port −1 (none) first.
    hops: Vec<(SimTime, u64)>,
    error: Option<CritPathError>,
}

/// A node's links in [`ChainFold`]: the six router ports and "none".
const LINK_SLOTS: usize = 7;

impl ChainFold {
    /// Attributable chains folded.
    pub fn chains(&self) -> u64 {
        self.chains
    }

    /// Their per-class totals.
    pub fn breakdown(&self) -> Breakdown {
        self.breakdown
    }

    /// Head-of-line stall per link, sorted by `(node, port)`.
    pub fn hop_stalls(&self) -> impl Iterator<Item = HopStall> + '_ {
        let links = self
            .hops
            .iter()
            .enumerate()
            .filter(|(_, &(_, waits))| waits > 0);
        links.map(|(i, &(stall, waits))| HopStall {
            node: (i / LINK_SLOTS) as u32,
            port: ((i % LINK_SLOTS) as u8).checked_sub(1),
            stall,
            waits,
        })
    }

    /// The first structural defect a walk met; its chain was not folded.
    pub fn error(&self) -> Option<CritPathError> {
        self.error
    }

    /// Keep `e` if it is the first defect.
    pub(crate) fn defect(&mut self, e: CritPathError) {
        self.error.get_or_insert(e);
    }

    /// Add one chain: its classes and its stalled hops.
    pub(crate) fn add(
        &mut self,
        breakdown: &Breakdown,
        stalls: impl IntoIterator<Item = ((u32, i16), SimTime)>,
    ) {
        self.chains += 1;
        self.breakdown.merge(breakdown);
        for ((node, port), stall) in stalls {
            let i = node as usize * LINK_SLOTS + (port + 1) as usize;
            if self.hops.len() <= i {
                self.hops.resize(i + 1, (SimTime::ZERO, 0));
            }
            if let Some(e) = self.hops.get_mut(i) {
                e.0 += stall;
                e.1 += 1;
            }
        }
    }
}
