//! Critical-path extraction over the causal log.
//!
//! [`extract_chains`] walks the per-message causal DAG recorded by
//! [`xt3_sim::CausalLog`] backwards from each end-to-end delivery
//! ([`CausalStage::AppDeliver`]) to the API call that originated the
//! message ([`CausalStage::ApiEntry`]), then partitions the elapsed
//! time into eight [`CostClass`]es. Because every segment is the
//! difference of two consecutive checkpoint timestamps, the per-class
//! durations of a chain telescope and sum *exactly* — to the
//! picosecond — to the chain's span. `explain latency` builds its
//! Fig. 4-style breakdown tables from these chains.

use core::fmt;

use xt3_sim::{linkhop_stall, CausalLog, CausalStage, Records, SimTime, TraceId};

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
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Add `dur` to `class`.
    pub fn add(&mut self, class: CostClass, dur: SimTime) {
        self.classes[class as usize] += dur;
    }

    /// Time charged to `class`.
    pub fn get(&self, class: CostClass) -> SimTime {
        self.classes[class as usize]
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
        for (i, t) in other.classes.iter().enumerate() {
            self.classes[i] += *t;
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
    /// Trace id of the message whose completion was delivered.
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
/// that stopped storing records part-way through the run.
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
                "causal log is truncated: {kept} records kept, {dropped} dropped at the cap \
                 (raise `CausalLog::with_cap`, or use the series-only `attribute_occupancy`)"
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

/// `Err(Truncated)` for a log that dropped records, which every consumer
/// of chains must refuse rather than attribute.
pub(crate) fn require_complete(log: &CausalLog) -> Result<(), CritPathError> {
    match log.dropped() {
        0 => Ok(()),
        dropped => Err(CritPathError::Truncated {
            kept: log.records().len() as u64,
            dropped,
        }),
    }
}

/// Walk one delivery back to its root. Returns `Ok(None)` when the
/// chain is intentionally unattributable (no producer recorded, or the
/// walk bottoms out on a non-`ApiEntry` root such as a sender-side
/// completion chain).
fn walk_one(records: Records<'_>, deliver_idx: u32) -> Result<Option<Chain>, CritPathError> {
    let at = |idx: u32| {
        let rec = records.get(idx as usize);
        rec.ok_or(CritPathError::MissingRecord { idx })
    };
    let deliver = at(deliver_idx)?;
    if deliver.parent.is_none() {
        // EQ-FIFO attribution missed (e.g. dropped-event overflow).
        return Ok(None);
    }

    // Collect the path deliver -> ... -> root (backwards).
    let mut path: Vec<u32> = vec![deliver_idx];
    let mut cur_idx = deliver_idx;
    loop {
        if path.len() > records.len() {
            return Err(CritPathError::Cycle {
                deliver: deliver_idx,
            });
        }
        let cur = at(cur_idx)?;
        let parent = match cur.parent {
            Some(p) => p,
            None => {
                // Bottomed out. Only an ApiEntry is a legitimate root;
                // anything else (a sender-side chain) is skipped rather
                // than mis-attributed.
                if cur.stage == CausalStage::ApiEntry {
                    break;
                }
                return Ok(None);
            }
        };
        if cur.stage == CausalStage::ApiEntry && at(parent)?.stage == CausalStage::AppDeliver {
            // App-initiated send: the parent delivery belongs to the
            // previous half-round-trip, so this ApiEntry is our root.
            break;
        }
        path.push(parent);
        cur_idx = parent;
    }

    let root_idx = *path.last().expect("path starts non-empty");
    let root = at(root_idx)?;
    if root.stage != CausalStage::ApiEntry {
        return Ok(None);
    }

    // Classify forward (root -> deliver).
    let mut segments = Vec::with_capacity(path.len());
    let mut breakdown = Breakdown::new();
    for pair in path.windows(2).rev() {
        let (child_idx, parent_idx) = (pair[0], pair[1]);
        let (child, parent) = (at(child_idx)?, at(parent_idx)?);
        let dur = match child.at.checked_sub(parent.at) {
            Some(d) => d,
            // The host's TxCmdPost/RxCmdPost timestamps include the
            // mailbox-stall charge, but the command word itself is
            // visible to the firmware as soon as it is written: under
            // concurrent TX/RX load another doorbell service can fetch
            // and execute the command before the host's charged post
            // time completes. A fully overlapped handoff contributes
            // zero spine latency, so charge the firmware segment as
            // zero instead of rejecting the chain.
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
        match class_of(child.stage) {
            Some(class) => {
                breakdown.add(class, dur);
                segments.push(Segment {
                    from: parent_idx,
                    to: child_idx,
                    stage: child.stage,
                    class,
                    dur,
                });
            }
            None => {
                // LinkHop: the low 56 bits of `info` hold the
                // head-of-line stall in ps (the high byte is the router
                // port), clamped to the segment so the split still
                // telescopes.
                let stall = SimTime::from_ps(linkhop_stall(child.info)).min(dur);
                let wire = dur.checked_sub(stall).expect("stall clamped to dur");
                if wire > SimTime::ZERO || stall == SimTime::ZERO {
                    breakdown.add(CostClass::Wire, wire);
                    segments.push(Segment {
                        from: parent_idx,
                        to: child_idx,
                        stage: child.stage,
                        class: CostClass::Wire,
                        dur: wire,
                    });
                }
                if stall > SimTime::ZERO {
                    breakdown.add(CostClass::HopQueue, stall);
                    segments.push(Segment {
                        from: parent_idx,
                        to: child_idx,
                        stage: child.stage,
                        class: CostClass::HopQueue,
                        dur: stall,
                    });
                }
            }
        }
    }

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

/// Extract the critical path of every attributable delivery in `log`,
/// in delivery order.
///
/// Deliveries without a recorded producer, and chains whose root is not
/// an [`CausalStage::ApiEntry`] (sender-side completion chains), are
/// skipped; structural defects in the DAG are errors, and so is a log
/// that dropped records ([`CritPathError::Truncated`]): which chains the
/// cap cut is not knowable from what is left.
pub fn extract_chains(log: &CausalLog) -> Result<Vec<Chain>, CritPathError> {
    require_complete(log)?;
    let records = log.records();
    let mut chains = Vec::new();
    for (idx, rec) in records.iter().enumerate() {
        if rec.stage != CausalStage::AppDeliver {
            continue;
        }
        if let Some(chain) = walk_one(records, idx as u32)? {
            chains.push(chain);
        }
    }
    Ok(chains)
}

/// Sum the breakdowns of `chains` into one aggregate.
pub fn aggregate(chains: &[Chain]) -> Breakdown {
    let mut total = Breakdown::new();
    for c in chains {
        total.merge(&c.breakdown);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(records: Vec<(TraceId, CausalStage, u64, u32, Option<u32>, u64)>) -> CausalLog {
        let mut log = CausalLog::enabled();
        for (id, stage, at_ns, node, parent, info) in records {
            log.record(id, stage, SimTime::from_ns(at_ns), node, parent, info);
        }
        log
    }

    #[test]
    fn simple_chain_sums_exactly() {
        let id = TraceId(7);
        let log = log_with(vec![
            (id, CausalStage::ApiEntry, 0, 0, None, 8),
            (id, CausalStage::TxCmdPost, 75, 0, Some(0), 0),
            (id, CausalStage::TxInject, 675, 0, Some(1), 0),
            (id, CausalStage::LinkHop, 725, 0, Some(2), 0),
            (id, CausalStage::NetArrive, 800, 1, Some(3), 0),
            (id, CausalStage::FwRxDone, 1250, 1, Some(4), 0),
            (id, CausalStage::IntDeliver, 3500, 1, Some(5), 0),
            (id, CausalStage::MatchDone, 4150, 1, Some(6), 0),
            (id, CausalStage::EqPost, 4410, 1, Some(7), 3),
            (id, CausalStage::AppDeliver, 4610, 1, Some(8), 3),
        ]);
        let chains = extract_chains(&log).unwrap();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.root, 0);
        assert_eq!(c.deliver, 9);
        assert_eq!(c.pid, 3);
        assert_eq!(c.breakdown.total(), c.span());
        assert_eq!(c.breakdown.get(CostClass::Trap), SimTime::from_ns(75));
        assert_eq!(c.breakdown.get(CostClass::FwTx), SimTime::from_ns(600));
        assert_eq!(c.breakdown.get(CostClass::Wire), SimTime::from_ns(125));
        assert_eq!(c.breakdown.get(CostClass::HopQueue), SimTime::ZERO);
        assert_eq!(
            c.breakdown.get(CostClass::Interrupt),
            SimTime::from_ns(2250)
        );
        assert_eq!(c.breakdown.get(CostClass::FwRx), SimTime::from_ns(450));
        assert_eq!(
            c.breakdown.get(CostClass::HostCompletion),
            SimTime::from_ns(650 + 260 + 200)
        );
    }

    #[test]
    fn hop_stall_splits_wire_and_queueing() {
        let id = TraceId(9);
        let log = log_with(vec![
            (id, CausalStage::ApiEntry, 0, 0, None, 8),
            // 100 ns hop segment with 40 ns of recorded stall.
            (id, CausalStage::LinkHop, 100, 0, Some(0), 40_000),
            (id, CausalStage::AppDeliver, 150, 1, Some(1), 0),
        ]);
        let chains = extract_chains(&log).unwrap();
        let c = &chains[0];
        assert_eq!(c.breakdown.get(CostClass::Wire), SimTime::from_ns(60));
        assert_eq!(c.breakdown.get(CostClass::HopQueue), SimTime::from_ns(40));
        assert_eq!(c.breakdown.total(), c.span());
    }

    #[test]
    fn walks_through_internal_api_entry() {
        // A get: requester ApiEntry -> ... -> server MatchDone ->
        // server (internal) ApiEntry for the reply -> ... -> deliver.
        let req = TraceId(1);
        let rep = TraceId(2);
        let log = log_with(vec![
            (req, CausalStage::ApiEntry, 0, 0, None, 0),
            (req, CausalStage::MatchDone, 1000, 1, Some(0), 0),
            (rep, CausalStage::ApiEntry, 1000, 1, Some(1), 8),
            (rep, CausalStage::EqPost, 1500, 0, Some(2), 1),
            (rep, CausalStage::AppDeliver, 1700, 0, Some(3), 1),
        ]);
        let chains = extract_chains(&log).unwrap();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.root, 0, "walk continues through the internal ApiEntry");
        assert_eq!(c.breakdown.total(), c.span());
    }

    #[test]
    fn stops_at_app_initiated_api_entry() {
        // Ping-pong: delivery N-1 is the cause of send N; the walk for
        // delivery N must stop at send N's ApiEntry.
        let a = TraceId(1);
        let b = TraceId(2);
        let log = log_with(vec![
            (a, CausalStage::ApiEntry, 0, 0, None, 0),
            (a, CausalStage::AppDeliver, 1000, 1, Some(0), 0),
            (b, CausalStage::ApiEntry, 1000, 1, Some(1), 0),
            (b, CausalStage::AppDeliver, 2000, 0, Some(2), 0),
        ]);
        let chains = extract_chains(&log).unwrap();
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[1].root, 2, "second chain roots at its own ApiEntry");
        assert_eq!(chains[1].start, SimTime::from_ns(1000));
    }

    #[test]
    fn skips_unrooted_and_unattributed_chains() {
        let id = TraceId(5);
        let log = log_with(vec![
            // Sender-side completion chain: EqPost root, no ApiEntry.
            (id, CausalStage::EqPost, 100, 0, None, 1),
            (id, CausalStage::AppDeliver, 300, 0, Some(0), 1),
            // Delivery with no recorded producer.
            (TraceId::NONE, CausalStage::AppDeliver, 400, 0, None, 1),
        ]);
        assert!(extract_chains(&log).unwrap().is_empty());
    }

    #[test]
    fn overlapped_cmd_post_charges_zero_fw_tx() {
        // Under concurrent TX/RX load the firmware can fetch and inject
        // a command before the host's charged TxCmdPost time (post cost
        // + mailbox stall) completes; the handoff segment charges zero.
        let id = TraceId(11);
        let log = log_with(vec![
            (id, CausalStage::ApiEntry, 0, 0, None, 8),
            (id, CausalStage::TxCmdPost, 900, 0, Some(0), 0),
            (id, CausalStage::TxInject, 700, 0, Some(1), 0),
            (id, CausalStage::NetArrive, 1100, 1, Some(2), 0),
            (id, CausalStage::AppDeliver, 1400, 1, Some(3), 2),
        ]);
        let chains = extract_chains(&log).unwrap();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.breakdown.get(CostClass::Trap), SimTime::from_ns(900));
        assert_eq!(c.breakdown.get(CostClass::FwTx), SimTime::ZERO);
        assert_eq!(c.breakdown.get(CostClass::Wire), SimTime::from_ns(400));
    }

    #[test]
    fn overlapped_rx_cmd_post_charges_zero_dma() {
        // Same overlap on the receive side: the deposit completes
        // before the host's charged RxCmdPost time.
        let id = TraceId(12);
        let log = log_with(vec![
            (id, CausalStage::ApiEntry, 0, 0, None, 8),
            (id, CausalStage::MatchDone, 400, 1, Some(0), 0),
            (id, CausalStage::RxCmdPost, 900, 1, Some(1), 0),
            (id, CausalStage::DepositDone, 850, 1, Some(2), 0),
            (id, CausalStage::AppDeliver, 1200, 1, Some(3), 2),
        ]);
        let chains = extract_chains(&log).unwrap();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.breakdown.get(CostClass::Dma), SimTime::from_ns(500));
        assert_eq!(
            c.breakdown.get(CostClass::HostCompletion),
            SimTime::from_ns(400 + 350)
        );
    }

    #[test]
    fn non_monotone_parent_is_an_error() {
        let id = TraceId(3);
        let log = log_with(vec![
            (id, CausalStage::ApiEntry, 500, 0, None, 0),
            (id, CausalStage::AppDeliver, 400, 0, Some(0), 0),
        ]);
        assert_eq!(
            extract_chains(&log).unwrap_err(),
            CritPathError::TimeUnderflow {
                parent: 0,
                child: 1
            }
        );
    }

    #[test]
    fn a_truncated_log_is_refused_by_name() {
        let mut log = CausalLog::with_cap(2);
        let id = TraceId(4);
        for (i, stage) in [
            CausalStage::ApiEntry,
            CausalStage::TxCmdPost,
            CausalStage::AppDeliver,
        ]
        .into_iter()
        .enumerate()
        {
            log.record_chain(id, stage, SimTime::from_ns(i as u64), 0, 0);
        }
        let err = extract_chains(&log).unwrap_err();
        assert_eq!(
            err,
            CritPathError::Truncated {
                kept: 2,
                dropped: 1
            }
        );
        assert!(err.to_string().contains("2 records kept, 1 dropped"));
    }

    #[test]
    fn aggregate_merges_chains() {
        let a = TraceId(1);
        let log = log_with(vec![
            (a, CausalStage::ApiEntry, 0, 0, None, 0),
            (a, CausalStage::TxCmdPost, 75, 0, Some(0), 0),
            (a, CausalStage::AppDeliver, 200, 0, Some(1), 0),
        ]);
        let chains = extract_chains(&log).unwrap();
        let agg = aggregate(&chains);
        assert_eq!(agg.get(CostClass::Trap), SimTime::from_ns(75));
        assert_eq!(agg.total(), SimTime::from_ns(200));
    }
}
