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
//!
//! The walk and the classes live in [`xt3_sim::chain`], because the log
//! classifies the same edges itself: it folds each chain as its delivery
//! is recorded ([`folded`]), which is what a run past the log's head
//! leaves.

use xt3_sim::chain::walk_one;
pub use xt3_sim::chain::{
    Breakdown, Chain, ChainFold, CostClass, CritPathError, HopStall, Segment,
};
use xt3_sim::{CausalLog, CausalStage};

/// `Err(Truncated)` for a log that dropped records, and `Err(Folded)` for
/// one that folded records past its head: every whole-log reader of
/// chains must refuse both rather than attribute the part it can see.
pub(crate) fn require_complete(log: &CausalLog) -> Result<(), CritPathError> {
    let kept = log.records().len() as u64;
    match (log.dropped(), log.made() - kept) {
        (0, 0) => Ok(()),
        (0, folded) => Err(CritPathError::Folded { kept, folded }),
        (dropped, _) => Err(CritPathError::Truncated { kept, dropped }),
    }
}

/// The log's fold — exact totals over every chain of the run — or why it
/// is not exact: records dropped at a cap, or the first structural defect
/// a walk met.
pub fn folded(log: &CausalLog) -> Result<&ChainFold, CritPathError> {
    if log.dropped() > 0 {
        return Err(CritPathError::Truncated {
            kept: log.records().len() as u64,
            dropped: log.dropped(),
        });
    }
    let fold = log.fold();
    fold.error().map_or(Ok(fold), Err)
}

/// Extract the critical path of every attributable delivery in `log`,
/// in delivery order.
///
/// Deliveries without a recorded producer, and chains whose root is not
/// an [`CausalStage::ApiEntry`] (sender-side completion chains), are
/// skipped; structural defects in the DAG are errors, and so is a log
/// that dropped records ([`CritPathError::Truncated`]) or folded them
/// ([`CritPathError::Folded`]): which chains the rest holds is not
/// knowable from what is left.
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
    use xt3_sim::{SimTime, TraceId};

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
