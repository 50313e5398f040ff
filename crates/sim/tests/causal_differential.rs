//! Differential test: [`CausalLog`] against the implementation it
//! replaced — a `BTreeMap<u64, u32>` of latest records that was consulted
//! on every chained record, and a `BTreeMap<(node, pid), VecDeque>` of
//! pending EQ posts — kept here as the oracle.
//!
//! Random interleaved chains, explicit parents, null ids, send-chain ids
//! (`tag | 1 << 63`), EQ posts and deliveries run through both under
//! record caps of 0, 7 and none; every stored record (parents included),
//! the drop count, the stream digest and the activation cause must agree
//! at every step.
//!
//! The oracle keeps whole [`CausalRecord`]s; the log keeps them packed in
//! 32 bytes and unpacks them through its `records()` view, so the same
//! comparisons also hold the packing: node ids up to the 24-bit limit, a
//! parent index of `u32::MAX - 1` beside the `u32::MAX` sentinel.

use std::collections::{BTreeMap, VecDeque};

use xt3_sim::{
    CausalError, CausalLog, CausalRecord, CausalStage, EventDigest, SimRng, SimTime, TraceId,
    MAX_CAUSAL_NODE,
};

/// The replaced implementation, minus the `enabled` switch.
struct Oracle {
    cap: usize,
    records: Vec<CausalRecord>,
    dropped: u64,
    digest: EventDigest,
    last_by_id: BTreeMap<u64, u32>,
    eq_fifo: BTreeMap<(u32, u32), VecDeque<u32>>,
    cause: Option<u32>,
}

impl Oracle {
    fn new(cap: usize) -> Self {
        Oracle {
            cap,
            records: Vec::new(),
            dropped: 0,
            digest: EventDigest::new(),
            last_by_id: BTreeMap::new(),
            eq_fifo: BTreeMap::new(),
            cause: None,
        }
    }

    fn record_chain(
        &mut self,
        id: TraceId,
        stage: CausalStage,
        at: SimTime,
        node: u32,
        info: u64,
    ) -> Option<u32> {
        let parent = self.last_by_id.get(&id.0).copied();
        self.record(id, stage, at, node, parent, info)
    }

    fn record(
        &mut self,
        id: TraceId,
        stage: CausalStage,
        at: SimTime,
        node: u32,
        parent: Option<u32>,
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
        if self.records.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let idx = self.records.len() as u32;
        self.records.push(CausalRecord {
            id,
            stage,
            at,
            node,
            parent,
            info,
        });
        if id.is_some() && stage != CausalStage::AppDeliver {
            self.last_by_id.insert(id.0, idx);
        }
        Some(idx)
    }

    fn push_eq_posts(&mut self, node: u32, pid: u32, idx: u32, count: u64) {
        let fifo = self.eq_fifo.entry((node, pid)).or_default();
        for _ in 0..count {
            fifo.push_back(idx);
        }
    }

    fn pop_eq_post(&mut self, node: u32, pid: u32) -> Option<u32> {
        self.eq_fifo
            .get_mut(&(node, pid))
            .and_then(VecDeque::pop_front)
    }

    fn record_deliver(
        &mut self,
        node: u32,
        pid: u32,
        at: SimTime,
        producer: Option<u32>,
    ) -> Option<u32> {
        let id = producer
            .and_then(|i| self.records.get(i as usize))
            .map_or(TraceId::NONE, |r| r.id);
        let idx = self.record(id, CausalStage::AppDeliver, at, node, producer, pid as u64);
        self.cause = idx;
        idx
    }
}

/// The log's view unpacks to exactly the records the oracle kept.
fn assert_same_records(log: &CausalLog, oracle: &Oracle) {
    let view = log.records();
    assert_eq!(view.len(), oracle.records.len());
    assert_eq!(view.is_empty(), oracle.records.is_empty());
    assert_eq!(view.iter().collect::<Vec<_>>(), oracle.records);
    assert_eq!(view.get(view.len()), None);
    if let Some(last) = view.len().checked_sub(1) {
        assert_eq!(view.get(last), oracle.records.last().copied());
    }
}

const STAGES: [CausalStage; 12] = [
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

/// One seeded stream of `ops` operations through both logs.
fn drive(seed: u64, cap: Option<usize>, ops: u64) {
    let mut rng = SimRng::new(seed);
    let mut log = cap.map_or_else(CausalLog::enabled, CausalLog::with_cap);
    // The default cap is far above any stream here.
    let mut oracle = Oracle::new(cap.unwrap_or(usize::MAX));
    let ids = 1 + rng.below(400);
    for op in 0..ops {
        let at = SimTime::from_ns(op);
        let node = rng.below(24) as u32;
        let pid = rng.below(3) as u32;
        // Ids cluster (a message's stages arrive close together), are
        // sometimes null and sometimes on the send chain.
        let id = match rng.below(16) {
            0 => TraceId::NONE,
            1..=3 => TraceId((1 + rng.below(ids)) | 1 << 63),
            _ => TraceId(1 + rng.below(ids).min(rng.below(ids))),
        };
        let stage = STAGES[rng.below(12) as usize];
        let info = rng.next_u64();
        match rng.below(10) {
            0..=4 => {
                let got = log.record_chain(id, stage, at, node, info);
                assert_eq!(got, oracle.record_chain(id, stage, at, node, info));
            }
            5 | 6 => {
                let stored = log.records().len() as u64;
                let parent = (stored > 0 && rng.chance(0.7)).then(|| rng.below(stored) as u32);
                let got = log.record(id, stage, at, node, parent, info);
                assert_eq!(got, oracle.record(id, stage, at, node, parent, info));
            }
            7 => {
                let stored = log.records().len() as u64;
                if stored > 0 {
                    let idx = rng.below(stored) as u32;
                    let count = rng.below(4);
                    log.push_eq_posts(node, pid, idx, count);
                    if count > 0 {
                        oracle.push_eq_posts(node, pid, idx, count);
                    }
                }
            }
            8 => {
                let producer = log.pop_eq_post(node, pid);
                assert_eq!(producer, oracle.pop_eq_post(node, pid));
                let got = log.record_deliver(node, pid, at, producer);
                assert_eq!(got, oracle.record_deliver(node, pid, at, producer));
            }
            _ => {
                let cause = rng
                    .chance(0.5)
                    .then(|| rng.below(1 + oracle.records.len() as u64) as u32);
                log.set_cause(cause);
                oracle.cause = cause;
            }
        }
        assert_eq!(log.cause(), oracle.cause, "op {op}");
        assert_eq!(log.dropped(), oracle.dropped, "op {op}");
        assert_eq!(log.digest(), oracle.digest.value(), "op {op}");
    }
    assert_same_records(&log, &oracle);
    // Whatever is still queued drains identically.
    for node in 0..24 {
        for pid in 0..3 {
            while let Some(idx) = oracle.pop_eq_post(node, pid) {
                assert_eq!(log.pop_eq_post(node, pid), Some(idx));
            }
            assert_eq!(log.pop_eq_post(node, pid), None);
        }
    }
}

#[test]
fn causal_log_matches_map_reference() {
    for seed in 0..24 {
        for cap in [Some(0), Some(7), None] {
            drive(0xCA05A1 + seed, cap, 4_000);
        }
    }
}

#[test]
fn causal_index_survives_many_doublings() {
    // 20,000 distinct ids, two records each: the index doubles a dozen
    // times between a message's first and second stage.
    let mut log = CausalLog::enabled();
    let mut oracle = Oracle::new(usize::MAX);
    for round in 0..2u64 {
        for id in 1..=20_000u64 {
            let id = TraceId(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let at = SimTime::from_ns(round);
            let got = log.record_chain(id, CausalStage::TxInject, at, 0, round);
            assert_eq!(
                got,
                oracle.record_chain(id, CausalStage::TxInject, at, 0, round)
            );
        }
    }
    assert_same_records(&log, &oracle);
}

#[test]
fn a_log_that_fills_keeps_its_parents_and_forgets_its_index() {
    // Chains that straddle the cap: stored records keep the parents they
    // were given, later records of the same ids are only counted.
    let mut log = CausalLog::with_cap(5);
    let mut oracle = Oracle::new(5);
    for step in 0..12u64 {
        let id = TraceId(1 + step % 3);
        let at = SimTime::from_ns(step);
        let got = log.record_chain(id, CausalStage::LinkHop, at, 1, step);
        assert_eq!(
            got,
            oracle.record_chain(id, CausalStage::LinkHop, at, 1, step)
        );
    }
    assert_same_records(&log, &oracle);
    assert_eq!(log.dropped(), 7);
    assert_eq!(log.digest(), oracle.digest.value());
}

#[test]
fn packing_limits_agree_with_the_oracle() {
    // Nodes at the top of the 24-bit range and parents at the top of the
    // index range, chained and explicit, interleaved with small ones.
    let mut log = CausalLog::enabled();
    let mut oracle = Oracle::new(usize::MAX);
    let parents = [None, Some(0), Some(u32::MAX - 1), Some(1 << 31)];
    for step in 0..64u64 {
        let id = TraceId(1 + step % 5);
        let at = SimTime::from_ns(step);
        let node = MAX_CAUSAL_NODE - (step % 3) as u32 * (MAX_CAUSAL_NODE / 2);
        let stage = STAGES[(step % 11) as usize];
        if step % 2 == 0 {
            let got = log.record_chain(id, stage, at, node, !step);
            assert_eq!(got, oracle.record_chain(id, stage, at, node, !step));
        } else {
            let parent = parents[(step / 2 % 4) as usize];
            let got = log.record(id, stage, at, node, parent, !step);
            assert_eq!(got, oracle.record(id, stage, at, node, parent, !step));
        }
    }
    assert_same_records(&log, &oracle);

    // One past the limit: refused by name, counted as dropped, and the
    // message's next stage does not chain onto a record that is not there.
    let over = MAX_CAUSAL_NODE + 1;
    let id = TraceId(99);
    let at = SimTime::from_us(1);
    let stored = log.records().len();
    assert_eq!(
        log.record_chain(id, CausalStage::TxInject, at, over, 0),
        None
    );
    assert_eq!((log.records().len(), log.dropped()), (stored, 1));
    let next = log.record_chain(id, CausalStage::NetArrive, at, 0, 0);
    let next = log.records().get(next.expect("stored") as usize);
    assert_eq!(next.expect("in range").parent, None);
    let refused = CausalRecord {
        id,
        stage: CausalStage::TxInject,
        at,
        node: over,
        parent: None,
        info: 0,
    };
    assert_eq!(
        refused.check(),
        Err(CausalError::NodeBeyondLimit {
            node: over,
            limit: MAX_CAUSAL_NODE
        })
    );
}
