//! Property tests for the firmware's resource-management invariants and
//! the go-back-n protocol.

use proptest::prelude::*;
use xt3_firmware::control::{Firmware, FwConfig, FwMode};
use xt3_firmware::gbn::{GbnEvent, GbnReceiver, GbnSender};
use xt3_firmware::pool::Pool;
use xt3_firmware::source::SourceTable;
use xt3_seastar::sram::Sram;

proptest! {
    /// A pool never double-allocates, never exceeds capacity, and its
    /// high-water mark bounds its in-use count, for any alloc/free
    /// interleaving.
    #[test]
    fn pool_invariants(ops in proptest::collection::vec(any::<bool>(), 1..200), cap in 1u32..32) {
        let mut pool: Pool<u32> = Pool::new(cap);
        let mut live: Vec<u32> = Vec::new();
        for alloc in ops {
            if alloc {
                match pool.alloc() {
                    Some(idx) => {
                        prop_assert!(!live.contains(&idx), "double allocation of {idx}");
                        prop_assert!(idx < cap);
                        live.push(idx);
                    }
                    None => prop_assert_eq!(live.len() as u32, cap, "spurious exhaustion"),
                }
            } else if let Some(idx) = live.pop() {
                pool.free(idx);
            }
            prop_assert_eq!(pool.in_use() as usize, live.len());
            prop_assert!(pool.high_water() >= pool.in_use());
            prop_assert!(pool.high_water() <= cap);
        }
    }

    /// The source table maps node ids to sources injectively: distinct
    /// active nodes never share a source, lookups are stable, and
    /// capacity is respected.
    #[test]
    fn source_table_injective(nodes in proptest::collection::vec(0u32..1000, 1..100)) {
        let mut t = SourceTable::new(64);
        let mut assigned: std::collections::BTreeMap<u32, u32> = Default::default();
        for node in nodes {
            match t.find_or_alloc(node) {
                Some(id) => {
                    if let Some(&prev) = assigned.get(&node) {
                        prop_assert_eq!(prev, id, "same node, same source");
                    }
                    for (&n2, &id2) in &assigned {
                        if n2 != node {
                            prop_assert_ne!(id2, id, "two nodes share a source");
                        }
                    }
                    assigned.insert(node, id);
                    prop_assert_eq!(t.get(id).unwrap().node_id, node);
                }
                None => prop_assert!(assigned.len() >= 64, "premature exhaustion"),
            }
        }
    }

    /// Go-back-n delivers every message exactly once and in order, for
    /// any finite prefix of receiver resource failures (exhaustion that
    /// eventually recovers — the §4.3 scenario).
    #[test]
    fn gbn_delivers_exactly_once_in_order(
        availability in proptest::collection::vec(any::<bool>(), 10..200),
        n_messages in 1usize..40,
    ) {
        let mut tx: GbnSender<usize> = GbnSender::new(16);
        let mut rx = GbnReceiver::new();
        let mut delivered: Vec<usize> = Vec::new();
        // The "wire": in-order queue of (seq, msg).
        let mut wire: std::collections::VecDeque<(u64, usize)> = Default::default();
        let mut next_to_send = 0usize;
        // Eventual recovery: after the arbitrary failure prefix, resources
        // stay available (a cyclic pattern could align adversarially with
        // the deterministic retransmit schedule forever, which no real
        // receiver does).
        let mut avail = availability.into_iter().chain(std::iter::repeat(true));

        let mut steps = 0;
        while delivered.len() < n_messages && steps < 100_000 {
            steps += 1;
            // Send while the window allows.
            while next_to_send < n_messages {
                match tx.send(next_to_send) {
                    Some(seq) => {
                        wire.push_back((seq, next_to_send));
                        next_to_send += 1;
                    }
                    None => break,
                }
            }
            // Deliver one wire message; an empty wire with messages
            // outstanding models the sender's retransmission timeout.
            let Some((seq, msg)) = wire.pop_front() else {
                if tx.in_flight() > 0 {
                    for (s, m) in tx.timeout_retransmit() {
                        wire.push_back((s, m));
                    }
                }
                continue;
            };
            let ok = avail.next().expect("infinite");
            match rx.on_arrival(seq, ok) {
                GbnEvent::Accept { .. } => {
                    delivered.push(msg);
                    tx.ack(rx.expected());
                }
                GbnEvent::Nack { expected } => {
                    // NACK travels back instantly; everything in flight is
                    // stale and will be classified duplicate-or-nack; the
                    // sender rewinds.
                    for (s, m) in tx.nack(expected) {
                        wire.push_back((s, m));
                    }
                }
                GbnEvent::Duplicate => {}
            }
        }
        prop_assert_eq!(delivered.len(), n_messages, "all messages delivered");
        let want: Vec<usize> = (0..n_messages).collect();
        prop_assert_eq!(delivered, want, "in order, exactly once");
    }

    /// Firmware RX pending accounting: headers allocate, discard/release
    /// free; in-use never exceeds the pool and never goes negative, and
    /// after releasing everything the pool drains to zero.
    #[test]
    fn rx_pending_conservation(ops in proptest::collection::vec(any::<bool>(), 1..120)) {
        let config = FwConfig {
            rx_pendings: 8,
            tx_pendings: 4,
            sources: 16,
            mailbox_depth: 16,
        };
        let mut sram = Sram::default();
        let mut fw = Firmware::new(config, &[FwMode::Generic], &mut sram).unwrap();
        let mut held: Vec<u32> = Vec::new();
        for arrive in ops {
            if arrive {
                match fw.rx_header(0, 1, true, false) {
                    Ok((pending, _)) => held.push(pending),
                    Err(_) => prop_assert_eq!(held.len(), 8, "exhaustion only when full"),
                }
            } else if let Some(p) = held.pop() {
                fw.handle_command(0, xt3_firmware::mailbox::FwCommand::RecvDiscard { pending: p })
                    .expect("discard never fails");
            }
            let (in_use, _, _) = fw.rx_pool_stats(0);
            prop_assert_eq!(in_use as usize, held.len());
        }
        for p in held.drain(..) {
            fw.handle_command(0, xt3_firmware::mailbox::FwCommand::RecvDiscard { pending: p })
                    .expect("discard never fails");
        }
        prop_assert_eq!(fw.rx_pool_stats(0).0, 0);
    }
}

// ----- the active-source index against a map reference -----
//
// `SourceTable` finds a node's source through an open-addressed index
// that starts empty, doubles past half full and closes the gap a release
// leaves (source.rs). These tests drive it in lockstep with a
// `BTreeMap<node, id>` plus the pool's issue order (returned ids LIFO,
// then the lowest fresh one), and after every operation look up every
// node ever contacted — live or released. The vendored proptest runs one
// fixed seed, so each scenario sweeps its own.

use std::collections::{BTreeMap, BTreeSet};
use xt3_firmware::source::SourceId;
use xt3_sim::SimRng;

/// Seeds every source-index scenario runs under.
const SOURCE_SEEDS: [u64; 8] = [
    1,
    0x5EA5_7A12,
    0xDEAD_BEEF,
    42,
    0x0123_4567_89AB_CDEF,
    7_777_777,
    u64::MAX,
    0x9E37_79B9_7F4A_7C15,
];

/// The first `count` node ids whose Fibonacci hash (source.rs) has `top`
/// as its 11 high bits: they share one home slot at every index length up
/// to 2,048, so they form one probe run. `top = 0x7FF` homes them in the
/// last slot, so the run wraps past the end of the table.
fn nodes_homed_at(top: u32, count: usize) -> Vec<u32> {
    (0u32..)
        .filter(|n| n.wrapping_mul(0x9E37_79B9) >> 21 == top)
        .take(count)
        .collect()
}

/// A [`SourceTable`] stepped in lockstep with its reference.
struct CheckedSources {
    table: SourceTable,
    capacity: u32,
    live: BTreeMap<u32, SourceId>,
    /// Every node ever contacted.
    seen: BTreeSet<u32>,
    /// The pool's issue order: returned ids, reused LIFO…
    returned: Vec<SourceId>,
    /// …then the lowest id never issued.
    next_fresh: SourceId,
    failures: u64,
}

impl CheckedSources {
    fn new(capacity: u32) -> Self {
        CheckedSources {
            table: SourceTable::new(capacity),
            capacity,
            live: BTreeMap::new(),
            seen: BTreeSet::new(),
            returned: Vec::new(),
            next_fresh: 0,
            failures: 0,
        }
    }

    fn check(&self) {
        for &node in &self.seen {
            assert_eq!(
                self.table.find(node),
                self.live.get(&node).copied(),
                "find({node})"
            );
        }
        assert_eq!(self.table.in_use() as usize, self.live.len());
        assert_eq!(self.table.alloc_failures(), self.failures);
    }

    /// `find_or_alloc(node)`: the id it already has, the next id in the
    /// pool's issue order, or `None` exactly when the pool is exhausted.
    fn contact(&mut self, node: u32) -> Option<SourceId> {
        let expected = match self.live.get(&node) {
            Some(&id) => Some(id),
            None if self.live.len() as u32 == self.capacity => {
                self.failures += 1;
                None
            }
            None => Some(self.returned.pop().unwrap_or_else(|| {
                self.next_fresh += 1;
                self.next_fresh - 1
            })),
        };
        assert_eq!(self.table.find_or_alloc(node), expected, "contact {node}");
        if let Some(id) = expected {
            self.live.insert(node, id);
            assert_eq!(self.table.get(id).map(|s| s.node_id), Some(node));
        }
        self.seen.insert(node);
        self.check();
        expected
    }

    /// Release `node`'s source, if it has one.
    fn release(&mut self, node: u32) {
        if let Some(id) = self.live.remove(&node) {
            assert!(self.table.get_mut_for(id, node).is_some(), "live before");
            self.table.release(id);
            self.returned.push(id);
            assert!(self.table.get_mut_for(id, node).is_none(), "released");
        }
        self.check();
    }

    /// `release_idle(named)`: the lowest live id `named` does not mark
    /// (at the table's level every RX list is empty), or `None` when it
    /// marks them all.
    fn reclaim(&mut self, named: &[bool]) -> Option<SourceId> {
        let idle = |id: SourceId| !named.get(id as usize).copied().unwrap_or(false);
        let expected = self.live.values().copied().filter(|&id| idle(id)).min();
        assert_eq!(self.table.release_idle(named), expected, "reclaim");
        if let Some(id) = expected {
            self.live.retain(|_, held| *held != id);
            self.returned.push(id);
        }
        self.check();
        expected
    }

    /// A kept id resolves for its own node only.
    fn check_kept_ids(&mut self, rng: &mut SimRng) {
        let live: Vec<(u32, SourceId)> = self.live.iter().map(|(&n, &id)| (n, id)).collect();
        for &(node, id) in &live {
            assert!(self.table.get_mut_for(id, node).is_some());
            let (other, _) = live[rng.below(live.len() as u64) as usize];
            assert_eq!(self.table.get_mut_for(id, other).is_some(), other == node);
        }
    }
}

/// Random contacts, lookups, releases and idle reclaims (against a random
/// mask of busy sources) over node ids that mix one shared home slot, one
/// wrapping run, consecutive ids and arbitrary ones, with the population
/// swinging between nearly empty and exhausted three times: the index
/// doubles several times on the way up, entries are released between and
/// after the doublings, and the pool runs dry at every peak.
#[test]
fn source_index_matches_map_reference() {
    let mut nodes = nodes_homed_at(0x155, 48);
    nodes.extend(nodes_homed_at(0x7FF, 48));
    nodes.extend(0..48);
    for seed in SOURCE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut nodes = nodes.clone();
        nodes.extend((0..48).map(|_| (rng.next_u64() >> 32) as u32));
        let mut t = CheckedSources::new(128);
        for swing in 0..6 {
            let rising = swing % 2 == 0;
            let (target, contact_odds) = if rising { (128, 0.8) } else { (6, 0.2) };
            let mut failures_wanted = if rising { 5 } else { 0 };
            while (t.live.len() < target) == rising || failures_wanted > 0 {
                if rng.chance(contact_odds) {
                    let node = nodes[rng.below(nodes.len() as u64) as usize];
                    if t.contact(node).is_none() {
                        failures_wanted -= 1;
                    }
                } else if rng.chance(0.25) {
                    let named: Vec<bool> = (0..128).map(|_| rng.chance(0.9)).collect();
                    t.reclaim(&named);
                } else if !t.live.is_empty() {
                    let nth = rng.below(t.live.len() as u64) as usize;
                    let node = *t.live.keys().nth(nth).expect("nth < len");
                    t.release(node);
                }
            }
            t.check_kept_ids(&mut rng);
        }
        assert!(t.failures >= 15, "every peak must exhaust the pool");
        for node in nodes {
            t.release(node);
        }
        assert_eq!(t.table.in_use(), 0);
        assert_eq!(t.table.high_water(), 128);
    }
}

/// One probe run, released from its front, middle and back: every entry
/// behind a released one has to stay reachable, including across the end
/// of the table.
#[test]
fn one_probe_run_survives_releases_anywhere() {
    for (top, seed) in [0x2AA, 0x7FF, 0].into_iter().zip(SOURCE_SEEDS) {
        let mut rng = SimRng::new(seed);
        let run = nodes_homed_at(top, 40);
        let mut t = CheckedSources::new(64);
        // Neighbours homed one slot later sit between the run's first
        // entry and the rest: releasing that first entry must pull the
        // rest back past them, and never a neighbour to before its home.
        let next_door = nodes_homed_at((top + 1) & 0x7FF, 8);
        let in_order = run[..1].iter().chain(&next_door).chain(&run[1..]);
        for &node in in_order {
            t.contact(node);
        }
        let mut order: Vec<u32> = run.iter().chain(&next_door).copied().collect();
        t.release(order.remove(0));
        t.release(order.remove(order.len() / 2));
        t.release(order.pop().expect("non-empty"));
        rng.shuffle(&mut order);
        for (i, node) in order.into_iter().enumerate() {
            t.release(node);
            if i % 7 == 0 {
                t.contact(node); // back in, at the end of the run
            }
        }
    }
}

/// Exhaustion leaves the table exactly as it was: every failed contact is
/// counted, nothing already mapped moves, and the slot a release frees
/// goes to the next new node.
#[test]
fn exhaustion_is_counted_and_changes_nothing() {
    let mut t = CheckedSources::new(8);
    for node in 100..108 {
        t.contact(node);
    }
    for node in 200..260 {
        assert_eq!(t.contact(node), None);
    }
    assert_eq!(t.table.alloc_failures(), 60);
    t.release(103);
    assert_eq!(t.contact(200), Some(3), "the freed id is reissued");
    assert_eq!(t.contact(103), None);
}

// ----- the RX pending lists against a queue reference -----
//
// A source's RX list is intrusive: the source holds a head and a tail
// link, each lower pending the link to the one behind it, and a link
// names a process as well as a pending, because RX pools are per
// process. This test steps the lists through the firmware against one
// `VecDeque<(process, pending)>` per peer.

use std::collections::VecDeque;
use xt3_firmware::control::{Effects, FwEffect, FwError};
use xt3_firmware::mailbox::FwCommand;
use xt3_firmware::pending::PendingState;
use xt3_seastar::dma::DmaList;

/// The `StartRxDma` among a handler's effects.
fn started(fx: &Effects) -> Option<(u32, u32)> {
    fx.iter().find_map(|e| match *e {
        FwEffect::StartRxDma { proc, pending, .. } => Some((proc, pending)),
        _ => None,
    })
}

/// A generic and two accelerated processes take headers from five peers
/// (three sources, five RX pendings each, so both pools run dry), and
/// deposit commands, completions and releases arrive out of step. Every
/// handler starts exactly the deposit the reference puts at the head,
/// under the right process; a completion of the deposit behind it is
/// refused; and every queued pending is in the state its place says. A
/// dry source pool reclaims a source no pending in use names, so a
/// header is refused a source exactly when three other peers each hold
/// a pending.
#[test]
fn firmware_rx_lists_keep_each_pending_with_its_process() {
    let config = FwConfig {
        rx_pendings: 5,
        tx_pendings: 2,
        sources: 3,
        mailbox_depth: 8,
    };
    let modes = [FwMode::Generic, FwMode::Accelerated, FwMode::Accelerated];
    for seed in SOURCE_SEEDS {
        let mut rng = SimRng::new(seed);
        let mut fw = Firmware::new(config, &modes, &mut Sram::default()).unwrap();
        let mut lists: BTreeMap<u32, VecDeque<(u32, u32)>> = BTreeMap::new();
        let mut headers: Vec<(u32, u32, u32)> = Vec::new();
        let mut done: Vec<(u32, u32, u32)> = Vec::new();
        let (mut no_source, mut no_pending) = (0, 0);
        for _ in 0..3_000 {
            match rng.below(4) {
                0 => {
                    let (proc, peer) = (rng.below(3) as u32, 10 + rng.below(5) as u32);
                    let mut busy: Vec<u32> = headers.iter().map(|h| h.2).collect();
                    busy.extend(lists.iter().filter(|l| !l.1.is_empty()).map(|l| *l.0));
                    busy.extend(done.iter().map(|d| d.2));
                    busy.sort_unstable();
                    busy.dedup();
                    let refused = busy.len() == 3 && !busy.contains(&peer);
                    match fw.rx_header(proc, peer, false, false) {
                        Ok((pending, _)) => {
                            assert!(!refused, "a source while {busy:?} held all three");
                            headers.push((proc, pending, peer));
                        }
                        Err(FwError::NoSource) => {
                            assert!(refused, "refused with an idle source: {busy:?}");
                            no_source += 1;
                        }
                        Err(FwError::NoRxPending) => {
                            assert!(!refused, "a source while {busy:?} held all three");
                            no_pending += 1;
                        }
                        Err(e) => panic!("header refused: {e}"),
                    }
                }
                1 if !headers.is_empty() => {
                    let nth = rng.below(headers.len() as u64) as usize;
                    let (proc, pending, peer) = headers.swap_remove(nth);
                    let deposit = FwCommand::RecvDeposit {
                        pending,
                        length: 64,
                        drop_length: 0,
                        dma: DmaList::new(),
                    };
                    let fx = fw.handle_command(proc, deposit).unwrap();
                    let list = lists.entry(peer).or_default();
                    assert_eq!(started(&fx), list.is_empty().then_some((proc, pending)));
                    list.push_back((proc, pending));
                }
                2 => {
                    let peer = 10 + rng.below(5) as u32;
                    let Some(list) = lists.get_mut(&peer) else {
                        continue;
                    };
                    let Some((proc, pending)) = list.pop_front() else {
                        continue;
                    };
                    if let Some(&(p, i)) = list.front() {
                        let early = fw.rx_dma_complete(p, i);
                        assert_eq!(early.unwrap_err(), FwError::SpuriousCompletion);
                    }
                    let fx = fw.rx_dma_complete(proc, pending).unwrap();
                    assert_eq!(started(&fx), list.front().copied());
                    done.push((proc, pending, peer));
                }
                _ if !done.is_empty() => {
                    let nth = rng.below(done.len() as u64) as usize;
                    let (proc, pending, _) = done.swap_remove(nth);
                    let release = FwCommand::ReleasePending { pending };
                    fw.handle_command(proc, release).unwrap();
                }
                _ => {}
            }
            for list in lists.values() {
                for (place, &(proc, pending)) in list.iter().enumerate() {
                    let want = match place {
                        0 => PendingState::RxActive,
                        _ => PendingState::RxQueued,
                    };
                    assert_eq!(fw.lower(proc, pending).unwrap().state, want);
                }
            }
            for &(proc, pending, _) in &done {
                let state = fw.lower(proc, pending).unwrap().state;
                assert_eq!(state, PendingState::AwaitRelease);
            }
        }
        for proc in 0..3 {
            let held = headers.iter().filter(|h| h.0 == proc).count()
                + lists.values().flatten().filter(|q| q.0 == proc).count()
                + done.iter().filter(|d| d.0 == proc).count();
            assert_eq!(fw.rx_pool_stats(proc).0 as usize, held, "process {proc}");
        }
        assert!(no_source > 0 && no_pending > 0, "both pools must run dry");
    }
}
