//! Property tests for the conservative time-window parallel driver:
//! *any* partition assignment (including non-contiguous, unbalanced and
//! empty-shard-adjacent ones) over a random small topology produces the
//! serial engine's digest, dispatch count and per-node state.
//!
//! Note: the vendored offline `proptest` stand-in does not shrink
//! failures — a failing case prints at generated size, not minimized.
//! Cases here are small enough (≤ 12 nodes, ≤ 24 hops) to read directly.

use proptest::prelude::*;
use xt3_sim::{
    Delivery, DigestLanes, Engine, EventDigest, EventQueue, ExecMode, Model, ParConfig,
    Partitioned, RunOutcome, SimTime, WindowDriver,
};

const HOP: SimTime = SimTime::from_ns(40);

/// A message bouncing around a virtual mesh: each arrival bumps the
/// destination's counter and forwards to a pseudo-random (but
/// deterministic) next node until its hop budget runs out.
#[derive(Debug)]
struct Msg {
    src: u32,
    dst: u32,
    hops_left: u32,
    sent_at: SimTime,
    key: u64,
    /// Key of the event whose dispatch produced this message — the merge
    /// key for intent routing (monotone within a shard run, unlike the
    /// freshly minted `key`).
    sent_key: u64,
}

/// The deterministic "routing table": next hop is a hash of the current
/// position and remaining hops, so traffic patterns vary per case while
/// staying identical between the serial and parallel runs.
fn next_hop(at: u32, hops_left: u32, total: u32) -> u32 {
    let mut d = EventDigest::new();
    d.write_u32(at);
    d.write_u32(hops_left);
    (d.value() % u64::from(total)) as u32
}

/// One shard owning an arbitrary set of global node ids.
struct MeshShard {
    owned: Vec<u32>,
    total: u32,
    hits: Vec<u64>,
    key_ctr: Vec<u64>,
    intents: Vec<Msg>,
}

impl MeshShard {
    fn new(owned: Vec<u32>, total: u32) -> Self {
        let n = owned.len();
        MeshShard {
            owned,
            total,
            hits: vec![0; n],
            key_ctr: vec![0; n],
            intents: Vec::new(),
        }
    }

    fn slot(&self, node: u32) -> usize {
        self.owned
            .binary_search(&node)
            .expect("event routed to wrong shard")
    }

    fn next_key(&mut self, node: u32) -> u64 {
        let slot = self.slot(node);
        self.key_ctr[slot] += 1;
        (u64::from(node) << 32) | self.key_ctr[slot]
    }
}

impl Model for MeshShard {
    type Event = Msg;

    fn dispatch(&mut self, _: SimTime, _: Msg, _: &mut EventQueue<Msg>) {
        unreachable!("keyed dispatch only");
    }

    fn dispatch_keyed(&mut self, now: SimTime, key: u64, ev: Msg, _q: &mut EventQueue<Msg>) {
        let slot = self.slot(ev.dst);
        self.hits[slot] += 1;
        if ev.hops_left > 0 {
            let src = ev.dst;
            let dst = next_hop(src, ev.hops_left, self.total);
            let fresh = self.next_key(src);
            // All sends — even shard-local ones — defer as intents, so
            // serial and parallel replay identical interactions.
            self.intents.push(Msg {
                src,
                dst,
                hops_left: ev.hops_left - 1,
                sent_at: now,
                key: fresh,
                sent_key: key,
            });
        }
    }

    fn lane(ev: &Msg) -> u32 {
        ev.dst
    }

    fn fingerprint(ev: &Msg, d: &mut EventDigest) {
        d.write_u32(ev.src);
        d.write_u32(ev.dst);
        d.write_u32(ev.hops_left);
    }
}

impl Partitioned for MeshShard {
    type Intent = Msg;
    fn drain_intents_into(&mut self, out: &mut Vec<Msg>) {
        out.append(&mut self.intents);
    }
}

fn route(assign: Vec<usize>) -> impl FnMut(&mut Vec<Vec<Msg>>, &mut Vec<Delivery<Msg>>) {
    move |by_shard, out| {
        for m in xt3_sim::merge_ordered_runs(by_shard, |m| (m.sent_at, m.sent_key)) {
            out.push(Delivery {
                shard: assign[m.dst as usize],
                at: m.sent_at + HOP,
                key: m.key,
                event: m,
            });
        }
    }
}

fn seed(engine: &mut Engine<MeshShard>, sources: &[u32], hops: u32) {
    for &n in sources {
        if !engine.model().owned.contains(&n) {
            continue;
        }
        let key = engine.model_mut().next_key(n);
        engine.queue_mut().schedule_keyed(
            SimTime::ZERO,
            key,
            Msg {
                src: n,
                dst: n,
                hops_left: hops,
                sent_at: SimTime::ZERO,
                key,
                sent_key: key,
            },
        );
    }
}

/// (digest, per-node hits in global order, dispatched)
fn serial(total: u32, sources: &[u32], hops: u32) -> (u64, Vec<u64>, u64) {
    let mut e = Engine::new(MeshShard::new((0..total).collect(), total));
    seed(&mut e, sources, hops);
    let mut r = route(vec![0; total as usize]);
    let mut out = Vec::new();
    loop {
        assert_eq!(e.run(), RunOutcome::Drained);
        let mut run = Vec::new();
        e.model_mut().drain_intents_into(&mut run);
        if run.is_empty() {
            break;
        }
        r(&mut vec![run], &mut out);
        for d in out.drain(..) {
            e.queue_mut().schedule_keyed(d.at, d.key, d.event);
        }
    }
    (e.digest(), e.model().hits.clone(), e.dispatched())
}

fn parallel(
    total: u32,
    assign: &[usize],
    sources: &[u32],
    hops: u32,
    exec: ExecMode,
) -> (u64, Vec<u64>, u64) {
    let shards = assign.iter().max().copied().unwrap_or(0) + 1;
    let mut engines = Vec::new();
    for s in 0..shards {
        let owned: Vec<u32> = (0..total).filter(|&n| assign[n as usize] == s).collect();
        let mut e = Engine::new(MeshShard::new(owned, total));
        seed(&mut e, sources, hops);
        engines.push(e);
    }
    let config = ParConfig {
        exec,
        ..ParConfig::new(HOP, u64::MAX)
    };
    let (engines, out) = WindowDriver::new(engines, config).run(route(assign.to_vec()));
    assert_eq!(out.outcome, RunOutcome::Drained);
    let mut lanes = DigestLanes::new();
    for e in &engines {
        lanes.merge_from(e.digest_lanes());
    }
    let digest = lanes.value();
    // Reassemble per-node hits in global node order from the scattered
    // shard slots.
    let mut hits = vec![0u64; total as usize];
    for e in &engines {
        let m = e.model();
        for (slot, &node) in m.owned.iter().enumerate() {
            hits[node as usize] = m.hits[slot];
        }
    }
    (digest, hits, out.dispatched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any partition assignment over any small topology reproduces the
    /// serial digest, per-node hit counts and dispatch count — with every
    /// shard on the coordinator (`Inline`: up to 4 shards on 1 thread),
    /// one shard per thread (`Threads`), and whatever the host's core
    /// count deals out (`Auto`: on the 2-core CI runners one helper, and
    /// from 3 shards up several shards on each thread).
    #[test]
    fn arbitrary_partitions_reproduce_serial_digest(
        total in 2u32..12,
        raw_assign in proptest::collection::vec(0usize..4, 12..13),
        raw_sources in proptest::collection::vec(0u32..12, 1..6),
        hops in 1u32..24,
    ) {
        // Compact the raw assignment to the first `total` nodes and
        // renumber shards densely so none are empty.
        let mut seen: Vec<usize> = Vec::new();
        let assign: Vec<usize> = raw_assign[..total as usize]
            .iter()
            .map(|&s| {
                if let Some(i) = seen.iter().position(|&x| x == s) {
                    i
                } else {
                    seen.push(s);
                    seen.len() - 1
                }
            })
            .collect();
        let mut sources: Vec<u32> = raw_sources.iter().map(|&s| s % total).collect();
        sources.sort_unstable();
        sources.dedup();

        let (sd, sh, sn) = serial(total, &sources, hops);
        for exec in [ExecMode::Inline, ExecMode::Threads, ExecMode::Auto] {
            let (pd, ph, pn) = parallel(total, &assign, &sources, hops, exec);
            prop_assert_eq!(pd, sd, "digest diverged ({:?}, assign {:?})", exec, &assign);
            prop_assert_eq!(&ph, &sh, "hits diverged ({:?}, assign {:?})", exec, &assign);
            prop_assert_eq!(pn, sn, "dispatch count diverged ({:?}, assign {:?})", exec, &assign);
        }
    }

    /// The k-way merge the coordinator routes with is byte-equivalent to
    /// the global stable sort it replaced: for arbitrary per-run keys
    /// (sorted within each run, with plenty of cross-run ties), merging
    /// yields exactly the stable sort of the shard-ordered flattening —
    /// including tie-breaking toward the lower shard index.
    #[test]
    fn merge_of_sorted_runs_equals_global_stable_sort(
        raw_runs in proptest::collection::vec(
            proptest::collection::vec(0u64..8, 0..12),
            0..6,
        ),
    ) {
        // Tag every element with (run, position) so equal keys are
        // distinguishable, then sort each run by key (tags preserve
        // the within-run generation order stable sort would keep).
        let mut runs: Vec<Vec<(u64, usize, usize)>> = raw_runs
            .iter()
            .enumerate()
            .map(|(r, keys)| {
                let mut run: Vec<(u64, usize, usize)> =
                    keys.iter().enumerate().map(|(i, &k)| (k, r, i)).collect();
                run.sort_by_key(|&(k, _, _)| k);
                run
            })
            .collect();
        let mut expect: Vec<(u64, usize, usize)> = runs.iter().flatten().copied().collect();
        expect.sort_by_key(|&(k, _, _)| k);

        let merged: Vec<(u64, usize, usize)> =
            xt3_sim::merge_ordered_runs(&mut runs, |&(k, _, _)| k).collect();
        prop_assert_eq!(merged, expect);
        prop_assert!(runs.iter().all(Vec::is_empty), "merge drains runs in place");
    }
}
