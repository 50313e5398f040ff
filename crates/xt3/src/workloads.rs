//! Shared large-scale workloads.
//!
//! The Red Storm nearest-neighbor workload lives here (rather than in an
//! example or the bench crate) because three consumers need the *same*
//! machine construction: the `red_storm_scale` example, the
//! serial/parallel differential suite, and the `perf parallel`
//! benchmark. Identical construction is what makes the differential
//! suite's bit-identity assertion meaningful.

use crate::app::{App, AppCtx, AppEvent};
use crate::config::{MachineConfig, NodeSpec, OsKind, ProcSpec};
use crate::machine::Machine;
use std::any::Any;
use xt3_portals::event::EventKind;
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{AckReq, EqHandle, MdHandle, ProcessId};
use xt3_sim::SimRng;
use xt3_topology::coord::{Dims, Port};

/// Portal table index the workload posts on.
pub const RED_STORM_PT: u32 = 4;
/// Match bits.
pub const RED_STORM_BITS: u64 = 0x5CA1E;

/// Every node sends `rounds` puts to its successor in node-id order
/// (with wraparound) and absorbs the same from its predecessor, so all
/// nodes and links carry traffic at once.
pub struct NeighborPusher {
    target: u32,
    rounds: u32,
    msg: u64,
    eq: Option<EqHandle>,
    sent: u32,
    received: u32,
}

impl NeighborPusher {
    /// Pusher for node `me` of `n`, sending `rounds` puts of `msg` bytes
    /// to its successor.
    pub fn new(me: u32, n: u32, rounds: u32, msg: u64) -> Self {
        Self::toward((me + 1) % n, rounds, msg)
    }

    /// Pusher sending `rounds` puts of `msg` bytes to `target`. The app
    /// also expects to *receive* `rounds` puts before finishing, so
    /// targets must form cycles (mutual pairs, rings, ...).
    pub fn toward(target: u32, rounds: u32, msg: u64) -> Self {
        NeighborPusher {
            target,
            rounds,
            msg,
            eq: None,
            sent: 0,
            received: 0,
        }
    }
}

impl App for NeighborPusher {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let eq = ctx.eq_alloc(128).unwrap();
                self.eq = Some(eq);
                let me = ctx
                    .me_attach(
                        RED_STORM_PT,
                        ProcessId::any(),
                        RED_STORM_BITS,
                        0,
                        UnlinkOp::Retain,
                        InsertPos::After,
                    )
                    .unwrap();
                ctx.md_attach(
                    me,
                    self.msg,
                    self.msg,
                    MdOptions {
                        manage_remote: true,
                        event_start_disable: true,
                        ..MdOptions::put_target()
                    },
                    Threshold::Infinite,
                    Some(eq),
                    0,
                )
                .unwrap();
                let md = ctx
                    .md_bind(
                        0,
                        self.msg,
                        MdOptions::default(),
                        Threshold::Infinite,
                        Some(eq),
                        1,
                    )
                    .unwrap();
                let target = ProcessId::new(self.target, 0);
                ctx.put(
                    md,
                    AckReq::NoAck,
                    target,
                    RED_STORM_PT,
                    0,
                    RED_STORM_BITS,
                    0,
                    0,
                )
                .unwrap();
                self.sent = 1;
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(ev) => {
                match (ev.user_ptr, ev.kind) {
                    (1, EventKind::SendEnd) if self.sent < self.rounds => {
                        let target = ProcessId::new(self.target, 0);
                        ctx.put(
                            ev.md,
                            AckReq::NoAck,
                            target,
                            RED_STORM_PT,
                            0,
                            RED_STORM_BITS,
                            0,
                            0,
                        )
                        .unwrap();
                        self.sent += 1;
                    }
                    (0, EventKind::PutEnd) => {
                        self.received += 1;
                    }
                    _ => {}
                }
                if self.sent >= self.rounds && self.received >= self.rounds {
                    ctx.finish();
                } else {
                    ctx.wait_eq(self.eq.unwrap());
                }
            }
            _ => ctx.wait_eq(self.eq.unwrap()),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the Red Storm nearest-neighbor machine: `dims` Catamount nodes,
/// one [`NeighborPusher`] per node sending `rounds` puts of `msg` bytes.
pub fn red_storm_machine(dims: Dims, rounds: u32, msg: u64) -> Machine {
    let n = dims.node_count();
    let config = MachineConfig::paper(dims);
    let spec = NodeSpec {
        os: OsKind::Catamount,
        procs: vec![ProcSpec {
            mem_bytes: (2 * msg + 8192) as usize,
            ..ProcSpec::catamount_generic()
        }],
    };
    let mut m = Machine::new(config, &[spec]);
    for node in 0..n {
        m.spawn(node, 0, Box::new(NeighborPusher::new(node, n, rounds, msg)));
    }
    m
}

/// Portal table index the traffic-pattern workloads post on.
pub const TRAFFIC_PT: u32 = 5;
/// Match bits for traffic-pattern puts.
pub const TRAFFIC_BITS: u64 = 0x7C0DE;

/// The congestion traffic patterns (ROADMAP "congestion and scenario
/// diversity"): each one stresses the torus differently, from the
/// benign (nearest-neighbor halo) to the pathological (k-to-1 incast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every node sends to a seeded random permutation partner (fixed
    /// points removed), the classic average-case load.
    Uniform,
    /// Matrix transpose over the x-fastest id layout: node `r*C + c`
    /// sends to `c*R + r` — long deterministic paths that pile onto the
    /// same dimension-order links.
    Transpose,
    /// 3-D nearest-neighbor halo: every node sends to each existing
    /// torus/mesh neighbor, the app-kernel steady state.
    Halo3d,
    /// Everyone sends to everyone else — the collective storm.
    AllToAll,
    /// Every node but node 0 sends to node 0 — (n−1)-to-1 incast, the
    /// canonical hotspot generator.
    Incast,
}

impl TrafficPattern {
    /// All patterns, in stable sweep order.
    pub const ALL: [TrafficPattern; 5] = [
        TrafficPattern::Uniform,
        TrafficPattern::Transpose,
        TrafficPattern::Halo3d,
        TrafficPattern::AllToAll,
        TrafficPattern::Incast,
    ];

    /// Stable name used by scenario labels, benches and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Halo3d => "halo3d",
            TrafficPattern::AllToAll => "alltoall",
            TrafficPattern::Incast => "incast",
        }
    }

    /// One round of per-node target lists for `dims`. Deterministic:
    /// `Uniform` derives its permutation from `seed` via [`SimRng`],
    /// everything else is a pure function of the shape.
    pub fn targets(self, dims: Dims, seed: u64) -> Vec<Vec<u32>> {
        let n = dims.node_count();
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        match self {
            TrafficPattern::Uniform => {
                let mut perm: Vec<u32> = (0..n).collect();
                SimRng::new(seed).shuffle(&mut perm);
                // Remove fixed points so every node really transmits:
                // swap a self-map with its successor (still a bijection).
                for i in 0..perm.len() {
                    if perm[i] == i as u32 {
                        let j = (i + 1) % perm.len();
                        perm.swap(i, j);
                    }
                }
                for (i, &t) in perm.iter().enumerate() {
                    if t != i as u32 {
                        out[i].push(t);
                    }
                }
            }
            TrafficPattern::Transpose => {
                // Treat the id space as an R x C matrix with C = nx (the
                // fastest-varying dimension), R = n / nx.
                let c = u32::from(dims.nx).max(1);
                let r = n / c;
                for i in 0..n {
                    let (row, col) = (i / c, i % c);
                    let t = col * r + row;
                    if t != i && t < n {
                        out[i as usize].push(t);
                    }
                }
            }
            TrafficPattern::Halo3d => {
                for id in dims.iter_ids() {
                    let coord = dims.coord_of(id);
                    for p in Port::NETWORK_PORTS {
                        if let Some(nb) = dims.neighbor(coord, p) {
                            out[id.0 as usize].push(dims.id_of(nb).0);
                        }
                    }
                }
            }
            TrafficPattern::AllToAll => {
                for i in 0..n {
                    for j in 0..n {
                        if j != i {
                            out[i as usize].push(j);
                        }
                    }
                }
            }
            TrafficPattern::Incast => {
                for i in 1..n {
                    out[i as usize].push(0);
                }
            }
        }
        out
    }
}

/// Two periods of the payload pattern, byte `i` is `i % 251`, so that
/// the period starting at any phase is one slice of it.
const PATTERN: [u8; 502] = {
    let mut p = [0; 502];
    let mut i = 0;
    while i < p.len() {
        p[i] = (i % 251) as u8;
        i += 1;
    }
    p
};

/// One period of the payload `key` sends: byte `i` of it is
/// `(key + i) % 251`, and the payload repeats it.
fn pattern_period(key: u64) -> &'static [u8] {
    let phase = (key % 251) as usize;
    &PATTERN[phase..phase + 251]
}

/// Is `data` the payload `key` sends, compared a period at a time?
fn pattern_intact(key: u64, data: &[u8]) -> bool {
    let period = pattern_period(key);
    data.chunks(period.len())
        .all(|chunk| chunk == &period[..chunk.len()])
}

/// One node of a traffic-pattern run: issues one put per entry of its
/// target list (pipelined one-at-a-time, next put on the previous
/// `SendEnd`) and absorbs `expect` puts into a locally-managed region.
/// With real payloads (`!ctx.synthetic()`) every sent byte follows the
/// sender-keyed `(me + i) % 251` pattern and every received chunk is
/// verified against its sender (named in `hdr_data`), giving the fault
/// campaign an end-to-end integrity invariant under contention.
pub struct PatternNode {
    me: u32,
    sends: Vec<u32>,
    expect: u32,
    msg: u64,
    eq: Option<EqHandle>,
    md: Option<MdHandle>,
    sent: u32,
    completed: u32,
    received: u32,
    /// A real-payload arrival failed byte verification.
    pub corrupt: bool,
    /// Sum of received `hdr_data` words (provenance conservation: the
    /// machine-wide sum must equal the sum over all sent puts).
    pub hdr_sum: u64,
}

impl PatternNode {
    /// A node app for `me` sending `msg`-byte puts to `sends` (in
    /// order) and expecting `expect` arrivals.
    pub fn new(me: u32, sends: Vec<u32>, expect: u32, msg: u64) -> Self {
        PatternNode {
            me,
            sends,
            expect,
            msg,
            eq: None,
            md: None,
            sent: 0,
            completed: 0,
            received: 0,
            corrupt: false,
            hdr_sum: 0,
        }
    }

    /// Arrivals still outstanding (0 when the node is done receiving).
    pub fn outstanding(&self) -> u32 {
        self.expect - self.received
    }

    fn put_next(&mut self, ctx: &mut AppCtx<'_>) {
        let target = ProcessId::new(self.sends[self.sent as usize], 0);
        let hdr = (u64::from(self.me) << 32) | u64::from(self.sent);
        ctx.put(
            self.md.expect("md bound at start"),
            AckReq::NoAck,
            target,
            TRAFFIC_PT,
            0,
            TRAFFIC_BITS,
            0,
            hdr,
        )
        .expect("pattern put");
        self.sent += 1;
    }

    fn maybe_finish(&mut self, ctx: &mut AppCtx<'_>) {
        if self.completed >= self.sends.len() as u32 && self.received >= self.expect {
            ctx.finish();
        } else {
            ctx.wait_eq(self.eq.expect("eq set at start"));
        }
    }
}

impl App for PatternNode {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let cap = ((self.sends.len() as u32 + self.expect) * 2 + 16).next_power_of_two();
                let eq = ctx.eq_alloc(cap).expect("pattern eq");
                self.eq = Some(eq);
                // Receive region after the send buffer, locally managed
                // so arrivals deposit back to back.
                let me = ctx
                    .me_attach(
                        TRAFFIC_PT,
                        ProcessId::any(),
                        TRAFFIC_BITS,
                        0,
                        UnlinkOp::Retain,
                        InsertPos::After,
                    )
                    .expect("pattern me");
                ctx.md_attach(
                    me,
                    self.msg,
                    u64::from(self.expect.max(1)) * self.msg,
                    MdOptions {
                        event_start_disable: true,
                        ..MdOptions::put_target()
                    },
                    Threshold::Infinite,
                    Some(eq),
                    0,
                )
                .expect("pattern md-attach");
                if !self.sends.is_empty() {
                    if !ctx.synthetic() {
                        let (period, len) = (pattern_period(u64::from(self.me)), self.msg as usize);
                        let mut payload = Vec::with_capacity(len);
                        while payload.len() < len {
                            let take = period.len().min(len - payload.len());
                            payload.extend_from_slice(&period[..take]);
                        }
                        ctx.write_mem(0, &payload);
                    }
                    let md = ctx
                        .md_bind(
                            0,
                            self.msg,
                            MdOptions::default(),
                            Threshold::Infinite,
                            Some(eq),
                            1,
                        )
                        .expect("pattern md-bind");
                    self.md = Some(md);
                    self.put_next(ctx);
                }
                self.maybe_finish(ctx);
            }
            AppEvent::Ptl(ev) => {
                match (ev.user_ptr, ev.kind) {
                    (1, EventKind::SendEnd) => {
                        self.completed += 1;
                        if (self.sent as usize) < self.sends.len() {
                            self.put_next(ctx);
                        }
                    }
                    (0, EventKind::PutEnd) => {
                        self.received += 1;
                        self.hdr_sum = self.hdr_sum.wrapping_add(ev.hdr_data);
                        if !ctx.synthetic() {
                            let src = ev.hdr_data >> 32;
                            // `ev.offset` is MD-relative; the receive MD
                            // starts after the send buffer.
                            let data = ctx.read_mem(self.msg + ev.offset, ev.mlength as u32);
                            if !pattern_intact(src, &data) {
                                self.corrupt = true;
                            }
                        }
                    }
                    _ => {}
                }
                self.maybe_finish(ctx);
            }
            _ => ctx.wait_eq(self.eq.expect("eq set at start")),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the machine for one traffic pattern: `rounds` repetitions of
/// the pattern's target lists, `msg`-byte puts, with nodes that neither
/// send nor receive installed process-free (their demand-allocated
/// state never materializes). Deterministic for fixed arguments, so
/// the replay audit, the fault campaign, the congestion report and the
/// parallel differential all drive the *same* construction.
pub fn traffic_machine(pattern: TrafficPattern, dims: Dims, rounds: u32, msg: u64) -> Machine {
    traffic_machine_cfg(pattern, MachineConfig::paper(dims), rounds, msg)
}

/// As [`traffic_machine`] but with an explicit machine config — the
/// fault campaign threads fault plans, real payloads and per-cell seeds
/// through here while keeping the identical app construction.
pub fn traffic_machine_cfg(
    pattern: TrafficPattern,
    config: MachineConfig,
    rounds: u32,
    msg: u64,
) -> Machine {
    let dims = config.dims;
    let one_round = pattern.targets(dims, config.seed);
    let n = dims.node_count() as usize;
    let mut expect = vec![0u32; n];
    for targets in &one_round {
        for &t in targets {
            expect[t as usize] += rounds;
        }
    }
    let mut specs = Vec::with_capacity(n);
    let mut apps: Vec<Option<PatternNode>> = Vec::with_capacity(n);
    for (i, targets) in one_round.iter().enumerate() {
        if targets.is_empty() && expect[i] == 0 {
            specs.push(NodeSpec {
                os: OsKind::Catamount,
                procs: Vec::new(),
            });
            apps.push(None);
            continue;
        }
        let mut sends = Vec::with_capacity(targets.len() * rounds as usize);
        for _ in 0..rounds {
            sends.extend_from_slice(targets);
        }
        let mem = msg + u64::from(expect[i].max(1)) * msg + 8192;
        specs.push(NodeSpec {
            os: OsKind::Catamount,
            procs: vec![ProcSpec {
                mem_bytes: mem as usize,
                ..ProcSpec::catamount_generic()
            }],
        });
        apps.push(Some(PatternNode::new(i as u32, sends, expect[i], msg)));
    }
    let mut m = Machine::new(config, &specs);
    for (i, app) in apps.into_iter().enumerate() {
        if let Some(app) = app {
            m.spawn(i as u32, 0, Box::new(app));
        }
    }
    m
}

/// Sum over all nodes of a quantity read from each [`PatternNode`].
///
/// Panics if any spawned app is not a `PatternNode` — call only on
/// machines built by [`traffic_machine`]. Used by the fault campaign
/// for provenance/integrity invariants after a run.
pub fn pattern_stats(m: &mut Machine) -> PatternStats {
    let n = m.config.dims.node_count();
    let mut stats = PatternStats::default();
    for node in 0..n {
        let Some(mut app) = m.take_app(node, 0) else {
            continue;
        };
        let p = app
            .as_any()
            .downcast_mut::<PatternNode>()
            .expect("traffic machine app");
        stats.nodes += 1;
        stats.received += u64::from(p.received);
        stats.outstanding += u64::from(p.outstanding());
        stats.hdr_sum = stats.hdr_sum.wrapping_add(p.hdr_sum);
        stats.corrupt |= p.corrupt;
    }
    stats
}

/// Aggregate end-state of a traffic-pattern run (see [`pattern_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternStats {
    /// Nodes that ran an app.
    pub nodes: u32,
    /// Total puts received.
    pub received: u64,
    /// Expected arrivals still missing (0 on a finished run).
    pub outstanding: u64,
    /// Wrapping sum of received `hdr_data` provenance words.
    pub hdr_sum: u64,
    /// Any node saw a payload that failed byte verification.
    pub corrupt: bool,
}

/// The machine-wide expected `hdr_sum` for `pattern` at `dims` x
/// `rounds`: the wrapping sum of `(src << 32) | seq` over every put the
/// pattern issues. What [`PatternStats::hdr_sum`] must equal when no
/// message was lost.
pub fn expected_hdr_sum(pattern: TrafficPattern, dims: Dims, rounds: u32, seed: u64) -> u64 {
    let one_round = pattern.targets(dims, seed);
    let mut sum = 0u64;
    for (i, targets) in one_round.iter().enumerate() {
        let sends = targets.len() as u64 * u64::from(rounds);
        for seq in 0..sends {
            sum = sum.wrapping_add(((i as u64) << 32) | seq);
        }
    }
    sum
}

/// Build a sparse-peer machine: only the nodes named in `pairs` run
/// apps (each pair exchanging `rounds` puts of `msg` bytes in both
/// directions); every other node is installed without processes and
/// never sees traffic, so its demand-allocated state — GBN peer maps,
/// pending stores, address-space backing — is never materialized. The
/// differential suite uses this to pin down that lazily-created state
/// cannot leak into digests or fingerprints, and that idle-shard
/// skipping stays bit-identical when most shards have nothing to do.
pub fn sparse_pairs_machine(dims: Dims, pairs: &[(u32, u32)], rounds: u32, msg: u64) -> Machine {
    let n = dims.node_count();
    let config = MachineConfig::paper(dims);
    let idle = NodeSpec {
        os: OsKind::Catamount,
        procs: Vec::new(),
    };
    let busy = NodeSpec {
        os: OsKind::Catamount,
        procs: vec![ProcSpec {
            mem_bytes: (2 * msg + 8192) as usize,
            ..ProcSpec::catamount_generic()
        }],
    };
    let mut specs = vec![idle; n as usize];
    for &(a, b) in pairs {
        assert!(a != b && a < n && b < n, "pair ({a}, {b}) out of range");
        specs[a as usize] = busy.clone();
        specs[b as usize] = busy.clone();
    }
    let mut m = Machine::new(config, &specs);
    for &(a, b) in pairs {
        m.spawn(a, 0, Box::new(NeighborPusher::toward(b, rounds, msg)));
        m.spawn(b, 0, Box::new(NeighborPusher::toward(a, rounds, msg)));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Dims {
        Dims::mesh(4, 3, 2)
    }

    #[test]
    fn one_flipped_byte_fails_the_period_check() {
        // The bytes the per-byte formula wrote, at lengths around the
        // period and for keys past it.
        for key in [0, 1, 250, 251, 1000, u64::from(u32::MAX)] {
            for len in [0, 1, 250, 251, 252, 1000] {
                let bytes: Vec<u8> = (0..len).map(|i| ((key + i) % 251) as u8).collect();
                assert!(pattern_intact(key, &bytes), "key {key}, {len} B");
                let n = bytes.len().min(251);
                assert_eq!(pattern_period(key)[..n], bytes[..n]);
                // One flipped byte anywhere, in any period, is caught.
                for at in (0..len as usize).step_by(97) {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 1;
                    assert!(!pattern_intact(key, &flipped), "key {key}, byte {at}");
                }
            }
        }
    }

    #[test]
    fn uniform_targets_are_a_derangement() {
        let t = TrafficPattern::Uniform.targets(dims(), 0x5EED);
        let n = dims().node_count() as usize;
        let mut hit = vec![0u32; n];
        for (i, targets) in t.iter().enumerate() {
            assert_eq!(targets.len(), 1, "uniform sends exactly one stream");
            assert_ne!(targets[0] as usize, i, "no self-sends");
            hit[targets[0] as usize] += 1;
        }
        assert!(hit.iter().all(|&h| h == 1), "targets form a permutation");
    }

    #[test]
    fn transpose_targets_are_a_bijection() {
        // On a non-square row/column split the transpose map is not an
        // involution, but it is always a bijection minus fixed points.
        let t = TrafficPattern::Transpose.targets(dims(), 0);
        let n = dims().node_count() as usize;
        let mut hit = vec![0u32; n];
        let mut senders = 0usize;
        for (i, targets) in t.iter().enumerate() {
            assert!(targets.len() <= 1, "transpose sends at most one stream");
            for &j in targets {
                assert_ne!(j as usize, i, "fixed points are dropped");
                hit[j as usize] += 1;
                senders += 1;
            }
        }
        assert!(hit.iter().all(|&h| h <= 1), "no two senders share a target");
        assert_eq!(
            hit.iter().sum::<u32>() as usize,
            senders,
            "every stream lands somewhere distinct"
        );
        assert!(senders > 0, "pattern generates traffic");
    }

    #[test]
    fn halo_targets_are_symmetric_neighbors() {
        let t = TrafficPattern::Halo3d.targets(dims(), 0);
        for (i, targets) in t.iter().enumerate() {
            assert!(!targets.is_empty(), "every node has torus neighbors");
            for &j in targets {
                assert!(
                    t[j as usize].contains(&(i as u32)),
                    "halo exchange is symmetric: {i} <-> {j}"
                );
            }
        }
    }

    #[test]
    fn incast_fans_into_node_zero() {
        let t = TrafficPattern::Incast.targets(dims(), 0);
        assert!(t[0].is_empty(), "the sink only receives");
        for targets in t.iter().skip(1) {
            assert_eq!(targets, &vec![0u32], "every other node hits the sink");
        }
    }

    #[test]
    fn alltoall_targets_everyone_else() {
        let t = TrafficPattern::AllToAll.targets(dims(), 0);
        let n = dims().node_count();
        for (i, targets) in t.iter().enumerate() {
            assert_eq!(targets.len() as u32, n - 1);
            assert!(!targets.contains(&(i as u32)));
        }
    }

    #[test]
    fn traffic_patterns_run_to_completion_with_exact_provenance() {
        for pattern in TrafficPattern::ALL {
            let d = Dims::mesh(3, 2, 2);
            let seed = MachineConfig::paper(d).seed;
            let mut engine = traffic_machine(pattern, d, 2, 512).into_engine();
            engine.run();
            let stats = pattern_stats(engine.model_mut());
            assert_eq!(
                stats.outstanding,
                0,
                "{}: every expected put must arrive",
                pattern.name()
            );
            assert!(!stats.corrupt, "{}: payload corruption", pattern.name());
            assert_eq!(
                stats.hdr_sum,
                expected_hdr_sum(pattern, d, 2, seed),
                "{}: provenance sum mismatch",
                pattern.name()
            );
        }
    }
}
