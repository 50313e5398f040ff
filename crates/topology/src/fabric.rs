//! Message transport over the fixed-path fabric.
//!
//! [`Fabric::send`] moves one message along its table-determined path using
//! virtual cut-through: the head of the message advances one router latency
//! per hop, each link serializes the full packet train, and a busy link
//! stalls the message behind earlier traffic. Because paths are fixed and
//! each link is FIFO, delivery between any (src, dst) pair is in-order —
//! exactly the property the SeaStar's table-based routers provide (§2).
//!
//! The fabric reports two delivery instants per message: when the *header
//! packet* reaches the destination NIC (the firmware starts processing
//! then) and when the *last byte* arrives (the RX DMA can only complete
//! then). The gap between the two is what lets large transfers overlap
//! host-side Portals processing with wire time.

use crate::coord::{Dims, NodeId, Port};
use crate::link::{Link, LinkConfig};
use crate::route::RoutingTable;
use serde::{Deserialize, Serialize};
use xt3_sim::par::offload::{Consume, Worker};
use xt3_sim::{CausalFolder, CausalLog, Fate, Observation, SimRng, SimTime, Transit};
use xt3_telemetry::{Component, NullSink, Occupancy, SeriesConfig, SeriesSet, TelemetrySink};

/// Fabric-wide configuration.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Per-link parameters.
    pub link: LinkConfig,
}

/// Latency for a message from a node to itself (loopback through the
/// NIC without entering the network).
pub const LOOPBACK_LATENCY: SimTime = SimTime::from_ns(100);

/// CRC-retry RNG seed of a fabric built by [`Fabric::new`]; a machine
/// seeds its fabric from its own seed ([`Fabric::seeded`]).
const STANDALONE_SEED: u64 = 0x5EA5_7A12;

impl FabricConfig {
    /// The minimum simulated time between a message being injected and
    /// *any* resulting event on another queue: the conservative
    /// lookahead a parallel time-window scheduler may use. A loopback
    /// arrives after [`LOOPBACK_LATENCY`]; a network message's header
    /// cannot arrive before one hop of wire latency plus the
    /// serialization of its header packet (head-of-line stalls, extra
    /// hops and fault-injected delays only push it later).
    pub fn min_lookahead(&self) -> SimTime {
        let network = self.link.hop_latency + self.link.serialization_time(1);
        LOOPBACK_LATENCY.min(network)
    }
}

/// A message handed to the fabric. `P` is the opaque wire body the upper
/// layers attach (the firmware's wire message); the fabric only reads the
/// byte count.
#[derive(Debug, Clone)]
pub struct NetMessage<P> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// User payload bytes on the wire (excludes the 64-byte header packet).
    pub payload_bytes: u64,
    /// Correlation tag for tracing.
    pub tag: u64,
    /// Opaque body delivered to the destination.
    pub body: P,
}

/// A delivered message with its timing.
#[derive(Debug, Clone)]
pub struct DeliveredMsg<P> {
    /// The original message.
    pub msg: NetMessage<P>,
    /// When the header packet reached the destination NIC.
    pub header_at: SimTime,
    /// When the last byte reached the destination NIC.
    pub complete_at: SimTime,
    /// Network hops traversed.
    pub hops: u32,
}

/// Hand one link transit to every sink that is on: a busy span on the
/// link's track and the head-of-line wait into the `net.hol_stall`
/// histogram, the series lanes kept on this thread, and one record to
/// `causal` — its `LinkHop` and, while the log carries the series to a
/// consumer thread, the series' occupancy too. Outlined, so an unobserved
/// walk carries none of it.
#[inline(never)]
fn observe_hop(
    sink: &mut impl TelemetrySink,
    series: Option<&mut SeriesSet>,
    causal: &mut CausalLog,
    transit: Transit,
) {
    let (node, port) = (transit.node, transit.port);
    if sink.is_enabled() {
        let stall = transit.start.saturating_sub(transit.arrival);
        sink.span(
            node,
            Component::Link(port),
            "link",
            transit.start,
            transit.done,
        );
        sink.sample("net.hol_stall", stall);
    }
    if let Some(series) = series {
        series.record_hop(node, port, occupancy(&transit), transit.packets);
    }
    causal.hop(transit);
}

/// The series' view of a transit.
fn occupancy(t: &Transit) -> Occupancy {
    Occupancy {
        tag: t.tag,
        arrival: t.arrival,
        start: t.start,
        done: t.done,
    }
}

/// What a fabric's observation consumer thread owns while a run is on:
/// the causal log's folder and the link series, driven by one stream.
#[derive(Debug)]
struct Observers {
    folder: CausalFolder,
    series: Option<Box<SeriesSet>>,
}

impl Consume for Observers {
    type Rec = Observation;

    fn apply(&mut self, rec: &Observation) {
        if let Some(series) = self.series.as_deref_mut() {
            match rec {
                Observation::Hop(t) => series.record_hop(t.node, t.port, occupancy(t), t.packets),
                &Observation::Inject { node, at, bytes } => series.record_inject(node, at, bytes),
                _ => {}
            }
        }
        self.folder.apply(rec);
    }
}

/// The interconnect: routing tables plus per-link state.
pub struct Fabric {
    config: FabricConfig,
    routes: RoutingTable,
    /// `links[node][port]` — outgoing link of `node` through `port`.
    links: Vec<[Link; 6]>,
    rng: SimRng,
    messages_sent: u64,
    bytes_sent: u64,
    /// Time-bucketed per-link/per-node series, allocated only when
    /// enabled (observation-only: excluded from fingerprints, recorded
    /// from values the walk computes anyway). Owned by the fabric so
    /// that in parallel runs — where the coordinator replays every
    /// send on the one real fabric in exact serial order — the series
    /// are bit-identical to serial and survive `Machine::merge`.
    series: Option<Box<SeriesSet>>,
    /// The consumer thread holding the series and a causal log's folder
    /// between [`Fabric::offload`] and [`Fabric::settle`].
    observers: Option<Worker<Observers>>,
}

impl Fabric {
    /// Build a fabric for `dims` with the given configuration and a
    /// fixed CRC-retry seed.
    pub fn new(dims: Dims, config: FabricConfig) -> Self {
        Self::seeded(dims, config, STANDALONE_SEED)
    }

    /// [`Fabric::new`] with CRC retries drawn from `seed`. The RNG draws
    /// only while `crc_error_prob > 0`.
    pub fn seeded(dims: Dims, config: FabricConfig, seed: u64) -> Self {
        let routes = RoutingTable::build(dims);
        let links = (0..dims.node_count()).map(|_| Default::default()).collect();
        Fabric {
            config,
            routes,
            links,
            rng: SimRng::new(seed),
            messages_sent: 0,
            bytes_sent: 0,
            series: None,
            observers: None,
        }
    }

    /// Start recording time-bucketed series (utilization, queue depth,
    /// HOL stall per link; injections per node) with `cfg`'s bucket
    /// geometry. Replaces any series recorded so far.
    pub fn enable_series(&mut self, cfg: SeriesConfig) {
        assert!(self.observers.is_none(), "series enabled mid-run");
        let nodes = self.dims().node_count() as usize;
        self.series = Some(Box::new(SeriesSet::new(nodes, cfg)));
    }

    /// The recorded series, if enabled. Panics between [`Fabric::offload`]
    /// and [`Fabric::settle`], when they are a consumer thread's.
    pub fn series(&self) -> Option<&SeriesSet> {
        assert!(
            self.observers.is_none(),
            "link series read while a consumer thread holds them: settle first"
        );
        self.series.as_deref()
    }

    /// Hand the series and `causal`'s folding to one consumer thread:
    /// from now on every transit and injection is one record down
    /// `causal`'s pipe, applied there in stream order. Nothing to do
    /// when neither is on, or when a thread already has them.
    pub fn offload(&mut self, causal: &mut CausalLog) {
        if self.observers.is_some() || (self.series.is_none() && !causal.is_enabled()) {
            return;
        }
        let series = self.series.take();
        let lanes = series.is_some();
        let worker = causal.offload(lanes, |folder| Observers { folder, series });
        self.observers = Some(worker);
    }

    /// Wait for the consumer thread [`Fabric::offload`] started to apply
    /// every record, and take the series and `causal`'s folder back.
    pub fn settle(&mut self, causal: &mut CausalLog) {
        if let Some(worker) = self.observers.take() {
            let observers = causal.settle(worker, |o| std::mem::take(&mut o.folder));
            self.series = observers.series;
        }
    }

    /// The machine shape.
    pub fn dims(&self) -> Dims {
        self.routes.dims()
    }

    /// The routing tables (shared with diagnostics and tests).
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Conservative parallel-scheduling lookahead for this fabric (see
    /// [`FabricConfig::min_lookahead`]).
    pub fn min_lookahead(&self) -> SimTime {
        self.config.min_lookahead()
    }

    /// Transmit `msg`, with its first byte presented to the source router
    /// at `inject_at`. Returns the delivery record; the caller schedules
    /// the corresponding events.
    pub fn send<P>(&mut self, inject_at: SimTime, msg: NetMessage<P>) -> DeliveredMsg<P> {
        self.send_full(inject_at, msg, &mut NullSink, &mut CausalLog::disabled())
    }

    /// [`Fabric::send`], observed: each traversed link records a busy span
    /// on its owning node's track in `sink`, and the head-of-line wait in
    /// front of a busy link is sampled into the `net.hol_stall` histogram;
    /// each hop appends a `LinkHop` record to `causal` (chained onto the
    /// message's `TxInject`) whose `info` carries the head-of-line stall at
    /// that hop in picoseconds — the detail the critical-path extractor
    /// uses to split transit time into wire vs. hop-queueing classes.
    /// Recording observes the timing the cut-through walk computes anyway,
    /// so delivery is bit-identical to the unobserved path.
    pub fn send_full<P>(
        &mut self,
        inject_at: SimTime,
        msg: NetMessage<P>,
        sink: &mut impl TelemetrySink,
        causal: &mut CausalLog,
    ) -> DeliveredMsg<P> {
        self.messages_sent += 1;
        self.bytes_sent += msg.payload_bytes;
        match self.series.as_deref_mut() {
            Some(series) => series.record_inject(msg.src.0, inject_at, msg.payload_bytes),
            None => causal.inject(msg.src.0, inject_at, msg.payload_bytes),
        }

        if msg.src == msg.dst {
            let at = inject_at + LOOPBACK_LATENCY;
            return DeliveredMsg {
                msg,
                header_at: at,
                complete_at: at,
                hops: 0,
            };
        }

        let cfg = self.config.link;
        let packets = cfg.packets_for(msg.payload_bytes);
        let serialization = cfg.serialization_time(packets);
        // Split borrows: the lazy path walk borrows `routes` while the
        // loop body mutates `links`/`rng`/`series`.
        let (routes, links, rng, mut series) = (
            &self.routes,
            &mut self.links,
            &mut self.rng,
            self.series.as_deref_mut(),
        );
        let mut hops = 0u32;
        // The one test a hop pays when nothing is watching.
        let observed = sink.is_enabled() || series.is_some() || causal.observes_hops();

        // Cut-through: the head waits for each link in turn; each link is
        // occupied for the full packet train. `head` tracks when the first
        // byte arrives at the next router.
        let mut head = inject_at;
        let mut complete = inject_at + serialization;
        for (node, port) in routes.path_iter(msg.src, msg.dst) {
            hops += 1;
            let link = &mut links[node.0 as usize][port.index()];
            let (start, done) = link.transmit(&cfg, rng, head, packets);
            if observed {
                let transit = Transit {
                    tag: msg.tag,
                    arrival: head,
                    start,
                    done,
                    packets,
                    node: node.0,
                    port: port.index() as u8,
                    fate: Fate::Off,
                    resent: false,
                };
                observe_hop(sink, series.as_deref_mut(), causal, transit);
            }
            head = start + cfg.hop_latency;
            // The last byte clears this link at `done` and still needs the
            // hop latency to reach the next router.
            complete = done + cfg.hop_latency;
        }

        DeliveredMsg {
            msg,
            header_at: head + cfg.serialization_time(1),
            complete_at: complete,
            hops,
        }
    }

    /// Utilization of the busiest link over `[0, now]`.
    pub fn peak_link_utilization(&self, now: SimTime) -> f64 {
        self.links
            .iter()
            .flat_map(|ports| ports.iter())
            .map(|l| l.utilization(now))
            .fold(0.0, f64::max)
    }

    /// Total CRC retries across all links.
    pub fn total_retries(&self) -> u64 {
        self.links
            .iter()
            .flat_map(|ports| ports.iter())
            .map(|l| l.retries())
            .sum()
    }

    /// Messages transmitted.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Payload bytes transmitted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Outgoing link of `node` through `port` (diagnostics).
    pub fn link(&self, node: NodeId, port: Port) -> &Link {
        &self.links[node.0 as usize][port.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    fn two_node_fabric() -> Fabric {
        Fabric::new(Dims::mesh(2, 1, 1), FabricConfig::default())
    }

    fn msg(src: u32, dst: u32, bytes: u64, tag: u64) -> NetMessage<()> {
        NetMessage {
            src: NodeId(src),
            dst: NodeId(dst),
            payload_bytes: bytes,
            tag,
            body: (),
        }
    }

    #[test]
    fn single_hop_small_message_timing() {
        let mut f = two_node_fabric();
        let d = f.send(SimTime::ZERO, msg(0, 1, 8, 1));
        assert_eq!(d.hops, 1);
        // One packet: starts at 0, link occupied 25.6ns, + 50ns hop.
        let pkt = SimTime::from_ps(25_600);
        let hop = SimTime::from_ns(50);
        assert_eq!(d.complete_at, pkt + hop);
        assert_eq!(d.header_at, hop + pkt);
    }

    #[test]
    fn header_arrives_before_completion_for_large_messages() {
        let mut f = two_node_fabric();
        let d = f.send(SimTime::ZERO, msg(0, 1, 1 << 20, 1));
        assert!(d.header_at < d.complete_at);
        // A 1 MiB message at 2.5 GB/s takes ~420 us on the wire.
        let wire_us = d.complete_at.as_us_f64();
        assert!((415.0..430.0).contains(&wire_us), "wire time {wire_us} us");
    }

    #[test]
    fn loopback_does_not_touch_links() {
        let mut f = two_node_fabric();
        let d = f.send(SimTime::from_ns(10), msg(0, 0, 4096, 1));
        assert_eq!(d.hops, 0);
        assert_eq!(d.complete_at, SimTime::from_ns(110));
        assert_eq!(f.link(NodeId(0), Port::XPlus).packets_carried(), 0);
    }

    #[test]
    fn same_path_messages_deliver_in_order() {
        let mut f = Fabric::new(Dims::torus(4, 4, 4), FabricConfig::default());
        let mut last_complete = SimTime::ZERO;
        let mut last_header = SimTime::ZERO;
        for i in 0..20 {
            let d = f.send(SimTime::ZERO, msg(0, 63, 1000 + i, i));
            assert!(d.header_at > last_header, "header order violated at {i}");
            assert!(
                d.complete_at > last_complete,
                "completion order violated at {i}"
            );
            last_header = d.header_at;
            last_complete = d.complete_at;
        }
    }

    #[test]
    fn contention_delays_second_flow() {
        // Two sources share the link into node 2 of a 3-long chain:
        // 0 -> 1 -> 2 and 1 -> 2. Saturate 1->2 with a big message from 0,
        // then a message injected at node 1 must wait.
        let dims = Dims::mesh(3, 1, 1);
        let mut f = Fabric::new(dims, FabricConfig::default());
        let big = f.send(SimTime::ZERO, msg(0, 2, 1 << 20, 1));
        let small = f.send(SimTime::ZERO, msg(1, 2, 64, 2));
        assert!(
            small.complete_at > big.complete_at - SimTime::from_us(10),
            "small message should queue behind the bulk transfer"
        );
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let dims = Dims::mesh(2, 2, 1);
        let mut f = Fabric::new(dims, FabricConfig::default());
        let a = f.send(SimTime::ZERO, msg(0, 1, 1 << 20, 1));
        // 2 -> 3 uses completely different links.
        let b = f.send(SimTime::ZERO, msg(2, 3, 1 << 20, 2));
        assert_eq!(a.complete_at, b.complete_at);
    }

    #[test]
    fn hop_latency_accumulates_with_distance() {
        let dims = Dims::mesh(8, 1, 1);
        let mut f = Fabric::new(dims, FabricConfig::default());
        let near = f.send(SimTime::ZERO, msg(0, 1, 8, 1));
        let mut f2 = Fabric::new(dims, FabricConfig::default());
        let far = f2.send(SimTime::ZERO, msg(0, 7, 8, 2));
        assert_eq!(far.hops, 7);
        let delta = far.complete_at - near.complete_at;
        // Six extra hops: 6 * (50ns + serialization of the single packet).
        assert!(delta >= SimTime::from_ns(300), "delta {delta}");
    }

    #[test]
    fn stats_accumulate() {
        let mut f = two_node_fabric();
        f.send(SimTime::ZERO, msg(0, 1, 100, 1));
        f.send(SimTime::ZERO, msg(1, 0, 200, 2));
        assert_eq!(f.messages_sent(), 2);
        assert_eq!(f.bytes_sent(), 300);
        assert!(f.peak_link_utilization(SimTime::from_us(1)) > 0.0);
        assert_eq!(f.total_retries(), 0);
    }

    #[test]
    fn min_lookahead_bounds_every_delivery() {
        // Every delivery — loopback, neighbor, far corner, under
        // saturation — arrives at least `min_lookahead` after injection;
        // that bound is what makes conservative window parallelism
        // sound.
        let cfg = FabricConfig::default();
        let la = cfg.min_lookahead();
        assert!(la > SimTime::ZERO);
        let mut f = Fabric::new(Dims::torus(4, 4, 4), cfg);
        let inject = SimTime::from_us(3);
        for (src, dst, bytes) in [(5, 5, 64), (0, 1, 8), (0, 63, 1 << 20), (9, 62, 64)] {
            let d = f.send(inject, msg(src, dst, bytes, 7));
            assert!(
                d.header_at >= inject + la,
                "{src}->{dst} header {} breaks lookahead {la}",
                d.header_at
            );
        }
    }

    #[test]
    fn series_observe_without_perturbing_delivery() {
        let dims = Dims::mesh(3, 1, 1);
        let send_all = |f: &mut Fabric| {
            let a = f.send(SimTime::ZERO, msg(0, 2, 1 << 16, 1));
            let b = f.send(SimTime::ZERO, msg(1, 2, 64, 2));
            (a.complete_at, b.complete_at)
        };
        let mut plain = Fabric::new(dims, FabricConfig::default());
        let mut observed = Fabric::new(dims, FabricConfig::default());
        observed.enable_series(xt3_telemetry::SeriesConfig::default());
        assert_eq!(send_all(&mut plain), send_all(&mut observed));
        assert!(plain.series().is_none());
        let series = observed.series().unwrap();
        // Both injections counted; the contended link into node 2
        // carries both messages and saw the small one's stall.
        assert_eq!(series.node(0).unwrap().inject().total_msgs(), 1);
        assert_eq!(series.node(1).unwrap().inject().total_msgs(), 1);
        let contended = series.link(1, Port::XPlus.index() as u8).unwrap();
        assert_eq!(contended.msgs(), 2);
        assert!(contended.total_stall() > SimTime::ZERO);
        let hot = series.hotspots(1);
        assert_eq!((hot[0].node, hot[0].port), (1, Port::XPlus.index() as u8));
    }

    #[test]
    fn a_fabric_without_series_holds_none() {
        // The series are the fabric's one optional store: never enabled,
        // the field is an empty `Option` — no set, no lane — however much
        // is sent.
        let mut f = two_node_fabric();
        f.send(SimTime::ZERO, msg(0, 1, 4096, 1));
        assert!(f.series.is_none());
        f.enable_series(xt3_telemetry::SeriesConfig::default());
        f.send(SimTime::ZERO, msg(0, 1, 4096, 2));
        assert_eq!(f.series().map(|s| s.touched_nodes()), Some(1));
    }

    #[test]
    fn linkhop_records_carry_the_port() {
        let mut f = two_node_fabric();
        let mut causal = CausalLog::enabled();
        let mut sink = NullSink;
        f.send_full(SimTime::ZERO, msg(0, 1, 4096, 9), &mut sink, &mut causal);
        let hop = causal
            .records()
            .iter()
            .find(|r| r.stage == xt3_sim::CausalStage::LinkHop)
            .expect("hop recorded");
        assert_eq!(
            xt3_sim::linkhop_port(hop.info),
            Some(Port::XPlus.index() as u8)
        );
        assert_eq!(xt3_sim::linkhop_stall(hop.info), 0);
    }

    #[test]
    fn an_offloaded_fabric_settles_to_the_in_line_series_and_log() {
        // The same contended sends in line and through the consumer
        // thread: identical series, causal stream and fold once settled.
        let run = |offload: bool| {
            let mut f = Fabric::new(Dims::mesh(4, 1, 1), FabricConfig::default());
            f.enable_series(xt3_telemetry::SeriesConfig::default());
            let mut causal = CausalLog::enabled();
            if offload {
                f.offload(&mut causal);
            }
            for i in 0..5_000u64 {
                let at = SimTime::from_ns(i * 7);
                let (src, dst) = ((i % 3) as u32, 3);
                f.send_full(at, msg(src, dst, 4096, i + 1), &mut NullSink, &mut causal);
            }
            f.settle(&mut causal);
            let json = f.series().expect("series back").to_json();
            (json, causal.digest(), causal.fold().clone(), causal.made())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn red_storm_dims_helper() {
        let dims = Dims::red_storm(3, 2, 4);
        let f = Fabric::new(dims, FabricConfig::default());
        assert_eq!(f.dims().node_count(), 24);
        let c = Coord::new(0, 0, 3);
        assert_eq!(
            f.dims().neighbor(c, Port::ZPlus),
            Some(Coord::new(0, 0, 0)),
            "z wraps on red storm"
        );
    }
}
