//! Time-bucketed fabric series.
//!
//! Where the [`crate::Telemetry`] registry records *aggregate* link
//! statistics (counters, histograms, high-water gauges), the series
//! layer adds the **time dimension**: per-link utilization, queue
//! depth, and head-of-line-stall series in fixed [`SimTime`] buckets,
//! plus a per-node injection series for the firmware injection path.
//! This is what turns "link (3,1) x+ stalled for 1.2 ms total" into
//! "link (3,1) x+ melted between 40 µs and 90 µs".
//!
//! Memory discipline follows the full-machine rules (DESIGN.md §12):
//! the set holds one `Option<Box<NodeSeries>>` slot per node and
//! allocates a node's series only when traffic first touches it, so an
//! idle 10,368-node machine costs one pointer per node. A link's buckets
//! live in chunks of [`CHUNK`] allocated when first written — a link is
//! busy in bursts, and on the contended 512-node torus two thirds of the
//! buckets between its first and last transit stay zero — and are
//! clamped at [`SeriesConfig::max_buckets`]; activity past the clamp
//! accumulates into the final bucket so totals stay exact. Each link
//! also keeps a capped *occupancy log* of `(tag, arrival, start, done)`
//! tuples — the raw material the congestion attribution engine uses to
//! name the competing flows that caused a wait.
//!
//! Like telemetry and the causal log, the series are observation-only:
//! never folded into a machine fingerprint, recorded from values the
//! fabric already computed, drawing no randomness — so enabling them
//! cannot perturb replay digests. Because the parallel window driver
//! replays every send intent on the coordinator's single real fabric
//! in exact serial order, fabric-owned series are per-node lanes with
//! a trivially deterministic merge: the parallel run's series bytes
//! equal the serial run's.

use std::fmt::Write as _;

use xt3_sim::SimTime;

use crate::sink::Component;

/// Configuration for a [`SeriesSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Bucket width. Every series in the set shares it.
    pub bucket: SimTime,
    /// Cap on buckets per series; activity past `bucket * max_buckets`
    /// accumulates into the final bucket (totals stay exact).
    pub max_buckets: u32,
    /// Cap on stored occupancy entries per link; past it entries are
    /// counted in [`LinkSeries::occ_dropped`] but not stored.
    pub occupancy_cap: u32,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            bucket: SimTime::from_us(10),
            max_buckets: 4096,
            occupancy_cap: 64,
        }
    }
}

impl SeriesConfig {
    /// The bucket containing picosecond `at`; everything past the clamp
    /// belongs to the final bucket. Clamped before it is narrowed, so an
    /// instant `2^32` buckets out does not wrap to a low index.
    fn index(&self, at: u64) -> usize {
        let idx = at / self.bucket.ps().max(1);
        let last = (self.max_buckets as usize).saturating_sub(1);
        usize::try_from(idx).map_or(last, |idx| idx.min(last))
    }
}

/// One bucket of a link's series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkBucket {
    /// Serialization time overlapping this bucket (utilization = busy
    /// over bucket width).
    pub busy_ps: u64,
    /// Waiting time overlapping this bucket: the time-integral of the
    /// head-of-line queue, so depth = queued over bucket width.
    pub queued_ps: u64,
    /// Total head-of-line stall of messages arriving in this bucket.
    pub stall_ps: u64,
    /// Messages arriving at this link in this bucket.
    pub msgs: u64,
    /// Packets those messages carried.
    pub packets: u64,
}

impl LinkBucket {
    fn is_zero(&self) -> bool {
        self.busy_ps == 0
            && self.queued_ps == 0
            && self.stall_ps == 0
            && self.msgs == 0
            && self.packets == 0
    }
}

/// One stored link transit: who held or waited for the link, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Message tag (= trace id) of the transit.
    pub tag: u64,
    /// When the header reached this hop.
    pub arrival: SimTime,
    /// When it started serializing (arrival..start is the HOL wait).
    pub start: SimTime,
    /// When the last packet left the link.
    pub done: SimTime,
}

/// Buckets per chunk of a link's store (160 B). Small on purpose: on the
/// uncontended full machine a link sees two to four buckets in a run, and
/// a chunk of sixteen cost it 1,000 B a node more than the dense vector
/// did; the contended torus is as sparse at four as at sixteen.
const CHUNK: usize = 4;

/// A link's buckets: `chunks[idx / CHUNK][idx % CHUNK]`, a chunk
/// allocated when one of its buckets is first written.
#[derive(Debug, Default)]
struct Buckets {
    chunks: Vec<Option<Box<[LinkBucket; CHUNK]>>>,
    /// One past the highest bucket written.
    len: usize,
}

impl Buckets {
    fn at(&mut self, idx: usize) -> &mut LinkBucket {
        self.len = self.len.max(idx + 1);
        if self.chunks.len() <= idx / CHUNK {
            self.chunks.resize_with(idx / CHUNK + 1, || None);
        }
        let chunk = self.chunks[idx / CHUNK].get_or_insert_with(Default::default);
        &mut chunk[idx % CHUNK]
    }

    /// `(index, bucket)` over the allocated chunks, in index order.
    fn written(&self) -> impl Iterator<Item = (usize, &LinkBucket)> + '_ {
        let chunks = self.chunks.iter().enumerate();
        chunks
            .filter_map(|(c, chunk)| Some((c, chunk.as_deref()?)))
            .flat_map(|(c, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .map(move |(i, b)| (c * CHUNK + i, b))
            })
    }
}

/// Time-bucketed series for one directed link.
#[derive(Debug, Default)]
pub struct LinkSeries {
    buckets: Buckets,
    occupancy: Vec<Occupancy>,
    occ_dropped: u64,
    total_stall_ps: u64,
    total_busy_ps: u64,
    msgs: u64,
    packets: u64,
}

impl LinkSeries {
    /// Every bucket from 0 to the last one written, in order (zero
    /// where nothing was recorded).
    pub fn buckets(&self) -> impl Iterator<Item = LinkBucket> + '_ {
        let zero = [LinkBucket::default(); CHUNK];
        let chunks = self.buckets.chunks.iter();
        chunks
            .flat_map(move |chunk| chunk.as_deref().copied().unwrap_or(zero))
            .take(self.buckets.len)
    }

    /// Stored occupancy entries, in transit order.
    pub fn occupancy(&self) -> &[Occupancy] {
        &self.occupancy
    }

    /// Occupancy entries dropped past the cap.
    pub fn occ_dropped(&self) -> u64 {
        self.occ_dropped
    }

    /// Total head-of-line stall across the whole run.
    pub fn total_stall(&self) -> SimTime {
        SimTime::from_ps(self.total_stall_ps)
    }

    /// Total serialization time across the whole run.
    pub fn total_busy(&self) -> SimTime {
        SimTime::from_ps(self.total_busy_ps)
    }

    /// Messages carried.
    pub fn msgs(&self) -> u64 {
        self.msgs
    }

    /// Packets carried.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    fn is_empty(&self) -> bool {
        self.msgs == 0
    }
}

/// One bucket of a node's injection series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectBucket {
    /// Messages the node's firmware handed to the fabric this bucket.
    pub msgs: u64,
    /// Payload bytes across those messages.
    pub bytes: u64,
}

/// Per-node injection-path series.
#[derive(Debug, Default)]
pub struct InjectSeries {
    buckets: Vec<InjectBucket>,
    total_msgs: u64,
    total_bytes: u64,
}

impl InjectSeries {
    /// The bucket vector, dense from bucket 0 to the last touched one.
    pub fn buckets(&self) -> &[InjectBucket] {
        &self.buckets
    }

    /// Total messages injected.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// Total payload bytes injected.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// All series lanes owned by one node: six directed links plus the
/// injection series.
#[derive(Debug, Default)]
pub struct NodeSeries {
    links: [LinkSeries; 6],
    inject: InjectSeries,
}

impl NodeSeries {
    /// The series for one router port (0..6).
    pub fn link(&self, port: u8) -> &LinkSeries {
        &self.links[port as usize]
    }

    /// The injection-path series.
    pub fn inject(&self) -> &InjectSeries {
        &self.inject
    }
}

/// One entry of a top-k hotspot ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hotspot {
    /// Node owning the link.
    pub node: u32,
    /// Router port (0..6).
    pub port: u8,
    /// Total head-of-line stall suffered entering this link.
    pub stall: SimTime,
    /// Total serialization time on this link.
    pub busy: SimTime,
    /// Messages carried.
    pub msgs: u64,
}

/// The demand-allocated set of per-node series lanes for a machine.
#[derive(Debug)]
pub struct SeriesSet {
    config: SeriesConfig,
    nodes: Vec<Option<Box<NodeSeries>>>,
}

impl SeriesSet {
    /// An empty set for `nodes` nodes: one pointer slot per node, no
    /// lane allocated until traffic touches it.
    pub fn new(nodes: usize, config: SeriesConfig) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(nodes, || None);
        SeriesSet {
            config,
            nodes: slots,
        }
    }

    /// The configuration the set was built with.
    pub fn config(&self) -> &SeriesConfig {
        &self.config
    }

    /// The start of bucket `idx`.
    pub fn bucket_start(&self, idx: u32) -> SimTime {
        self.config.bucket * idx as u64
    }

    /// A node's lanes, if traffic has touched it.
    pub fn node(&self, node: u32) -> Option<&NodeSeries> {
        self.nodes.get(node as usize).and_then(|s| s.as_deref())
    }

    /// One link's series, if traffic has touched it.
    pub fn link(&self, node: u32, port: u8) -> Option<&LinkSeries> {
        self.node(node).map(|n| n.link(port))
    }

    /// Number of node slots (the machine's node count).
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// How many nodes have an allocated lane.
    pub fn touched_nodes(&self) -> usize {
        self.nodes.iter().filter(|s| s.is_some()).count()
    }

    fn lane(&mut self, node: u32) -> &mut NodeSeries {
        self.nodes[node as usize].get_or_insert_with(Default::default)
    }

    /// Record one firmware injection on `node` at `at`.
    pub fn record_inject(&mut self, node: u32, at: SimTime, bytes: u64) {
        let idx = self.config.index(at.ps());
        let inject = &mut self.lane(node).inject;
        if inject.buckets.len() <= idx {
            inject.buckets.resize(idx + 1, InjectBucket::default());
        }
        inject.buckets[idx].msgs += 1;
        inject.buckets[idx].bytes += bytes;
        inject.total_msgs += 1;
        inject.total_bytes += bytes;
    }

    /// Record one link transit on `node`'s router port `port`: the
    /// [`Occupancy`] carries the header arrival, serialization start
    /// (the gap is the HOL stall) and last-packet departure times.
    pub fn record_hop(&mut self, node: u32, port: u8, occ: Occupancy, packets: u64) {
        let cfg = self.config;
        let link = &mut self.lane(node).links[port as usize];

        let stall = occ.start.saturating_sub(occ.arrival).ps();
        let b = link.buckets.at(cfg.index(occ.arrival.ps()));
        b.stall_ps += stall;
        b.msgs += 1;
        b.packets += packets;

        let (arrival, start, done) = (occ.arrival.ps(), occ.start.ps(), occ.done.ps());
        spread(&mut link.buckets, &cfg, arrival, start, |b, ps| {
            b.queued_ps += ps;
        });
        spread(&mut link.buckets, &cfg, start, done, |b, ps| {
            b.busy_ps += ps;
        });

        link.total_stall_ps += stall;
        link.total_busy_ps += occ.done.saturating_sub(occ.start).ps();
        link.msgs += 1;
        link.packets += packets;

        if link.occupancy.len() < cfg.occupancy_cap as usize {
            link.occupancy.push(occ);
        } else {
            link.occ_dropped += 1;
        }
    }

    /// The `k` links with the most total head-of-line stall, ordered by
    /// stall descending then `(node, port)` ascending — a deterministic
    /// total order.
    pub fn hotspots(&self, k: usize) -> Vec<Hotspot> {
        let mut all: Vec<Hotspot> = Vec::new();
        for (node, slot) in self.nodes.iter().enumerate() {
            let Some(lanes) = slot else { continue };
            for (port, link) in lanes.links.iter().enumerate() {
                if link.is_empty() {
                    continue;
                }
                all.push(Hotspot {
                    node: node as u32,
                    port: port as u8,
                    stall: link.total_stall(),
                    busy: link.total_busy(),
                    msgs: link.msgs,
                });
            }
        }
        all.sort_by_key(|h| (std::cmp::Reverse(h.stall), h.node, h.port));
        all.truncate(k);
        all
    }

    /// Deterministic JSON rendering: only touched nodes, only non-empty
    /// links, only non-zero buckets (each tagged with its index). Byte
    /// equality of two renderings is the series bit-identity check used
    /// by the serial/parallel differential tests.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"bucket_ps\":{},\"max_buckets\":{},\"nodes\":[",
            self.config.bucket.ps(),
            self.config.max_buckets
        );
        let mut first_node = true;
        for (node, slot) in self.nodes.iter().enumerate() {
            let Some(lanes) = slot else { continue };
            if !first_node {
                out.push(',');
            }
            first_node = false;
            let _ = write!(out, "{{\"node\":{node},\"inject\":[");
            let mut first = true;
            for (idx, b) in lanes.inject.buckets.iter().enumerate() {
                if b.msgs == 0 && b.bytes == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{},{}]", idx, b.msgs, b.bytes);
            }
            out.push_str("],\"links\":[");
            let mut first_link = true;
            for (port, link) in lanes.links.iter().enumerate() {
                if link.is_empty() {
                    continue;
                }
                if !first_link {
                    out.push(',');
                }
                first_link = false;
                let _ = write!(
                    out,
                    "{{\"port\":{},\"name\":\"{}\",\"msgs\":{},\"packets\":{},\"stall_ps\":{},\"busy_ps\":{},\"occ_dropped\":{},\"buckets\":[",
                    port,
                    Component::Link(port as u8).track_name(),
                    link.msgs,
                    link.packets,
                    link.total_stall_ps,
                    link.total_busy_ps,
                    link.occ_dropped,
                );
                let mut first_bucket = true;
                for (idx, b) in link.buckets.written() {
                    if b.is_zero() {
                        continue;
                    }
                    if !first_bucket {
                        out.push(',');
                    }
                    first_bucket = false;
                    let _ = write!(
                        out,
                        "[{},{},{},{},{},{}]",
                        idx, b.busy_ps, b.queued_ps, b.stall_ps, b.msgs, b.packets
                    );
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Distribute the interval `[from, to)` (picoseconds) over fixed-width
/// buckets: whatever falls past the clamp piles into the final bucket so
/// the distributed total is exact.
fn spread(
    buckets: &mut Buckets,
    cfg: &SeriesConfig,
    from: u64,
    to: u64,
    mut add: impl FnMut(&mut LinkBucket, u64),
) {
    let Some(last) = (cfg.max_buckets as usize).checked_sub(1) else {
        return;
    };
    let width = cfg.bucket.ps().max(1);
    let (mut cur, mut idx) = (from, cfg.index(from));
    while cur < to {
        let end = if idx == last {
            to
        } else {
            to.min((idx as u64 + 1) * width)
        };
        add(buckets.at(idx), end - cur);
        (cur, idx) = (end, idx + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bucket_us: u64, max: u32) -> SeriesConfig {
        SeriesConfig {
            bucket: SimTime::from_us(bucket_us),
            max_buckets: max,
            occupancy_cap: 4,
        }
    }

    #[test]
    fn lanes_are_demand_allocated() {
        let mut s = SeriesSet::new(100, SeriesConfig::default());
        assert_eq!(s.touched_nodes(), 0);
        s.record_inject(7, SimTime::from_us(3), 64);
        assert_eq!(s.touched_nodes(), 1);
        assert!(s.node(7).is_some());
        assert!(s.node(8).is_none());
    }

    #[test]
    fn hop_spreads_busy_and_queue_across_buckets() {
        let mut s = SeriesSet::new(4, cfg(10, 16));
        // Arrive at 5 µs, wait until 15 µs, serialize until 32 µs.
        s.record_hop(
            1,
            0,
            Occupancy {
                tag: 42,
                arrival: SimTime::from_us(5),
                start: SimTime::from_us(15),
                done: SimTime::from_us(32),
            },
            9,
        );
        let link = s.link(1, 0).unwrap();
        let b: Vec<LinkBucket> = link.buckets().collect();
        // Queue: 5 µs in bucket 0, 5 µs in bucket 1.
        assert_eq!(b[0].queued_ps, SimTime::from_us(5).ps());
        assert_eq!(b[1].queued_ps, SimTime::from_us(5).ps());
        // Busy: 5 µs in bucket 1, 10 µs in bucket 2, 2 µs in bucket 3.
        assert_eq!(b[1].busy_ps, SimTime::from_us(5).ps());
        assert_eq!(b[2].busy_ps, SimTime::from_us(10).ps());
        assert_eq!(b[3].busy_ps, SimTime::from_us(2).ps());
        // Stall and message count land in the arrival bucket.
        assert_eq!(b[0].stall_ps, SimTime::from_us(10).ps());
        assert_eq!(b[0].msgs, 1);
        assert_eq!(b[0].packets, 9);
        assert_eq!(link.total_stall(), SimTime::from_us(10));
        assert_eq!(link.total_busy(), SimTime::from_us(17));
    }

    #[test]
    fn clamped_buckets_keep_totals_exact() {
        let mut s = SeriesSet::new(1, cfg(10, 2));
        s.record_hop(
            0,
            2,
            Occupancy {
                tag: 1,
                arrival: SimTime::from_us(50),
                start: SimTime::from_us(55),
                done: SimTime::from_us(90),
            },
            1,
        );
        let link = s.link(0, 2).unwrap();
        assert_eq!(link.buckets().count(), 2);
        let spread_busy: u64 = link.buckets().map(|b| b.busy_ps).sum();
        let spread_queue: u64 = link.buckets().map(|b| b.queued_ps).sum();
        assert_eq!(spread_busy, link.total_busy().ps());
        assert_eq!(spread_queue, SimTime::from_us(5).ps());
    }

    #[test]
    fn index_clamps_before_it_narrows() {
        // 1 ns buckets: 2^32 + 3 buckets out is 4.3 s, not bucket 3.
        let cfg = SeriesConfig {
            bucket: SimTime::NS,
            max_buckets: 4096,
            occupancy_cap: 4,
        };
        let far = SimTime::from_ns((1 << 32) + 3);
        assert_eq!(cfg.index(SimTime::from_ns(4094).ps()), 4094);
        assert_eq!(cfg.index(SimTime::from_ns(4095).ps()), 4095);
        assert_eq!(cfg.index(SimTime::from_ns(4096).ps()), 4095);
        assert_eq!(cfg.index(far.ps()), 4095);
        assert_eq!(cfg.index(u64::MAX), 4095);
        // Injections, arrivals and spread intervals all land there.
        let mut s = SeriesSet::new(1, cfg);
        s.record_inject(0, far, 8);
        let occ = Occupancy {
            tag: 1,
            arrival: far,
            start: far + SimTime::NS,
            done: far + SimTime::from_ns(3),
        };
        s.record_hop(0, 0, occ, 1);
        let lanes = s.node(0).unwrap();
        assert_eq!(lanes.inject().buckets().len(), 4096);
        assert_eq!(lanes.inject().buckets()[4095].msgs, 1);
        let last = lanes.link(0).buckets().last().unwrap();
        assert_eq!(lanes.link(0).buckets().count(), 4096);
        assert_eq!((last.msgs, last.queued_ps, last.busy_ps), (1, 1000, 2000));
    }

    #[test]
    fn occupancy_log_caps_and_counts_drops() {
        let mut s = SeriesSet::new(1, cfg(10, 16));
        for i in 0..6u64 {
            let t = SimTime::from_us(i);
            s.record_hop(
                0,
                0,
                Occupancy {
                    tag: i + 1,
                    arrival: t,
                    start: t,
                    done: t + SimTime::from_ns(100),
                },
                1,
            );
        }
        let link = s.link(0, 0).unwrap();
        assert_eq!(link.occupancy().len(), 4);
        assert_eq!(link.occ_dropped(), 2);
        assert_eq!(link.occupancy()[0].tag, 1);
    }

    #[test]
    fn hotspots_rank_by_stall_deterministically() {
        let mut s = SeriesSet::new(4, cfg(10, 16));
        let z = SimTime::ZERO;
        let us = SimTime::from_us;
        let occ = |tag, start, done| Occupancy {
            tag,
            arrival: z,
            start,
            done,
        };
        s.record_hop(2, 1, occ(1, us(3), us(4)), 1); // stall 3 µs
        s.record_hop(0, 0, occ(2, us(7), us(8)), 1); // stall 7 µs
        s.record_hop(3, 5, occ(3, us(3), us(4)), 1); // stall 3 µs (ties node 2)
        let top = s.hotspots(2);
        assert_eq!((top[0].node, top[0].port), (0, 0));
        assert_eq!((top[1].node, top[1].port), (2, 1));
        assert_eq!(s.hotspots(10).len(), 3);
    }

    #[test]
    fn json_is_deterministic_and_sparse() {
        let build = || {
            let mut s = SeriesSet::new(8, cfg(10, 64));
            s.record_inject(3, SimTime::from_us(1), 4096);
            s.record_hop(
                3,
                1,
                Occupancy {
                    tag: 9,
                    arrival: SimTime::from_us(1),
                    start: SimTime::from_us(2),
                    done: SimTime::from_us(3),
                },
                2,
            );
            s
        };
        let a = build().to_json();
        let b = build().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"node\":3"));
        assert!(!a.contains("\"node\":0"));
        assert!(a.contains("\"name\":\"link X-\""));
    }
}
