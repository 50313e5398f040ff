//! Time-bucketed fabric series.
//!
//! Where each link keeps *aggregate* statistics (packets, retries, busy
//! and stall totals) and the [`crate::Telemetry`] registry its busy
//! spans, the series layer adds the **time dimension**: per-link
//! utilization, queue depth, and head-of-line-stall series in fixed
//! [`SimTime`] buckets, plus a per-node injection series for the
//! firmware injection path.
//! This is what turns "link (3,1) x+ stalled for 1.2 ms total" into
//! "link (3,1) x+ melted between 40 µs and 90 µs".
//!
//! Memory discipline follows the full-machine rules (DESIGN.md §12):
//! the set holds one `Option<Box<NodeSeries>>` slot per node and
//! allocates a node's series only when traffic first touches it, so an
//! idle 10,368-node machine costs one pointer per node. A series keeps
//! only the buckets something was recorded in, as one run of
//! `(bucket index, bucket)` sorted by index (private `Run`) — a link is
//! busy in bursts, and on the contended 512-node torus two thirds of the
//! buckets between its first and last transit stay zero. A bucket keeps
//! each field's low 32 bits (a link bucket is 24 bytes with its index);
//! a field that passes `u32::MAX` carries into a side table by the
//! `xt3_sim::narrow` rule, so every bucket reads back exact. Time moves
//! forward, so a write lands on the run's tail or appends to it; only a
//! wait that reaches back behind the tail searches, and rarely inserts.
//! Indices are clamped at [`SeriesConfig::max_buckets`]; activity past
//! the clamp accumulates into the final bucket so totals stay exact.
//! Each link also keeps a capped *occupancy log* of `(tag, arrival,
//! start, done)` tuples — the raw material the congestion attribution
//! engine uses to name the competing flows that caused a wait — each in
//! 24 bytes by the same rule: the wait and the transit as `u32`s of
//! picoseconds, whatever passes them in the link's side table.
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

use xt3_sim::narrow::{self, join, split, Spill};
use xt3_sim::SimTime;

use crate::sink::Component;

/// Configuration for a [`SeriesSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Bucket width. Every series in the set shares it.
    pub bucket: SimTime,
    /// Cap on buckets per series; activity past `bucket * max_buckets`
    /// accumulates into the final bucket (totals stay exact). A series
    /// cannot have no bucket: 0 means 1.
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
    fn index(&self, at: u64) -> u32 {
        let idx = at / self.bucket.ps().max(1);
        u32::try_from(idx).map_or(self.last(), |idx| idx.min(self.last()))
    }

    /// The final bucket, where everything past the clamp accumulates.
    fn last(&self) -> u32 {
        self.max_buckets.max(1) - 1
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
    /// Field numbers in a link [`Run`], in `to_json` order.
    const BUSY: usize = 0;
    const QUEUED: usize = 1;
    const STALL: usize = 2;
    const MSGS: usize = 3;
    const PACKETS: usize = 4;

    fn from_fields([busy_ps, queued_ps, stall_ps, msgs, packets]: [u64; 5]) -> Self {
        LinkBucket {
            busy_ps,
            queued_ps,
            stall_ps,
            msgs,
            packets,
        }
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

/// An [`Occupancy`] as a link keeps it: `start - arrival` and
/// `done - start` (wrapping) by their low 32 bits; their high bits, when
/// any is set, are the entry's row in the link's spill, keyed by its
/// position in the log.
#[derive(Debug, Clone, Copy)]
struct StoredOcc {
    tag: u64,
    arrival: SimTime,
    wait: u32,
    transit: u32,
}

impl StoredOcc {
    /// `occ` packed, with the high words its spill row must hold.
    fn pack(occ: Occupancy) -> (Self, [u32; 2]) {
        let (arrival, start, done) = (occ.arrival.ps(), occ.start.ps(), occ.done.ps());
        let (wait, wait_high) = split(start.wrapping_sub(arrival), 32);
        let (transit, transit_high) = split(done.wrapping_sub(start), 32);
        let stored = StoredOcc {
            tag: occ.tag,
            arrival: occ.arrival,
            wait,
            transit,
        };
        (stored, [wait_high, transit_high])
    }

    fn unpack(&self, [wait_high, transit_high]: [u32; 2]) -> Occupancy {
        let start = self
            .arrival
            .ps()
            .wrapping_add(join(self.wait, wait_high, 32));
        let done = start.wrapping_add(join(self.transit, transit_high, 32));
        Occupancy {
            tag: self.tag,
            arrival: self.arrival,
            start: SimTime::from_ps(start),
            done: SimTime::from_ps(done),
        }
    }
}

/// A link's stored occupancy entries, in transit order: a borrowed view
/// that unpacks each entry as it is read.
#[derive(Debug, Clone, Copy)]
pub struct Occupancies<'a> {
    stored: &'a [StoredOcc],
    spill: &'a Spill<2>,
}

impl<'a> Occupancies<'a> {
    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// Were no entries stored?
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Entry `idx`, if stored.
    pub fn get(&self, idx: usize) -> Option<Occupancy> {
        // Positions are below `SeriesConfig::occupancy_cap`, a `u32`.
        let stored = self.stored.get(idx)?;
        Some(stored.unpack(self.spill.get(idx as u32)))
    }

    /// Every entry, in transit order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Occupancy> + 'a {
        let spill = self.spill;
        let stored = self.stored.iter().enumerate();
        stored.map(move |(idx, s)| s.unpack(spill.get(idx as u32)))
    }
}

/// The buckets of one series that hold anything, sorted by index, each
/// as its index and the low 32 bits of its `N` fields; a field's high
/// bits, once it passes `u32::MAX`, are the bucket's row in `spill`. A
/// bucket enters the run when something is first added to it and every
/// caller of [`Run::add`] adds a non-zero amount to one of its fields,
/// so the run holds exactly the non-zero buckets.
#[derive(Debug)]
struct Run<const N: usize> {
    held: Vec<(u32, [u32; N])>,
    spill: Spill<N>,
}

impl<const N: usize> Default for Run<N> {
    fn default() -> Self {
        Run {
            held: Vec::new(),
            spill: Spill::default(),
        }
    }
}

impl<const N: usize> Run<N> {
    /// Where bucket `idx` is, or where it would be entered. Time moves
    /// forward, so `idx` is the tail bucket or past it unless a wait
    /// reaches back; behind the tail a busy link's run is unbroken, so
    /// the position `idx` would have in an unbroken run is tried before
    /// searching.
    fn locate(&self, idx: u32) -> usize {
        let Some(&(tail, _)) = self.held.last() else {
            return 0;
        };
        if idx > tail {
            return self.held.len();
        }
        let unbroken = (self.held.len() - 1).checked_sub((tail - idx) as usize);
        match unbroken {
            Some(pos) if self.held[pos].0 == idx => pos,
            _ => self
                .held
                .binary_search_by_key(&idx, |&(at, _)| at)
                .unwrap_or_else(|pos| pos),
        }
    }

    /// Add `deltas` to the fields of bucket `idx`, which is or belongs
    /// at position `pos` ([`Run::locate`]; the bucket after it is or
    /// belongs at `pos + 1`), entered empty if the run does not hold it
    /// yet.
    #[inline]
    fn add<const K: usize>(&mut self, pos: usize, idx: u32, deltas: [(usize, u64); K]) {
        if self.held.get(pos).map(|&(at, _)| at) != Some(idx) {
            self.enter(pos, idx);
        }
        let low = &mut self.held[pos].1;
        for (field, delta) in deltas {
            narrow::add(low, &mut self.spill, idx, field, delta);
        }
    }

    /// Enter an empty bucket `idx` at position `pos`. A full run doubles
    /// while it is short and grows by a quarter from 64 buckets on: a
    /// machine holds thousands of runs of a few hundred buckets, all live
    /// at its peak, so doubling left a third of their capacity empty (8 MB
    /// on the contended 512-node torus) — and growing copies the run, so
    /// an eighth at a time, 1.2 MB tighter still, cost that machine 3 %
    /// of its pass in `memcpy`.
    #[inline(never)]
    fn enter(&mut self, pos: usize, idx: u32) {
        if self.held.len() == self.held.capacity() {
            let len = self.held.len();
            let more = if len < 64 { len.max(4) } else { len / 4 };
            self.held.reserve_exact(more);
        }
        self.held.insert(pos, (idx, [0; N]));
    }

    /// Add `deltas` to the fields of bucket `idx`, wherever it is.
    fn add_at<const K: usize>(&mut self, idx: u32, deltas: [(usize, u64); K]) {
        self.add(self.locate(idx), idx, deltas);
    }

    /// `(index, fields)` of every bucket held, in index order.
    fn iter(&self) -> impl Iterator<Item = (u32, [u64; N])> + '_ {
        self.held.iter().map(|&(idx, low)| {
            let high = self.spill.get(idx);
            (idx, std::array::from_fn(|f| join(low[f], high[f], 32)))
        })
    }

    /// Every bucket from 0 to the last one held, zero where the run
    /// holds none.
    fn dense(&self) -> impl Iterator<Item = [u64; N]> + '_ {
        let len = self.held.last().map_or(0, |&(last, _)| last + 1);
        let mut held = self.iter().peekable();
        (0..len).map(move |idx| {
            let here = held.next_if(|&(at, _)| at == idx);
            here.map_or([0; N], |(_, fields)| fields)
        })
    }
}

/// Time-bucketed series for one directed link.
#[derive(Debug, Default)]
pub struct LinkSeries {
    buckets: Run<5>,
    occupancy: Vec<StoredOcc>,
    /// High words of the occupancy entries that did not fit.
    occ_spill: Spill<2>,
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
        self.buckets.dense().map(LinkBucket::from_fields)
    }

    /// Stored occupancy entries, in transit order.
    pub fn occupancy(&self) -> Occupancies<'_> {
        Occupancies {
            stored: &self.occupancy,
            spill: &self.occ_spill,
        }
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

impl InjectBucket {
    /// Field numbers in an injection [`Run`], in `to_json` order.
    const MSGS: usize = 0;
    const BYTES: usize = 1;
}

/// Per-node injection-path series.
#[derive(Debug, Default)]
pub struct InjectSeries {
    buckets: Run<2>,
    total_msgs: u64,
    total_bytes: u64,
}

impl InjectSeries {
    /// Every bucket from 0 to the last touched one, in order (zero
    /// where nothing was injected).
    pub fn buckets(&self) -> impl Iterator<Item = InjectBucket> + '_ {
        let bucket = |[msgs, bytes]: [u64; 2]| InjectBucket { msgs, bytes };
        self.buckets.dense().map(bucket)
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
        let deltas = [(InjectBucket::MSGS, 1), (InjectBucket::BYTES, bytes)];
        inject.buckets.add_at(idx, deltas);
        inject.total_msgs += 1;
        inject.total_bytes += bytes;
    }

    /// Record one link transit on `node`'s router port `port`: the
    /// [`Occupancy`] carries the header arrival, serialization start
    /// (the gap is the HOL stall) and last-packet departure times.
    pub fn record_hop(&mut self, node: u32, port: u8, occ: Occupancy, packets: u64) {
        let cfg = self.config;
        let link = &mut self.lane(node).links[port as usize];

        let (arrival, start, done) = (occ.arrival.ps(), occ.start.ps(), occ.done.ps());
        let stall = start.saturating_sub(arrival);
        let first = cfg.index(arrival);
        let pos = link.buckets.locate(first);
        let run = &mut link.buckets;
        let arrived = [
            (LinkBucket::STALL, stall),
            (LinkBucket::MSGS, 1),
            (LinkBucket::PACKETS, packets),
        ];
        run.add(pos, first, arrived);

        // One walk along the run: the wait starts in the arrival bucket
        // and the transit in the bucket the wait ended in.
        let at = spread::<{ LinkBucket::QUEUED }>(run, &cfg, (first, pos), arrival, start);
        spread::<{ LinkBucket::BUSY }>(run, &cfg, at, start, done);

        link.total_stall_ps += stall;
        link.total_busy_ps += occ.done.saturating_sub(occ.start).ps();
        link.msgs += 1;
        link.packets += packets;

        if link.occupancy.len() < cfg.occupancy_cap as usize {
            let (stored, high) = StoredOcc::pack(occ);
            link.occ_spill.set(link.occupancy.len() as u32, high);
            link.occupancy.push(stored);
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
    ///
    /// The document is sized first and written into a `String` of exactly
    /// that capacity: it runs to tens of megabytes on a contended
    /// machine, where growing it by doubling holds up to twice that.
    pub fn to_json(&self) -> String {
        let mut len = JsonLen(0);
        self.render(&mut len);
        let mut out = String::with_capacity(len.0);
        self.render(&mut out);
        out
    }

    fn render(&self, out: &mut impl JsonOut) {
        out.text("{\"bucket_ps\":");
        out.num(self.config.bucket.ps());
        out.text(",\"max_buckets\":");
        out.num(u64::from(self.config.max_buckets));
        out.text(",\"nodes\":[");
        let mut first_node = true;
        for (node, slot) in self.nodes.iter().enumerate() {
            let Some(lanes) = slot else { continue };
            out.text(if first_node { "" } else { "," });
            first_node = false;
            out.text("{\"node\":");
            out.num(node as u64);
            out.text(",\"inject\":[");
            for (i, (idx, [msgs, bytes])) in lanes.inject.buckets.iter().enumerate() {
                out.text(if i == 0 { "" } else { "," });
                out.row(&[u64::from(idx), msgs, bytes]);
            }
            out.text("],\"links\":[");
            let mut first_link = true;
            for (port, link) in lanes.links.iter().enumerate() {
                if link.is_empty() {
                    continue;
                }
                out.text(if first_link { "" } else { "," });
                first_link = false;
                out.text("{\"port\":");
                out.num(port as u64);
                out.text(",\"name\":\"");
                out.text(Component::Link(port as u8).track_name());
                for (key, value) in [
                    ("\",\"msgs\":", link.msgs),
                    (",\"packets\":", link.packets),
                    (",\"stall_ps\":", link.total_stall_ps),
                    (",\"busy_ps\":", link.total_busy_ps),
                    (",\"occ_dropped\":", link.occ_dropped),
                ] {
                    out.text(key);
                    out.num(value);
                }
                out.text(",\"buckets\":[");
                for (i, (idx, [busy, queued, stall, msgs, packets])) in
                    link.buckets.iter().enumerate()
                {
                    out.text(if i == 0 { "" } else { "," });
                    out.row(&[u64::from(idx), busy, queued, stall, msgs, packets]);
                }
                out.text("]}");
            }
            out.text("]}");
        }
        out.text("]}");
    }
}

/// What [`SeriesSet::render`] writes to: the document itself, or only
/// its length.
trait JsonOut {
    fn text(&mut self, text: &str);
    fn num(&mut self, value: u64);

    /// `[a,b,…]`.
    fn row(&mut self, values: &[u64]) {
        for (i, &value) in values.iter().enumerate() {
            self.text(if i == 0 { "[" } else { "," });
            self.num(value);
        }
        self.text("]");
    }
}

impl JsonOut for String {
    fn text(&mut self, text: &str) {
        self.push_str(text);
    }

    fn num(&mut self, value: u64) {
        let _ = write!(self, "{value}");
    }
}

/// The byte length of what was written.
struct JsonLen(usize);

impl JsonOut for JsonLen {
    fn text(&mut self, text: &str) {
        self.0 += text.len();
    }

    fn num(&mut self, value: u64) {
        self.0 += value
            .checked_ilog10()
            .map_or(1, |digits| digits as usize + 1);
    }
}

/// Distribute the interval `[from, to)` (picoseconds) over fixed-width
/// buckets: whatever falls past the clamp piles into the final bucket so
/// the distributed total is exact. `at` is a bucket the run holds, as
/// `(index, position)`, and the one `from` falls in unless `from` is
/// earlier; the bucket `to` falls in comes back the same way. The time
/// goes to field `FIELD` of each bucket.
fn spread<const FIELD: usize>(
    buckets: &mut Run<5>,
    cfg: &SeriesConfig,
    at: (u32, usize),
    from: u64,
    to: u64,
) -> (u32, usize) {
    let last = cfg.last();
    let width = cfg.bucket.ps().max(1);
    let (mut idx, mut pos) = at;
    if from < u64::from(idx) * width {
        idx = cfg.index(from);
        pos = buckets.locate(idx);
    }
    let mut cur = from;
    while cur < to {
        let edge = if idx == last {
            u64::MAX
        } else {
            (u64::from(idx) + 1) * width
        };
        let end = to.min(edge);
        buckets.add(pos, idx, [(FIELD, end - cur)]);
        cur = end;
        if end == edge {
            (idx, pos) = (idx + 1, pos + 1);
        }
    }
    (idx, pos)
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
    fn stored_entries_are_packed() {
        // A link bucket with its index, an injection bucket with its
        // index, an occupancy entry. DESIGN.md §9 quotes these.
        assert_eq!(std::mem::size_of::<(u32, [u32; 5])>(), 24);
        assert_eq!(std::mem::size_of::<(u32, [u32; 2])>(), 12);
        assert_eq!(std::mem::size_of::<StoredOcc>(), 24);
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
    fn a_clamp_of_zero_one_or_two_buckets_keeps_totals_exact() {
        // `max_buckets: 0` used to count messages and stall in bucket 0
        // and spread no busy or queued time at all.
        for max in [0, 1, 2] {
            let mut s = SeriesSet::new(1, cfg(10, max));
            for (tag, arrival) in [(1, 3), (2, 14), (3, 95)] {
                let at = SimTime::from_us(arrival);
                let occ = Occupancy {
                    tag,
                    arrival: at,
                    start: at + SimTime::from_us(4),
                    done: at + SimTime::from_us(30),
                };
                s.record_hop(0, 1, occ, 2);
                s.record_inject(0, at, 100);
            }
            let link = s.link(0, 1).unwrap();
            let sum = |field: fn(&LinkBucket) -> u64| link.buckets().map(|b| field(&b)).sum();
            assert_eq!(link.buckets().count(), max.max(1) as usize, "max {max}");
            assert_eq!(link.total_busy().ps(), sum(|b| b.busy_ps), "max {max}");
            assert_eq!(link.total_stall().ps(), sum(|b| b.stall_ps), "max {max}");
            assert_eq!(link.total_stall().ps(), sum(|b| b.queued_ps), "max {max}");
            assert_eq!(link.msgs(), sum(|b| b.msgs), "max {max}");
            let inject = s.node(0).unwrap().inject();
            let injected: u64 = inject.buckets().map(|b| b.msgs).sum();
            assert_eq!(inject.total_msgs(), injected, "max {max}");
        }
    }

    #[test]
    fn a_run_holds_only_what_was_written_in_index_order() {
        let mut run = Run::<2>::default();
        for idx in [9, 9, 4, 30, 4, 0, 12] {
            run.add_at(idx, [(InjectBucket::MSGS, 1)]);
        }
        let index: Vec<u32> = run.held.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(index, [0, 4, 9, 12, 30]);
        let msgs: Vec<u64> = run.iter().map(|(_, [msgs, _])| msgs).collect();
        assert_eq!(msgs, [1, 2, 2, 1, 1]);
        assert_eq!(run.dense().count(), 31);
        assert_eq!(run.dense().filter(|[msgs, _]| *msgs != 0).count(), 5);
        // A long run grows by a quarter, not by doubling.
        for idx in 31..1000 {
            run.add_at(idx, [(InjectBucket::MSGS, 1)]);
        }
        assert!(run.held.capacity() <= run.held.len() + run.held.len() / 4);
        assert!(run.spill.is_empty());
    }

    #[test]
    fn json_is_written_into_exactly_its_length() {
        let mut s = SeriesSet::new(3, cfg(10, 64));
        assert_eq!(s.to_json().capacity(), s.to_json().len());
        for i in 0..200u64 {
            let at = SimTime::from_ns(i * i * 977);
            let occ = Occupancy {
                tag: i,
                arrival: at,
                start: at + SimTime::from_ns(i * 1_000),
                done: at + SimTime::from_us(i + 1),
            };
            s.record_hop((i % 3) as u32, (i % 6) as u8, occ, i * 12_345);
            s.record_inject((i % 2) as u32, at, 10u64.pow((i % 19) as u32));
        }
        let json = s.to_json();
        assert_eq!(json.capacity(), json.len());
        assert!(crate::json::parse(&json).is_ok());
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
        assert_eq!(lanes.inject().buckets().count(), 4096);
        assert_eq!(lanes.inject().buckets().last().unwrap().msgs, 1);
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
        assert_eq!(link.occupancy().get(0).map(|o| o.tag), Some(1));
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
