//! Hotspot attribution: who lost time, where, when, and because of whom.
//!
//! The critical-path extractor ([`crate::critpath`]) already charges
//! head-of-line blocking to the [`CostClass::HopQueue`] class, but only
//! as one aggregate number per chain. This module turns the link-level
//! series ([`crate::series`]) into rows of the form *"flow F lost T ns on
//! link L during bucket B because of competing flows {G, H}"*
//! ([`attribute_occupancy`]), checked per link against the causal log's
//! fold ([`xt3_sim::ChainFold::hop_stalls`]) for a run of any length.
//! The tests also hold the rows to a row-level join of whole chains with
//! the series, and the fold to per-link totals over whole chains
//! (`crates/telemetry/tests/support/`):
//!
//! * **flow / lost** come from the chain's `HopQueue` segments, so the
//!   table inherits critpath's zero-residual discipline: the sum of
//!   every row's `lost` equals the aggregate hop-queueing class to the
//!   picosecond, by construction.
//! * **link** comes from the causal record the segment ends at — the
//!   record's `node` plus the router port packed into the high byte of
//!   its `info` field ([`xt3_sim::linkhop_info`]).
//! * **bucket** is the series bucket containing the start of the wait.
//! * **competitors** are the tags in the link's occupancy log whose
//!   transit overlaps the wait interval — the traffic the flow was
//!   actually queued behind.
//!
//! Everything is derived from deterministic inputs in deterministic
//! order, so rendering the same run twice is byte-identical.

use std::fmt::Write as _;

use xt3_sim::{SimTime, TraceId};

use crate::series::{Hotspot, Occupancy, SeriesSet};
use crate::sink::Component;

/// One attribution row: a flow's wait at one hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionRow {
    /// The flow (message trace id) that lost time.
    pub flow: TraceId,
    /// Node owning the link it waited at.
    pub node: u32,
    /// Router port of the link (`None` for causal logs recorded before
    /// port packing).
    pub port: Option<u8>,
    /// Series bucket containing the start of the wait.
    pub bucket: u32,
    /// When the wait began.
    pub wait_start: SimTime,
    /// How long the flow waited (the `HopQueue` segment duration).
    pub lost: SimTime,
    /// Tags of competing flows whose link transit overlapped the wait,
    /// in transit order, capped at `max_competitors`.
    pub competitors: Vec<u64>,
}

/// The full attribution table for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionTable {
    /// Bucket width the rows were bucketed with.
    pub bucket: SimTime,
    /// One row per `HopQueue` segment, in chain order.
    pub rows: Vec<AttributionRow>,
    /// Sum of every row's `lost`. Equals the chains' aggregate
    /// hop-queueing class exactly (zero residual by construction).
    pub total_lost: SimTime,
    /// Top-k links by total head-of-line stall (empty when no series
    /// were recorded).
    pub hotspots: Vec<Hotspot>,
}

impl CongestionTable {
    /// Render the per-flow attribution table as fixed-width text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10}  {:<14}  {:>6}  {:>12}  competitors",
            "flow", "link", "bucket", "lost-ns"
        );
        for row in &self.rows {
            let mut competitors = String::new();
            for (i, tag) in row.competitors.iter().enumerate() {
                if i > 0 {
                    competitors.push(',');
                }
                let _ = write!(competitors, "{tag:#x}");
            }
            if competitors.is_empty() {
                competitors.push('-');
            }
            let _ = writeln!(
                out,
                "{:>10}  {:<14}  {:>6}  {:>12.1}  {}",
                format!("{:#x}", row.flow.0),
                link_label(row.node, row.port),
                row.bucket,
                row.lost.as_ns_f64(),
                competitors
            );
        }
        let _ = writeln!(
            out,
            "{:>10}  {:<14}  {:>6}  {:>12.1}",
            "total",
            "",
            "",
            self.total_lost.as_ns_f64()
        );
        out
    }

    /// Render the top-k hotspot links as fixed-width text.
    pub fn render_hotspots_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14}  {:>12}  {:>12}  {:>8}",
            "link", "stall-ns", "busy-ns", "msgs"
        );
        for h in &self.hotspots {
            let _ = writeln!(
                out,
                "{:<14}  {:>12.1}  {:>12.1}  {:>8}",
                link_label(h.node, Some(h.port)),
                h.stall.as_ns_f64(),
                h.busy.as_ns_f64(),
                h.msgs
            );
        }
        out
    }

    /// Render the whole table (rows, total, hotspots) as deterministic
    /// JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"bucket_ps\":{},\"total_lost_ps\":{},\"rows\":[",
            self.bucket.ps(),
            self.total_lost.ps()
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"flow\":{},\"node\":{},\"port\":{},\"bucket\":{},\"wait_start_ps\":{},\"lost_ps\":{},\"competitors\":[",
                row.flow.0,
                row.node,
                row.port.map_or(-1, |p| p as i64),
                row.bucket,
                row.wait_start.ps(),
                row.lost.ps()
            );
            for (j, tag) in row.competitors.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{tag}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"hotspots\":[");
        for (i, h) in self.hotspots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{},\"port\":{},\"stall_ps\":{},\"busy_ps\":{},\"msgs\":{}}}",
                h.node,
                h.port,
                h.stall.ps(),
                h.busy.ps(),
                h.msgs
            );
        }
        out.push_str("]}");
        out
    }
}

impl CongestionTable {
    /// Sort rows into the canonical `(node, port, wait_start, flow)`
    /// order. [`attribute_occupancy`] emits rows in link order, a join
    /// over chains in delivery order; after canonicalization the two
    /// renders are byte-comparable.
    pub fn canonicalize(&mut self) {
        self.rows.sort_by_key(|r| {
            (
                r.node,
                r.port.map_or(-1, i16::from),
                r.wait_start,
                r.flow.0,
                r.lost,
            )
        });
    }
}

/// Build the attribution table from the fabric-owned series alone — no
/// causal log required. Rows are the stalled *data* crossings in the
/// occupancy logs (go-back-n control traffic, tag 0, never forms a row
/// but is still named as a competitor when it held the link).
///
/// On a clean run this reproduces, row for row, the join of the whole
/// log's chains with the series (after [`CongestionTable::canonicalize`]
/// on both): the stall the fabric packed into each `LinkHop` causal
/// record is the same `start − arrival` interval it logged in the
/// occupancy entry. And because the series ride on the real fabric —
/// which the parallel coordinator owns and feeds in exact serial order —
/// this table is bit-identical for any worker count, where the join
/// needs the serial causal log.
pub fn attribute_occupancy(
    series: &SeriesSet,
    top_k: usize,
    max_competitors: usize,
) -> CongestionTable {
    let cfg = series.config();
    let links = || {
        let nodes = (0..series.node_slots() as u32).filter_map(|n| Some((n, series.node(n)?)));
        nodes.flat_map(|(n, lanes)| (0..6u8).map(move |port| (n, port, lanes.link(port))))
    };
    // A stalled data crossing is a row. Counted first: on a contended
    // machine the table is megabytes, and grown by doubling it held half
    // as much again in spare capacity.
    let stalled = |occ: &&Occupancy| occ.tag != 0 && occ.start > occ.arrival;
    let count = links().map(|(_, _, link)| link.occupancy().iter().filter(stalled).count());
    let mut rows = Vec::with_capacity(count.sum());
    let mut total_lost = SimTime::ZERO;
    for (node, port, link) in links() {
        for occ in link.occupancy().iter().filter(stalled) {
            let lost = occ.start - occ.arrival;
            let bucket_idx = (occ.arrival.ps() / cfg.bucket.ps().max(1)) as u32;
            let bucket = bucket_idx.min(cfg.max_buckets.saturating_sub(1));
            let mut competitors = Vec::new();
            for other in link.occupancy() {
                if other.tag == occ.tag {
                    continue;
                }
                if other.arrival < occ.start && other.done > occ.arrival {
                    if !competitors.contains(&other.tag) {
                        competitors.push(other.tag);
                    }
                    if competitors.len() >= max_competitors {
                        break;
                    }
                }
            }
            total_lost += lost;
            rows.push(AttributionRow {
                flow: TraceId(occ.tag),
                node,
                port: Some(port),
                bucket,
                wait_start: occ.arrival,
                lost,
                competitors,
            });
        }
    }
    CongestionTable {
        bucket: cfg.bucket,
        rows,
        total_lost,
        hotspots: series.hotspots(top_k),
    }
}

/// Human label for a link: node id plus port direction.
pub fn link_label(node: u32, port: Option<u8>) -> String {
    match port {
        Some(p) => format!("n{} {}", node, Component::Link(p).track_name()),
        None => format!("n{node} link ?"),
    }
}
