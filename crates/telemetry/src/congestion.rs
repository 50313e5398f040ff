//! Hotspot attribution: who lost time, where, when, and because of whom.
//!
//! The critical-path extractor ([`crate::critpath`]) already charges
//! head-of-line blocking to the [`CostClass::HopQueue`] class, but only
//! as one aggregate number per chain. This module joins those segments
//! with the link-level series ([`crate::series`]) to produce rows of
//! the form *"flow F lost T ns on link L during bucket B because of
//! competing flows {G, H}"*:
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

use xt3_sim::{linkhop_port, CausalLog, CausalStage, SimTime, TraceId};

use crate::critpath::{aggregate, require_complete, Chain, CostClass, CritPathError};
use crate::series::{Hotspot, Occupancy, SeriesConfig, SeriesSet};
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
    /// in transit order, capped at [`attribute`]'s `max_competitors`.
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
    /// Difference between the table total and the chains' aggregate
    /// hop-queueing class. Zero for the chains the table was built
    /// from — the acceptance fence `explain congestion` gates on.
    pub fn residual(&self, chains: &[Chain]) -> i128 {
        let agg = aggregate(chains).get(CostClass::HopQueue);
        self.total_lost.ps() as i128 - agg.ps() as i128
    }

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
    /// order. [`attribute`] emits rows in chain (delivery) order and
    /// [`attribute_occupancy`] in link order; after canonicalization the
    /// two renders are byte-comparable.
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
/// On a clean run this reproduces [`attribute`]'s rows exactly (after
/// [`CongestionTable::canonicalize`] on both): the stall the fabric
/// packed into each `LinkHop` causal record is the same
/// `start − arrival` interval it logged in the occupancy entry. And
/// because the series ride on the real fabric — which the parallel
/// coordinator owns and feeds in exact serial order — this table is
/// bit-identical for any worker count, where [`attribute`] needs the
/// serial causal log.
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

/// Hop-queueing folded by physical link: where the aggregate
/// [`CostClass::HopQueue`] class was actually paid. The per-hop breakout
/// `explain latency` prints alongside the class totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStall {
    /// Node owning the link.
    pub node: u32,
    /// Router port (`None` for pre-port-packing causal logs).
    pub port: Option<u8>,
    /// Total head-of-line stall paid at this link.
    pub stall: SimTime,
    /// Stalled crossings (one per `HopQueue` segment).
    pub waits: u64,
}

impl HopStall {
    /// Human label: node id plus port direction.
    pub fn label(&self) -> String {
        link_label(self.node, self.port)
    }
}

/// Fold every `HopQueue` segment of `chains` into per-`(node, port)`
/// totals, sorted by `(node, port)`. The sum of `stall` over the rows
/// equals the chains' aggregate hop-queueing class exactly — the same
/// zero-residual identity [`attribute`] provides per flow, here per
/// link. Errors as [`attribute`] does.
pub fn hop_stalls(chains: &[Chain], log: &CausalLog) -> Result<Vec<HopStall>, CritPathError> {
    use std::collections::BTreeMap;
    require_complete(log)?;
    let records = log.records();
    let mut map: BTreeMap<(u32, i16), (SimTime, u64)> = BTreeMap::new();
    for chain in chains {
        for seg in &chain.segments {
            if seg.class != CostClass::HopQueue || seg.stage != CausalStage::LinkHop {
                continue;
            }
            let rec = records
                .get(seg.to as usize)
                .ok_or(CritPathError::MissingRecord { idx: seg.to })?;
            let key = (rec.node, linkhop_port(rec.info).map_or(-1, i16::from));
            let e = map.entry(key).or_insert((SimTime::ZERO, 0));
            e.0 += seg.dur;
            e.1 += 1;
        }
    }
    let fold = map.into_iter();
    Ok(fold
        .map(|((node, port), (stall, waits))| HopStall {
            node,
            port: u8::try_from(port).ok(),
            stall,
            waits,
        })
        .collect())
}

/// Human label for a link: node id plus port direction.
fn link_label(node: u32, port: Option<u8>) -> String {
    match port {
        Some(p) => format!("n{} {}", node, Component::Link(p).track_name()),
        None => format!("n{node} link ?"),
    }
}

/// Build the attribution table for `chains`.
///
/// `log` must be the causal log the chains were extracted from (rows
/// index into it). `series`, when given, supplies the bucket geometry,
/// the occupancy logs used to name competitors, and the hotspot
/// ranking (`top_k` links); without it rows carry bucket indices from
/// [`SeriesConfig::default`] and empty competitor lists.
///
/// A log that dropped records is refused ([`CritPathError::Truncated`]):
/// a table over the chains the cap happened to leave would report zero
/// residual about an unknown share of the run. [`attribute_occupancy`]
/// needs no log.
pub fn attribute(
    chains: &[Chain],
    log: &CausalLog,
    series: Option<&SeriesSet>,
    top_k: usize,
    max_competitors: usize,
) -> Result<CongestionTable, CritPathError> {
    require_complete(log)?;
    let default_cfg = SeriesConfig::default();
    let cfg = series.map_or(&default_cfg, SeriesSet::config);
    let records = log.records();
    let mut rows = Vec::new();
    let mut total_lost = SimTime::ZERO;
    for chain in chains {
        for seg in &chain.segments {
            if seg.class != CostClass::HopQueue || seg.stage != CausalStage::LinkHop {
                continue;
            }
            let rec = records
                .get(seg.to as usize)
                .ok_or(CritPathError::MissingRecord { idx: seg.to })?;
            let port = linkhop_port(rec.info);
            // The LinkHop record's timestamp is serialization start;
            // the wait is the stall interval just before it.
            let wait_start = rec.at.saturating_sub(seg.dur);
            let bucket_idx = (wait_start.ps() / cfg.bucket.ps().max(1)) as u32;
            let bucket = bucket_idx.min(cfg.max_buckets.saturating_sub(1));
            let mut competitors = Vec::new();
            if let (Some(set), Some(p)) = (series, port) {
                if let Some(link) = set.link(rec.node, p) {
                    for occ in link.occupancy() {
                        if occ.tag == chain.id.0 {
                            continue;
                        }
                        // Overlaps the wait if it held or contested the
                        // link anywhere inside [wait_start, rec.at).
                        if occ.arrival < rec.at && occ.done > wait_start {
                            if !competitors.contains(&occ.tag) {
                                competitors.push(occ.tag);
                            }
                            if competitors.len() >= max_competitors {
                                break;
                            }
                        }
                    }
                }
            }
            total_lost += seg.dur;
            rows.push(AttributionRow {
                flow: chain.id,
                node: rec.node,
                port,
                bucket,
                wait_start,
                lost: seg.dur,
                competitors,
            });
        }
    }
    Ok(CongestionTable {
        bucket: cfg.bucket,
        rows,
        total_lost,
        hotspots: series.map_or_else(Vec::new, |s| s.hotspots(top_k)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::extract_chains;
    use xt3_sim::{linkhop_info, CausalStage};

    /// Two flows over the same link: flow 2 arrives while flow 1 is
    /// serializing and stalls behind it.
    fn contended_log() -> CausalLog {
        let mut log = CausalLog::enabled();
        let us = |n: u64| SimTime::from_us(n);
        for (id, api, start, stall_us, deliver) in
            [(1u64, 0u64, 1u64, 0u64, 12u64), (2, 0, 11, 10, 22)]
        {
            let a = log
                .record(TraceId(id), CausalStage::ApiEntry, us(api), 0, None, 4096)
                .unwrap();
            let h = log
                .record(
                    TraceId(id),
                    CausalStage::LinkHop,
                    us(start),
                    0,
                    Some(a),
                    linkhop_info(2, us(stall_us).ps()),
                )
                .unwrap();
            log.record(
                TraceId(id),
                CausalStage::AppDeliver,
                us(deliver),
                1,
                Some(h),
                0,
            );
        }
        log
    }

    fn contended_series() -> SeriesSet {
        let mut s = SeriesSet::new(2, SeriesConfig::default());
        let us = |n: u64| SimTime::from_us(n);
        let occ = |tag, start, done| crate::series::Occupancy {
            tag,
            arrival: us(1),
            start,
            done,
        };
        s.record_hop(0, 2, occ(1, us(1), us(11)), 64);
        s.record_hop(0, 2, occ(2, us(11), us(21)), 64);
        s
    }

    #[test]
    fn rows_partition_hop_queueing_exactly() {
        let log = contended_log();
        let chains = extract_chains(&log).unwrap();
        let series = contended_series();
        let table = attribute(&chains, &log, Some(&series), 4, 4).unwrap();
        assert_eq!(table.rows.len(), 1, "only flow 2 stalled");
        let row = &table.rows[0];
        assert_eq!(row.flow, TraceId(2));
        assert_eq!((row.node, row.port), (0, Some(2)));
        assert_eq!(row.lost, SimTime::from_us(10));
        assert_eq!(row.wait_start, SimTime::from_us(1));
        assert_eq!(row.bucket, 0);
        assert_eq!(row.competitors, vec![1], "queued behind flow 1");
        assert_eq!(table.residual(&chains), 0);
        assert_eq!(table.total_lost, SimTime::from_us(10));
    }

    #[test]
    fn hotspots_come_from_the_series() {
        let log = contended_log();
        let chains = extract_chains(&log).unwrap();
        let series = contended_series();
        let table = attribute(&chains, &log, Some(&series), 4, 4).unwrap();
        assert_eq!(table.hotspots.len(), 1);
        assert_eq!(table.hotspots[0].node, 0);
        assert_eq!(table.hotspots[0].port, 2);
        assert_eq!(table.hotspots[0].stall, SimTime::from_us(10));
    }

    #[test]
    fn renders_are_deterministic() {
        let log = contended_log();
        let chains = extract_chains(&log).unwrap();
        let series = contended_series();
        let a = attribute(&chains, &log, Some(&series), 4, 4).unwrap();
        let b = attribute(&chains, &log, Some(&series), 4, 4).unwrap();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.render_text().contains("n0 link Y+"));
        assert!(a.render_json().contains("\"total_lost_ps\":10000000"));
    }

    #[test]
    fn occupancy_table_reproduces_the_chain_table() {
        let log = contended_log();
        let chains = extract_chains(&log).unwrap();
        let series = contended_series();
        let mut from_chains = attribute(&chains, &log, Some(&series), 4, 4).unwrap();
        let mut from_occ = attribute_occupancy(&series, 4, 4);
        from_chains.canonicalize();
        from_occ.canonicalize();
        assert_eq!(from_chains.rows, from_occ.rows);
        assert_eq!(from_chains.total_lost, from_occ.total_lost);
        assert_eq!(from_chains.render_text(), from_occ.render_text());
        assert_eq!(from_chains.render_json(), from_occ.render_json());
        assert_eq!(from_occ.residual(&chains), 0);
    }

    #[test]
    fn hop_stalls_fold_by_link_with_zero_residual() {
        let log = contended_log();
        let chains = extract_chains(&log).unwrap();
        let hops = hop_stalls(&chains, &log).unwrap();
        assert_eq!(hops.len(), 1, "one contended link");
        assert_eq!((hops[0].node, hops[0].port), (0, Some(2)));
        assert_eq!(hops[0].stall, SimTime::from_us(10));
        assert_eq!(hops[0].waits, 1);
        assert_eq!(hops[0].label(), "n0 link Y+");
        let total: SimTime = hops.iter().map(|h| h.stall).sum();
        assert_eq!(total, aggregate(&chains).get(CostClass::HopQueue));
    }

    #[test]
    fn no_series_means_no_competitors() {
        let log = contended_log();
        let chains = extract_chains(&log).unwrap();
        let table = attribute(&chains, &log, None, 4, 4).unwrap();
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0].competitors.is_empty());
        assert!(table.hotspots.is_empty());
        assert_eq!(table.residual(&chains), 0);
    }
}
