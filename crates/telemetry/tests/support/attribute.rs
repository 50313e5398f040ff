//! The row-level attribution oracle: every `HopQueue` segment of whole
//! chains joined with the link series, one row per stalled crossing.
//!
//! `attribute_occupancy` builds the same table from the series alone, and
//! `explain congestion` checks it per link against the causal log's fold.
//! This join needs the whole log (rows index into its records), so it is
//! kept as the oracle the tests hold the product to, not as a product
//! path: `crates/telemetry/tests/attribution.rs`,
//! `tests/congestion_golden.rs` and `tests/causal_critpath.rs` include
//! it.

use xt3_sim::{linkhop_port, CausalLog, CausalStage, SimTime};
use xt3_telemetry::{
    aggregate, extract_chains, AttributionRow, Chain, CongestionTable, CostClass, CritPathError,
    SeriesConfig, SeriesSet,
};

/// Difference between `table`'s total and the hop-queueing class of
/// `chains`: zero for the chains the table was built from — the
/// zero-residual identity every table is held to.
pub fn residual(table: &CongestionTable, chains: &[Chain]) -> i128 {
    let agg = aggregate(chains).get(CostClass::HopQueue);
    table.total_lost.ps() as i128 - agg.ps() as i128
}

/// Build the attribution table for `chains`, row by row from `log`, the
/// causal log they were extracted from (rows index into it). `series`,
/// when given, supplies the bucket geometry, the occupancy logs used to
/// name competitors, and the hotspot ranking (`top_k` links); without it
/// rows carry bucket indices from [`SeriesConfig::default`] and empty
/// competitor lists.
///
/// A log that is not whole is refused as `extract_chains` refuses it
/// ([`CritPathError::Truncated`], [`CritPathError::Folded`]): a table
/// over the chains it happens to hold would report zero residual about
/// an unknown share of the run.
pub fn attribute(
    chains: &[Chain],
    log: &CausalLog,
    series: Option<&SeriesSet>,
    top_k: usize,
    max_competitors: usize,
) -> Result<CongestionTable, CritPathError> {
    extract_chains(log)?;
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
                    for occ in link.occupancy().iter() {
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
