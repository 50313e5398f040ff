//! The attribution table on a hand-built two-flow log, held to the
//! row-level oracle (`support/attribute.rs`), and the log's per-link fold
//! held to the per-link oracle (`support/hop_stalls.rs`).

#[path = "support/attribute.rs"]
mod oracle;
#[path = "support/hop_stalls.rs"]
mod per_link;

use oracle::{attribute, residual};
use per_link::hop_stalls;
use xt3_sim::{linkhop_info, CausalLog, CausalStage, SimTime, TraceId};
use xt3_telemetry::{
    aggregate, attribute_occupancy, extract_chains, link_label, CostClass, Occupancy, SeriesConfig,
    SeriesSet,
};

/// Two flows over the same link: flow 2 arrives while flow 1 is
/// serializing and stalls behind it.
fn contended_log() -> CausalLog {
    let mut log = CausalLog::enabled();
    let us = |n: u64| SimTime::from_us(n);
    for (id, api, start, stall_us, deliver) in [(1u64, 0u64, 1u64, 0u64, 12u64), (2, 0, 11, 10, 22)]
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
    let occ = |tag, start, done| Occupancy {
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
    assert_eq!(residual(&table, &chains), 0);
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
    assert_eq!(residual(&from_occ, &chains), 0);
}

#[test]
fn no_series_means_no_competitors() {
    let log = contended_log();
    let chains = extract_chains(&log).unwrap();
    let table = attribute(&chains, &log, None, 4, 4).unwrap();
    assert_eq!(table.rows.len(), 1);
    assert!(table.rows[0].competitors.is_empty());
    assert!(table.hotspots.is_empty());
    assert_eq!(residual(&table, &chains), 0);
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
    assert_eq!(link_label(hops[0].node, hops[0].port), "n0 link Y+");
    let total: SimTime = hops.iter().map(|h| h.stall).sum();
    assert_eq!(total, aggregate(&chains).get(CostClass::HopQueue));
    // The log's own fold holds the same per-link totals.
    assert_eq!(log.fold().hop_stalls().collect::<Vec<_>>(), hops);
}
