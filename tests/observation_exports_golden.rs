//! Golden fence around the three observation sinks' *stores*: what the
//! telemetry registry, the causal log and the link series hold after a
//! run, and every byte their exporters produce from it, pinned to one
//! line per run in `tests/golden/observation_exports.txt`.
//!
//! `machine_paths_golden` pins what the machine *records*; this file pins
//! what the sinks *keep and export*, so the representation behind
//! `spans()`, `records()` and the series buckets can change while every
//! stored field, every drop count and every exported byte stays put. It
//! reads the sinks only through `len()`, `iter()` and field access, so the
//! same source compiles against a slice or a by-value view.
//!
//! Runs: a 4,096 B put ping-pong, a 4×4×2 all-to-all and a 4×4×2 incast,
//! each serial and through `run_parallel(.., 2)` (whose merged machine
//! keeps the fabric's series and starts fresh registry and causal sinks),
//! plus the all-to-all once with `Telemetry::with_span_cap(1000)` and once
//! with `CausalLog::with_cap(1000)` so the truncated heads are pinned too.
//! The Perfetto export of the run with the truncated causal log is not
//! pinned: that export names the truncation instead of drawing the cut
//! flows, which is a behaviour and not a store.
//!
//! To bless an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test observation_exports_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xt3_netpipe::runner::{build_machine, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_node::par::run_parallel;
use xt3_node::workloads::{traffic_machine, TrafficPattern};
use xt3_node::Machine;
use xt3_sim::{CausalLog, EventDigest, RunOutcome, SimTime};
use xt3_telemetry::{attribute_occupancy, Telemetry};
use xt3_topology::coord::Dims;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/observation_exports.txt")
}

fn fnv(text: &str) -> u64 {
    let mut d = EventDigest::new();
    d.write_str(text);
    d.value()
}

/// Which sink, if any, gets a 1,000-entry cap.
#[derive(Clone, Copy, PartialEq)]
enum Cap {
    None,
    Spans,
    Records,
}

fn observed(mut m: Machine, cap: Cap) -> Machine {
    m.set_telemetry_enabled(true);
    m.set_causal_enabled(true);
    m.enable_link_series(Default::default());
    match cap {
        Cap::None => {}
        Cap::Spans => *m.telemetry_mut() = Telemetry::with_span_cap(1000),
        Cap::Records => *m.causal_mut() = CausalLog::with_cap(1000),
    }
    m
}

/// One golden line: everything the sinks of `m` hold and export.
fn line(out: &mut String, name: &str, m: &Machine, now: SimTime, perfetto: bool) {
    let tele = m.telemetry();
    let mut spans = EventDigest::new();
    for s in tele.spans().iter() {
        spans.write_u32(s.node);
        spans.write_u32(s.component.track_id());
        spans.write_str(s.label);
        spans.write_u64(s.start.ps());
        spans.write_u64(s.end.ps());
    }
    let log = m.causal();
    let mut records = EventDigest::new();
    for r in log.records().iter() {
        records.write_u64(r.id.0);
        records.write_u8(r.stage as u8);
        records.write_u64(r.at.ps());
        records.write_u32(r.node);
        records.write_u64(r.parent.map_or(u64::MAX, u64::from));
        records.write_u64(r.info);
    }
    let series = m.link_series().expect("series on");
    let table = attribute_occupancy(series, 8, 4);
    let perfetto = if perfetto {
        format!(
            "{:#018x}",
            fnv(&tele.perfetto_json_full(Some(log), Some(series)))
        )
    } else {
        "-".to_string()
    };
    writeln!(
        out,
        "{name} spans={} spans_dropped={} span_fnv={:#018x} records={} records_dropped={} \
         causal={:#018x} record_fnv={:#018x} series_json={:#018x} perfetto={perfetto} \
         report={:#018x} occ_rows={} occ_lost_ps={}",
        tele.spans().len(),
        tele.dropped_spans(),
        spans.value(),
        log.records().len(),
        log.dropped(),
        log.digest(),
        records.value(),
        fnv(&series.to_json()),
        fnv(&m.telemetry_report("golden", now).to_json()),
        table.rows.len(),
        table.total_lost.ps(),
    )
    .expect("string write");
}

fn serial(out: &mut String, name: &str, m: Machine, cap: Cap) {
    let mut engine = observed(m, cap).into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained, "{name} must drain");
    let now = engine.now();
    line(out, name, &engine.into_model(), now, cap != Cap::Records);
}

fn parallel(out: &mut String, name: &str, m: Machine) {
    let run = run_parallel(observed(m, Cap::None), 2);
    assert_eq!(run.outcome, RunOutcome::Drained, "{name} must drain");
    line(out, name, &run.machine, run.now, true);
}

fn render() -> String {
    let pingpong = || {
        let config = NetpipeConfig {
            schedule: Schedule::fixed(4096, 32),
            ..NetpipeConfig::paper_latency()
        };
        build_machine(&config, Transport::Put, TestKind::PingPong)
    };
    let dims = Dims::mesh(4, 4, 2);
    let alltoall = || traffic_machine(TrafficPattern::AllToAll, dims, 1, 4096);
    let incast = || traffic_machine(TrafficPattern::Incast, dims, 2, 4096);

    let mut out = String::new();
    serial(&mut out, "pingpong/serial", pingpong(), Cap::None);
    parallel(&mut out, "pingpong/par2", pingpong());
    serial(&mut out, "alltoall-4x4x2/serial", alltoall(), Cap::None);
    parallel(&mut out, "alltoall-4x4x2/par2", alltoall());
    serial(&mut out, "incast-4x4x2/serial", incast(), Cap::None);
    parallel(&mut out, "incast-4x4x2/par2", incast());
    serial(
        &mut out,
        "alltoall-4x4x2/span-cap-1000",
        alltoall(),
        Cap::Spans,
    );
    serial(
        &mut out,
        "alltoall-4x4x2/record-cap-1000",
        alltoall(),
        Cap::Records,
    );
    out
}

#[test]
fn observation_exports_match_golden() {
    let path = golden_path();
    let fresh = render();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        let header =
            "# Observation store fence: one line per run, registry + causal log + series on.\n\
                      # Regenerate: UPDATE_GOLDEN=1 cargo test --test observation_exports_golden\n";
        std::fs::write(&path, header.to_string() + &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test observation_exports_golden",
            path.display()
        )
    });
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = fresh.lines().collect();
    assert_eq!(want.len(), got.len(), "run inventory changed");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "observation export drifted from the golden line");
    }
}
