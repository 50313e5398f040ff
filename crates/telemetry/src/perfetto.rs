//! Chrome trace-event / Perfetto JSON export.
//!
//! Emits the classic `traceEvents` array format: one process per node,
//! one thread (track) per component, `"X"` complete events for occupancy
//! spans and `"M"` metadata events naming the tracks. Each track also
//! carries a `thread_sort_index` pinning the display order to the
//! hardware order (host, PPC, TX DMA, RX DMA, links) instead of the
//! viewer's first-seen order. With a causal log attached, every message
//! additionally becomes a flow (`"s"`/`"t"`/`"f"` arrow events) linking
//! its sender-side and receiver-side checkpoints across node tracks.
//! With a [`SeriesSet`] attached, every touched link also gets native
//! Perfetto counter tracks (`"C"` events): utilization %, queue depth,
//! and per-bucket HOL stall, plus a per-node injection-rate counter.
//! Load the file in `ui.perfetto.dev` or `chrome://tracing`.

use crate::json::quote;
use crate::registry::Telemetry;
use crate::series::SeriesSet;
use crate::sink::Component;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use xt3_sim::CausalLog;

/// Perfetto `tid` of the per-node causal-checkpoint track; past every
/// [`Component::track_id`] so it sorts below the hardware tracks.
const CAUSAL_TID: u32 = 16;

/// Emit one trace event line into the accumulating array.
fn emit(out: &mut String, first: &mut bool, line: &str) {
    if *first {
        *first = false;
        out.push('\n');
    } else {
        out.push_str(",\n");
    }
    out.push_str("    ");
    out.push_str(line);
}

/// Emit the three metadata events describing one track: process name,
/// thread name, and the sort index that fixes the display order.
fn emit_track_meta(out: &mut String, first: &mut bool, node: u32, tid: u32, name: &str) {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{node},\"args\":{{\"name\":{}}}}}",
        quote(&format!("node{node}"))
    );
    emit(out, first, &line);
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{node},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
        quote(name)
    );
    emit(out, first, &line);
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":{node},\"tid\":{tid},\
         \"args\":{{\"sort_index\":{tid}}}}}"
    );
    emit(out, first, &line);
}

impl Telemetry {
    /// Render all recorded spans as a Chrome trace-event JSON document.
    ///
    /// Timestamps are microseconds (the format's unit); sub-microsecond
    /// spans keep fractional precision so back-to-back firmware handlers
    /// stay distinguishable. With `causal`, its checkpoint records go on
    /// a per-node "causal" track and each message's checkpoints are
    /// linked with flow arrows, so a NetPIPE round trip reads as one
    /// arrow chain from the sender's API entry to the receiver's EQ
    /// delivery. With `series`, every touched link gets native Perfetto
    /// counter tracks (`"C"` events: utilization %, queue depth, HOL
    /// stall per bucket) and each node its injection rate.
    pub fn perfetto_json_full(
        &self,
        causal: Option<&CausalLog>,
        series: Option<&SeriesSet>,
    ) -> String {
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
        let mut first = true;

        // Track metadata: name each (node, component) pair that appears.
        let tracks: BTreeSet<(u32, Component)> =
            self.spans().iter().map(|s| (s.node, s.component)).collect();
        for &(node, comp) in &tracks {
            emit_track_meta(
                &mut out,
                &mut first,
                node,
                comp.track_id(),
                comp.track_name(),
            );
        }

        if let Some(log) = causal {
            let causal_nodes: BTreeSet<u32> = log.records().iter().map(|r| r.node).collect();
            for &node in &causal_nodes {
                emit_track_meta(&mut out, &mut first, node, CAUSAL_TID, "causal checkpoints");
            }
        }

        for s in self.spans().iter() {
            let ts = s.start.ps() as f64 / 1e6;
            let dur = s.end.saturating_sub(s.start).ps() as f64 / 1e6;
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"ph\":\"X\",\"name\":{},\"pid\":{},\"tid\":{},\"ts\":{ts},\"dur\":{dur}}}",
                quote(s.label),
                s.node,
                s.component.track_id()
            );
            emit(&mut out, &mut first, &line);
        }

        if let Some(log) = causal {
            // A log that dropped records, or folded those past its head,
            // holds an unknown part of each message: its checkpoints are
            // drawn, but no arrows that would pass a cut chain off as a
            // whole one (the document's `metadata` names the cut instead).
            let whole = log.dropped() == 0 && log.made() == log.records().len() as u64;
            // Group `(node, ts)` by trace id, preserving record order, so
            // each message becomes one flow.
            let mut by_id: BTreeMap<u64, Vec<(u32, f64)>> = BTreeMap::new();
            for (idx, rec) in log.records().iter().enumerate() {
                let ts = rec.at.ps() as f64 / 1e6;
                let mut line = String::new();
                // A sliver-width slice marks the checkpoint and anchors
                // the flow arrows (flows bind to the enclosing slice).
                let _ = write!(
                    line,
                    "{{\"ph\":\"X\",\"name\":{},\"pid\":{},\"tid\":{CAUSAL_TID},\
                     \"ts\":{ts},\"dur\":0.001,\"args\":{{\"idx\":{idx}}}}}",
                    quote(rec.stage.name()),
                    rec.node,
                );
                emit(&mut out, &mut first, &line);
                if whole && rec.id.is_some() {
                    by_id.entry(rec.id.0).or_default().push((rec.node, ts));
                }
            }
            for (id, stops) in &by_id {
                if stops.len() < 2 {
                    continue;
                }
                // Hex-string flow id: u64-safe (bit 63 marks sender-side
                // chains), which a JSON double could not represent.
                let fid = quote(&format!("{id:#x}"));
                let last = stops.len() - 1;
                for (pos, &(node, ts)) in stops.iter().enumerate() {
                    let (ph, bind) = match pos {
                        0 => ("s", ""),
                        p if p == last => ("f", ",\"bp\":\"e\""),
                        _ => ("t", ""),
                    };
                    let mut line = String::new();
                    let _ = write!(
                        line,
                        "{{\"ph\":{},\"cat\":\"msg\",\"name\":\"msg\",\"id\":{fid},\
                         \"pid\":{node},\"tid\":{CAUSAL_TID},\"ts\":{ts}{bind}}}",
                        quote(ph),
                    );
                    emit(&mut out, &mut first, &line);
                }
            }
        }

        if let Some(set) = series {
            emit_counters(&mut out, &mut first, set);
        }

        out.push_str("\n  ]");
        if let Some(log) = causal.filter(|log| log.dropped() > 0) {
            let _ = write!(
                out,
                ",\n  \"metadata\": {{\"causal_log_truncated\": \
                 {{\"records_kept\": {}, \"records_dropped\": {}}}}}",
                log.records().len(),
                log.dropped()
            );
        } else if let Some(log) = causal.filter(|log| log.made() > log.records().len() as u64) {
            let _ = write!(
                out,
                ",\n  \"metadata\": {{\"causal_log_folded\": \
                 {{\"records_kept\": {}, \"records_folded\": {}}}}}",
                log.records().len(),
                log.made() - log.records().len() as u64
            );
        }
        out.push_str("\n}\n");
        out
    }
}

/// Emit `"C"` counter events for every touched link and node in `set`.
///
/// Counter tracks are identified by `(pid, name)`; one sample per
/// bucket (dense from bucket 0 to the last touched one, so dips to
/// zero render correctly). Utilization is percent of the bucket the
/// link spent serializing, depth is the time-averaged head-of-line
/// queue, stall is the total HOL wait begun in the bucket.
fn emit_counters(out: &mut String, first: &mut bool, set: &SeriesSet) {
    let width_ps = set.config().bucket.ps().max(1) as f64;
    let sample = |out: &mut String, first: &mut bool, node: u32, name: &str, idx, value: f64| {
        let ts = set.bucket_start(idx).ps() as f64 / 1e6;
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"ph\":\"C\",\"name\":{},\"pid\":{node},\"ts\":{ts},\"args\":{{\"value\":{value}}}}}",
            quote(name)
        );
        emit(out, first, &line);
    };
    for node in 0..set.node_slots() as u32 {
        let Some(lanes) = set.node(node) else {
            continue;
        };
        for port in 0..6u8 {
            let link = lanes.link(port);
            if link.msgs() == 0 {
                continue;
            }
            let base = Component::Link(port).track_name();
            for (idx, b) in link.buckets().enumerate() {
                let idx = idx as u32;
                sample(
                    out,
                    first,
                    node,
                    &format!("{base} util%"),
                    idx,
                    b.busy_ps as f64 * 100.0 / width_ps,
                );
                sample(
                    out,
                    first,
                    node,
                    &format!("{base} qdepth"),
                    idx,
                    b.queued_ps as f64 / width_ps,
                );
                sample(
                    out,
                    first,
                    node,
                    &format!("{base} stall-ns"),
                    idx,
                    b.stall_ps as f64 / 1e3,
                );
            }
        }
        let inject = lanes.inject();
        for (idx, b) in inject.buckets().enumerate() {
            sample(out, first, node, "inject msgs", idx as u32, b.msgs as f64);
            sample(out, first, node, "inject bytes", idx as u32, b.bytes as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::json::parse;
    use crate::sink::{Component, TelemetrySink};
    use crate::Telemetry;
    use xt3_sim::{CausalLog, CausalStage, SimTime, TraceId};

    #[test]
    fn export_parses_and_names_tracks() {
        let mut t = Telemetry::enabled();
        t.span(
            0,
            Component::Host,
            "interrupt",
            SimTime::from_us(1),
            SimTime::from_us(3),
        );
        t.span(
            1,
            Component::Link(0),
            "link",
            SimTime::from_ns(100),
            SimTime::from_ns(200),
        );
        let doc = t.perfetto_json_full(None, None);
        let v = parse(&doc).expect("perfetto JSON parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array().map(<[_]>::to_vec))
            .expect("events array");
        // 2 tracks x 3 metadata events + 2 spans.
        assert_eq!(events.len(), 8);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str().map(String::from)) == Ok("X".into()))
            .expect("span event");
        assert_eq!(span.get("ts").and_then(|t| t.as_f64()), Ok(1.0));
        assert_eq!(span.get("dur").and_then(|t| t.as_f64()), Ok(2.0));
    }

    #[test]
    fn tracks_carry_sort_indices() {
        let mut t = Telemetry::enabled();
        t.span(0, Component::RxDma, "rx", SimTime::ZERO, SimTime::NS);
        let doc = t.perfetto_json_full(None, None);
        let v = parse(&doc).expect("parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array().map(<[_]>::to_vec))
            .expect("events array");
        let sort = events
            .iter()
            .find(|e| {
                e.get("name").and_then(|n| n.as_str().map(String::from))
                    == Ok("thread_sort_index".into())
            })
            .expect("sort-index metadata");
        assert_eq!(
            sort.get("args")
                .and_then(|a| a.get("sort_index"))
                .and_then(|s| s.as_f64()),
            Ok(f64::from(Component::RxDma.track_id()))
        );
    }

    #[test]
    fn causal_records_become_flows() {
        let t = Telemetry::enabled();
        let mut log = CausalLog::enabled();
        let id = TraceId(42);
        let a = log.record(id, CausalStage::ApiEntry, SimTime::from_ns(10), 0, None, 8);
        log.record(id, CausalStage::AppDeliver, SimTime::from_ns(500), 1, a, 1);
        let doc = t.perfetto_json_full(Some(&log), None);
        let v = parse(&doc).expect("parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array().map(<[_]>::to_vec))
            .expect("events array");
        let phase = |e: &crate::JsonValue| {
            e.get("ph")
                .and_then(|p| p.as_str().map(String::from))
                .unwrap_or_default()
        };
        let starts = events.iter().filter(|e| phase(e) == "s").count();
        let ends = events.iter().filter(|e| phase(e) == "f").count();
        assert_eq!((starts, ends), (1, 1), "one flow start and one finish");
        let start = events.iter().find(|e| phase(e) == "s").expect("flow start");
        assert_eq!(
            start.get("id").and_then(|i| i.as_str().map(String::from)),
            Ok("0x2a".into())
        );
        // Checkpoint slices land on the causal track of each node.
        let slices = events
            .iter()
            .filter(|e| phase(e) == "X")
            .filter(|e| e.get("tid").and_then(|t| t.as_f64()) == Ok(16.0))
            .count();
        assert_eq!(slices, 2);
    }

    #[test]
    fn series_become_counter_tracks() {
        use crate::series::{SeriesConfig, SeriesSet};
        let t = Telemetry::enabled();
        let mut s = SeriesSet::new(4, SeriesConfig::default());
        s.record_inject(2, SimTime::from_us(1), 4096);
        s.record_hop(
            2,
            0,
            crate::series::Occupancy {
                tag: 7,
                arrival: SimTime::from_us(1),
                start: SimTime::from_us(4),
                done: SimTime::from_us(9),
            },
            8,
        );
        let doc = t.perfetto_json_full(None, Some(&s));
        let v = parse(&doc).expect("parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array().map(<[_]>::to_vec))
            .expect("events array");
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str().map(String::from)) == Ok("C".into()))
            .collect();
        assert!(!counters.is_empty());
        let util = counters
            .iter()
            .find(|e| {
                e.get("name").and_then(|n| n.as_str().map(String::from))
                    == Ok("link X+ util%".into())
            })
            .expect("utilization counter track");
        assert_eq!(util.get("pid").and_then(|p| p.as_f64()), Ok(2.0));
        // Bucket 0 of a 10 µs bucket saw 5 µs of serialization -> 50 %.
        assert_eq!(
            util.get("args")
                .and_then(|a| a.get("value"))
                .and_then(|x| x.as_f64()),
            Ok(50.0)
        );
        assert!(counters.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str().map(String::from)) == Ok("inject bytes".into())
        }));
    }

    #[test]
    fn empty_recorder_exports_valid_document() {
        let t = Telemetry::enabled();
        let v = parse(&t.perfetto_json_full(None, None)).expect("parses");
        assert_eq!(
            v.get("traceEvents")
                .and_then(|e| e.as_array().map(<[_]>::len)),
            Ok(0)
        );
    }
}
