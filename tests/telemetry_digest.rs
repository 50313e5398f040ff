//! Tier-1 telemetry contract tests.
//!
//! 1. **Digest neutrality**: a run with the telemetry sink enabled
//!    produces bit-identical engine digests and model fingerprints to the
//!    same run with it disabled — telemetry observes, never perturbs.
//! 2. **Interrupt fence**: the paper's §3.3/§6 claim, measured end to
//!    end — payloads that ride the ≤12 B header piggyback complete with
//!    exactly one receive interrupt; larger ones pay exactly two.
//! 3. **Perfetto export**: the emitted trace is valid JSON with the
//!    trace-event fields Perfetto requires.
//! 4. **One home per count**: every count in `telemetry_report` is the
//!    hardware model's own, so the report is the same JSON whether or not
//!    the registry recorded spans.

use xt3_netpipe::runner::{build_engine, run_instrumented, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_sim::RunOutcome;
use xt3_telemetry::parse_json;

fn fixed_config(size: u64, reps: u32) -> NetpipeConfig {
    NetpipeConfig {
        schedule: Schedule::fixed(size, reps),
        ..NetpipeConfig::paper()
    }
}

#[test]
fn telemetry_sink_is_digest_neutral() {
    let config = NetpipeConfig::quick(4096);
    let mut bare = build_engine(&config, Transport::Put, TestKind::PingPong);
    let mut instrumented = build_engine(&config, Transport::Put, TestKind::PingPong);
    instrumented.model_mut().set_telemetry_enabled(true);

    assert_eq!(bare.run(), RunOutcome::Drained);
    assert_eq!(instrumented.run(), RunOutcome::Drained);

    assert_eq!(
        bare.digest(),
        instrumented.digest(),
        "telemetry sink changed the event stream"
    );
    assert_eq!(
        bare.state_fingerprint(),
        instrumented.state_fingerprint(),
        "telemetry sink changed model state"
    );
    assert_eq!(bare.dispatched(), instrumented.dispatched());

    // The comparison only means something if the sink actually recorded
    // and the run took the interrupts the spans time.
    let elapsed = instrumented.now();
    let m = instrumented.into_model();
    assert!(
        !m.telemetry().spans().is_empty(),
        "instrumented run recorded no spans — the sink never fired"
    );
    let report = m.telemetry_report("digest", elapsed);
    let interrupts: u64 = report.nodes.iter().map(|n| n.host_interrupts).sum();
    assert!(interrupts > 0);
    let bare_m = bare.into_model();
    assert!(bare_m.telemetry().spans().is_empty());
}

#[test]
fn telemetry_report_is_the_same_with_the_registry_off() {
    // Generic mode, so the host takes traps and interrupts, and 13 B
    // puts, so every receive pays both of its interrupts.
    let config = fixed_config(13, 20);
    let report = |registry: bool| {
        let mut engine = build_engine(&config, Transport::Put, TestKind::PingPong);
        engine.model_mut().set_telemetry_enabled(registry);
        assert_eq!(engine.run(), RunOutcome::Drained);
        let elapsed = engine.now();
        let m = engine.into_model();
        assert_eq!(m.telemetry().spans().is_empty(), !registry);
        m.telemetry_report("one home", elapsed).to_json()
    };
    let (on, off) = (report(true), report(false));
    assert!(on.contains("\"host_interrupts\": "));
    assert_eq!(on, off, "a count in the report depends on the registry");
}

#[test]
fn piggybacked_messages_take_exactly_one_interrupt() {
    for size in [1u64, 8, 12] {
        let run = run_instrumented(&fixed_config(size, 50), Transport::Put, TestKind::PingPong);
        assert_eq!(
            run.report.rx_interrupts_per_message(),
            1.0,
            "{size} B payloads must complete on the header interrupt alone"
        );
        assert_eq!(run.report.rx_interrupts_per_piggybacked_message(), 1.0);
        assert!(
            run.report.host_path_messages() > 100,
            "both directions count"
        );
    }
}

#[test]
fn full_messages_take_exactly_two_interrupts() {
    for size in [13u64, 64, 4096] {
        let run = run_instrumented(&fixed_config(size, 50), Transport::Put, TestKind::PingPong);
        assert_eq!(
            run.report.rx_interrupts_per_full_message(),
            2.0,
            "{size} B payloads must pay header + RX-DMA completion interrupts"
        );
    }
}

#[test]
fn perfetto_trace_parses_and_has_tracks() {
    let run = run_instrumented(&fixed_config(64, 4), Transport::Put, TestKind::PingPong);
    let v = parse_json(&run.perfetto).expect("perfetto output must be valid JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|u| u.as_str()).unwrap(),
        "ns"
    );
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    let mut complete = 0u32;
    let mut metadata = 0u32;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph field");
        assert!(ev.get("pid").is_ok(), "every event names a process");
        match ph {
            "X" => {
                complete += 1;
                assert!(ev.get("ts").and_then(|t| t.as_f64()).is_ok());
                assert!(ev.get("dur").and_then(|t| t.as_f64()).is_ok());
                assert!(ev.get("name").and_then(|n| n.as_str()).is_ok());
            }
            "M" => metadata += 1,
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "no occupancy spans exported");
    assert!(
        metadata >= 2,
        "process/thread name metadata missing (got {metadata})"
    );
    // Both nodes of the ping-pong pair must appear as processes.
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()).ok())
        .collect();
    assert!(pids.len() >= 2, "expected both nodes in the trace");
}

#[test]
fn telemetry_report_json_roundtrips() {
    let run = run_instrumented(&fixed_config(256, 4), Transport::Put, TestKind::PingPong);
    let json = run.report.to_json();
    let back = xt3_telemetry::parse_json(&json).expect("round-trips");
    let u64_at = |v: &xt3_telemetry::JsonValue, key: &str| v.get(key)?.as_u64();
    assert_eq!(
        back.get("label").and_then(|l| l.as_str()),
        Ok(run.report.label.as_str())
    );
    assert_eq!(u64_at(&back, "elapsed_ps"), Ok(run.report.elapsed.ps()));
    let nodes = back.get("nodes").and_then(|n| n.as_array()).expect("nodes");
    assert_eq!(nodes.len(), run.report.nodes.len());
    for (a, b) in run.report.nodes.iter().zip(nodes) {
        assert_eq!(Ok(a.host_interrupts), u64_at(b, "host_interrupts"));
        assert_eq!(Ok(a.rx_piggybacked), u64_at(b, "rx_piggybacked"));
        let links = b.get("links").and_then(|l| l.as_array()).expect("links");
        assert_eq!(a.links.len(), links.len());
    }
}
