//! Property: per-link series lanes survive the parallel window driver
//! bit-identically.
//!
//! The coordinator owns the one real fabric — shards only buffer send
//! intents, which the coordinator replays in exact serial order — so
//! the fabric-owned [`SeriesSet`] (utilization, queue depth, HOL-stall
//! and occupancy lanes) must come back from `Machine::merge` byte for
//! byte regardless of worker count, traffic pattern, mesh shape or
//! message size. This is the contract that makes the congestion
//! observatory parallel-safe: the series-derived attribution table is
//! computed from exactly these bytes.

use proptest::prelude::*;
use xt3_node::par::run_parallel;
use xt3_node::workloads::{traffic_machine, TrafficPattern};
use xt3_node::Machine;
use xt3_sim::RunOutcome;
use xt3_telemetry::{SeriesConfig, TelemetrySink};
use xt3_topology::coord::Dims;

/// Mesh shapes the property sweeps (kept ≤ 12 nodes for debug-profile
/// runtime; non-square and 3-D shapes included deliberately — the
/// transpose and halo patterns behave differently on them).
const SHAPES: [(u16, u16, u16); 4] = [(2, 2, 1), (4, 1, 1), (3, 2, 2), (2, 2, 2)];

fn build(pattern: TrafficPattern, dims: Dims, rounds: u32, msg: u64) -> Machine {
    let mut m = traffic_machine(pattern, dims, rounds, msg);
    m.enable_link_series(SeriesConfig::default());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn series_lanes_merge_bit_identically(
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        shape_idx in 0usize..SHAPES.len(),
        rounds in 1u32..3,
        msg in prop_oneof![Just(256u64), Just(2048u64)],
        workers in 1usize..6,
    ) {
        let pattern = TrafficPattern::ALL[pattern_idx];
        let (x, y, z) = SHAPES[shape_idx];
        let dims = Dims::mesh(x, y, z);

        let mut engine = build(pattern, dims, rounds, msg).into_engine();
        prop_assert_eq!(engine.run(), RunOutcome::Drained);
        let digest = engine.digest();
        let fingerprint = engine.state_fingerprint();
        let m = engine.into_model();
        let serial_json = m.link_series().expect("series enabled").to_json();

        let par = run_parallel(build(pattern, dims, rounds, msg), workers);
        prop_assert_eq!(par.outcome, RunOutcome::Drained);
        prop_assert_eq!(par.digest, digest, "digest @ {} workers", workers);
        prop_assert_eq!(
            par.state_fingerprint, fingerprint,
            "fingerprint @ {} workers", workers
        );
        let par_json = par
            .machine
            .link_series()
            .expect("series survive merge")
            .to_json();
        prop_assert_eq!(
            par_json, serial_json,
            "series lanes must merge byte-identically ({} @ {} workers)",
            pattern.name(), workers
        );
    }
}

/// With the registry, the causal log and the series on, a partitioned
/// run keeps no sink it would throw away: each shard's registry and
/// causal log are off and stay empty through a run of its own, and the
/// coordinator's, locals of `run_parallel`, leave nothing behind either.
/// The merged machine gets the caller's flags back over empty sinks,
/// and the series and digests are still the serial run's.
#[test]
fn a_partitioned_run_fills_no_sink_it_would_throw_away() {
    let observed = || {
        let mut m = build(TrafficPattern::AllToAll, Dims::mesh(3, 2, 2), 1, 2048);
        m.set_telemetry_enabled(true);
        m.set_causal_enabled(true);
        m
    };
    let mut serial = observed().into_engine();
    assert_eq!(serial.run(), RunOutcome::Drained);
    let m = serial.model();
    assert!(m.causal().made() > 0 && !m.telemetry().spans().is_empty());

    let (shards, _) = observed().split(2);
    for shard in shards {
        assert!(!shard.telemetry().is_enabled() && !shard.causal().is_enabled());
        // Alone, a shard runs its own nodes and defers every send.
        let mut engine = shard.into_engine();
        engine.run();
        let shard = engine.model();
        assert_eq!(shard.causal().made(), 0);
        assert!(shard.telemetry().spans().is_empty());
    }

    let par = run_parallel(observed(), 2);
    assert_eq!(par.outcome, RunOutcome::Drained);
    assert_eq!(par.digest, serial.digest());
    assert_eq!(par.state_fingerprint, serial.state_fingerprint());
    let merged = &par.machine;
    assert!(merged.telemetry().is_enabled() && merged.causal().is_enabled());
    assert_eq!(merged.causal().made(), 0);
    assert!(merged.telemetry().spans().is_empty());
    let json = |m: &Machine| m.link_series().expect("series on").to_json();
    assert_eq!(json(merged), json(m));
}
