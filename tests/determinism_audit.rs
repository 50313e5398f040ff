//! Tier-1 determinism audit: the replay-divergence checker and the
//! engine digest contract, run as part of the ordinary test suite so a
//! nondeterminism regression fails `cargo test`, not just CI's dedicated
//! audit step.

use audit::replay;

/// Every NetPIPE scenario, every e2e configuration, the fault-injected
/// replay, the RMA workloads (DHT, window-halo), the five congestion
/// traffic patterns, and the accelerated / interop / Linux-bridge /
/// heartbeat machine paths, built twice from identical state and stepped in
/// lockstep: the digests must agree after every single event. On failure
/// the checker names the scenario and the first divergent event index.
#[test]
fn replay_scenarios_never_diverge() {
    let runs = replay::check_all().unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(
        runs.len(),
        29,
        "scenario inventory changed; update this count"
    );
    for run in &runs {
        assert!(
            run.dispatched > 0,
            "scenario `{}` dispatched nothing — it tests nothing",
            run.name
        );
    }
}

/// Every replay scenario, re-run on the parallel window driver: the
/// partitioned run — with fault injection, telemetry *and* causal
/// tracing enabled on the parallel side — must reproduce the serial
/// digest, state fingerprint, clock and dispatch count. This folds the
/// serial/parallel equivalence into the same tier-1 audit that guards
/// serial replay determinism.
#[test]
fn replay_scenarios_match_under_parallelism() {
    for scenario in replay::all_scenarios() {
        for workers in [2, 3] {
            scenario
                .check_parallel(workers)
                .unwrap_or_else(|d| panic!("{d}"));
        }
    }
}

/// Same seed ⇒ same digest and same event count (run separately, not in
/// lockstep, so this also covers the "two independent processes" shape).
#[test]
fn same_seed_yields_identical_digest() {
    let run = |seed: u64| {
        let mut e = replay::crc_noise_engine(seed);
        e.run();
        (e.digest(), e.dispatched())
    };
    assert_eq!(run(0xC0FFEE), run(0xC0FFEE));
}

/// Different seeds must yield different digests: the seed drives CRC
/// error injection, so the event streams genuinely differ. If this fails
/// the digest has stopped covering event content.
#[test]
fn different_seed_yields_different_digest() {
    let digest = |seed: u64| {
        let mut e = replay::crc_noise_engine(seed);
        e.run();
        e.digest()
    };
    assert_ne!(digest(0xC0FFEE), digest(0xBEEF));
}
