//! Idle-source reclaim: a node serves more peers than it has source
//! structures.
//!
//! Paper §4.2 sizes the firmware's pool at 1,024 sources; §4.3 panics a
//! node that runs out. A 4×4×2 machine whose pool is shrunk below its
//! peer count is the same ceiling at tier-1 speed. Under go-back-n a
//! refused header is NACKed and retransmitted, and a dry pool gives back
//! a source that nothing is in flight on, so every cell drains exactly
//! once and byte-exact, serially and on the 2-worker window driver.
//! Under the panic policy a header that finds every source busy panics
//! its target, as §4.3 says; those rows are pinned with their exact
//! counts.

use xt3_node::config::{ExhaustionPolicy, MachineConfig};
use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, traffic_machine_cfg, PatternStats, TrafficPattern,
};
use xt3_node::Machine;
use xt3_sim::RunOutcome;
use xt3_topology::coord::Dims;

/// Far above what any cell here dispatches; a livelock stops at it
/// instead of hanging the suite.
const EVENT_BUDGET: u64 = 5_000_000;

fn machine(pattern: TrafficPattern, sources: u32, policy: ExhaustionPolicy) -> Machine {
    let mut config = MachineConfig::paper(Dims::mesh(4, 4, 2));
    config.synthetic_payload = false;
    config.fw.sources = sources;
    config.exhaustion = policy;
    traffic_machine_cfg(pattern, config, 1, 64)
}

/// Run serially; the outcome, digest and the pattern's end state.
fn serial(
    pattern: TrafficPattern,
    sources: u32,
    policy: ExhaustionPolicy,
) -> (RunOutcome, u64, PatternStats) {
    let mut engine = machine(pattern, sources, policy)
        .into_engine()
        .with_event_budget(EVENT_BUDGET);
    let outcome = engine.run();
    let digest = engine.digest();
    let mut m = engine.into_model();
    (outcome, digest, pattern_stats(&mut m))
}

#[test]
fn a_shrunken_source_pool_drains_under_go_back_n() {
    let dims = Dims::mesh(4, 4, 2);
    let seed = MachineConfig::paper(dims).seed;
    for pattern in [TrafficPattern::AllToAll, TrafficPattern::Incast] {
        for sources in [8, 16, 30] {
            let cell = format!("{} with {sources} sources", pattern.name());
            let (outcome, digest, stats) = serial(pattern, sources, ExhaustionPolicy::GoBackN);
            assert_eq!(outcome, RunOutcome::Drained, "{cell}: must drain");
            assert_eq!(stats.outstanding, 0, "{cell}: every put arrives");
            assert!(!stats.corrupt, "{cell}: byte-exact");
            let want = expected_hdr_sum(pattern, dims, 1, seed);
            assert_eq!(stats.hdr_sum, want, "{cell}: each put exactly once");
            let par = run_parallel(machine(pattern, sources, ExhaustionPolicy::GoBackN), 2);
            assert_eq!(par.outcome, RunOutcome::Drained, "{cell}: 2 workers drain");
            assert_eq!(par.digest, digest, "{cell}: 2 workers == serial");
        }
    }
}

#[test]
fn a_shrunken_source_pool_under_panic_loses_what_it_panics() {
    // (pattern, received, outstanding) with 8 sources. A header panics
    // its target only when all eight of its sources are busy; before
    // reclaim every header past the eighth peer did (256 received and
    // 736 lost on the all-to-all). A panicked target takes no more
    // headers, and the run still drains.
    let pinned = [
        (TrafficPattern::AllToAll, 681, 311),
        (TrafficPattern::Incast, 8, 23),
    ];
    for (pattern, received, lost) in pinned {
        let (outcome, _, stats) = serial(pattern, 8, ExhaustionPolicy::Panic);
        assert_eq!(outcome, RunOutcome::Drained, "{}", pattern.name());
        assert_eq!(
            (stats.received, stats.outstanding),
            (received, lost),
            "{}",
            pattern.name()
        );
    }
}
