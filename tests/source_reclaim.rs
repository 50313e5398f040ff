//! The shrunken-SRAM matrix: a node serves more peers than its firmware
//! has room for.
//!
//! Paper §4.2 sizes the firmware's tables — 1,024 sources, 768 RX and 506
//! TX pendings a process, a 64-command mailbox — and §4.3 panics a node
//! that runs out. A 4×4×2 machine with one of those shrunk to 2, 4 or 8
//! (the others at the paper's value) is the same ceiling at tier-1 speed,
//! under all-to-all, incast and uniform traffic. Under go-back-n a
//! refused header is NACKed and retransmitted, and a dry source pool gives
//! back a source that nothing is in flight on, so every cell drains
//! exactly once and byte-exact, serially and on the 2-worker window
//! driver. Under the panic policy a cell either does the same or loses
//! exactly what `pattern_stats` says is missing (the source-pool rows with
//! their exact counts); no cell runs out its event budget.

use xt3_firmware::control::FwConfig;
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

/// One firmware table's size.
type Knob = fn(&mut FwConfig) -> &mut u32;

/// The firmware tables the matrix shrinks, one at a time.
const KNOBS: [(&str, Knob); 4] = [
    ("sources", |fw| &mut fw.sources),
    ("rx_pendings", |fw| &mut fw.rx_pendings),
    ("tx_pendings", |fw| &mut fw.tx_pendings),
    ("mailbox_depth", |fw| &mut fw.mailbox_depth),
];

const PATTERNS: [TrafficPattern; 3] = [
    TrafficPattern::AllToAll,
    TrafficPattern::Incast,
    TrafficPattern::Uniform,
];

fn machine(pattern: TrafficPattern, fw: FwConfig, policy: ExhaustionPolicy) -> Machine {
    let mut config = MachineConfig::paper(Dims::mesh(4, 4, 2));
    config.synthetic_payload = false;
    config.fw = fw;
    config.exhaustion = policy;
    traffic_machine_cfg(pattern, config, 1, 64)
}

/// Run serially; the outcome, digest and the pattern's end state.
fn serial(
    pattern: TrafficPattern,
    fw: FwConfig,
    policy: ExhaustionPolicy,
) -> (RunOutcome, u64, PatternStats) {
    let mut engine = machine(pattern, fw, policy)
        .into_engine()
        .with_event_budget(EVENT_BUDGET);
    let outcome = engine.run();
    let digest = engine.digest();
    let mut m = engine.into_model();
    (outcome, digest, pattern_stats(&mut m))
}

/// Every configuration of the matrix: the paper's, then each table at
/// 2, 4 and 8.
fn configs() -> Vec<(String, FwConfig)> {
    let mut out = vec![("paper".to_string(), FwConfig::default())];
    for (name, knob) in KNOBS {
        for value in [2, 4, 8] {
            let mut fw = FwConfig::default();
            *knob(&mut fw) = value;
            out.push((format!("{name}={value}"), fw));
        }
    }
    out
}

/// Run every cell of the matrix under `policy`; each cell's end state.
/// Every cell drains with every put counted, byte-exact; one that lost
/// nothing received each put exactly once.
fn matrix(policy: ExhaustionPolicy) -> Vec<(String, u64, PatternStats)> {
    let dims = Dims::mesh(4, 4, 2);
    let seed = MachineConfig::paper(dims).seed;
    let mut cells = Vec::new();
    for pattern in PATTERNS {
        let want = expected_hdr_sum(pattern, dims, 1, seed);
        let targets = pattern.targets(dims, seed);
        let sent: u64 = targets.iter().map(|t| t.len() as u64).sum();
        for (fw_name, fw) in configs() {
            let cell = format!("{} {fw_name} {policy:?}", pattern.name());
            let (outcome, digest, stats) = serial(pattern, fw, policy);
            assert_eq!(outcome, RunOutcome::Drained, "{cell}: must drain");
            assert!(!stats.corrupt, "{cell}: byte-exact");
            let counted = stats.received + stats.outstanding;
            assert_eq!(counted, sent, "{cell}: every put counted");
            if stats.outstanding == 0 {
                assert_eq!(stats.hdr_sum, want, "{cell}: each put exactly once");
            }
            cells.push((cell, digest, stats));
        }
    }
    cells
}

#[test]
fn a_shrunken_source_pool_drains_under_go_back_n() {
    // Every table, every pattern: nothing is lost, and the 2-worker window
    // driver reproduces the serial run.
    let mut par = PATTERNS
        .iter()
        .flat_map(|&p| configs().into_iter().map(move |c| (p, c)));
    for (cell, digest, stats) in matrix(ExhaustionPolicy::GoBackN) {
        assert_eq!(stats.outstanding, 0, "{cell}: every put arrives");
        let (pattern, (_, fw)) = par.next().expect("one twin a cell");
        let run = run_parallel(machine(pattern, fw, ExhaustionPolicy::GoBackN), 2);
        assert_eq!(run.outcome, RunOutcome::Drained, "{cell}: 2 workers drain");
        assert_eq!(run.digest, digest, "{cell}: 2 workers == serial");
    }
}

#[test]
fn a_shrunken_source_pool_under_panic_loses_what_it_panics() {
    // A header panics its target only when all eight of its sources are
    // busy; before reclaim every header past the eighth peer did (256
    // received and 736 lost on the all-to-all). A panicked target takes
    // no more headers, and the run still drains.
    let pinned = [
        ("alltoall sources=8 Panic", 681, 311),
        ("incast sources=8 Panic", 8, 23),
    ];
    let cells = matrix(ExhaustionPolicy::Panic);
    for (name, received, lost) in pinned {
        let (_, _, stats) = cells.iter().find(|c| c.0 == name).expect("cell");
        assert_eq!(
            (stats.received, stats.outstanding),
            (received, lost),
            "{name}"
        );
    }
}
