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
//! their exact counts), and isolates a node for the very pool its row
//! shrank; an isolated node takes no header after its panic, and no cell
//! runs out its event budget.

use xt3_firmware::control::{FwConfig, FwError};
use xt3_node::config::{ExhaustionPolicy, MachineConfig};
use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, traffic_machine_cfg, PatternStats, TrafficPattern,
};
use xt3_node::{Machine, PanicCause};
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

/// One cell of the matrix, run serially.
struct Cell {
    name: String,
    /// The table its row shrank ("paper": none).
    pool: &'static str,
    digest: u64,
    stats: PatternStats,
    /// Why each node the run isolated was isolated, in node order.
    isolated: Vec<PanicCause>,
}

/// Run serially; the outcome, digest, the pattern's end state, the
/// cause of every isolated node and which nodes made go-back-n state.
fn serial(
    pattern: TrafficPattern,
    fw: FwConfig,
    policy: ExhaustionPolicy,
) -> (RunOutcome, u64, PatternStats, Vec<PanicCause>, Vec<bool>) {
    let mut engine = machine(pattern, fw, policy)
        .into_engine()
        .with_event_budget(EVENT_BUDGET);
    let outcome = engine.run();
    let digest = engine.digest();
    let mut m = engine.into_model();
    let isolated = m.nodes.iter().filter_map(|n| n.panic_cause()).collect();
    let peer_state = m.nodes.iter().map(|n| n.holds_peer_state()).collect();
    (outcome, digest, pattern_stats(&mut m), isolated, peer_state)
}

/// Every configuration of the matrix: the paper's, then each table at
/// 2, 4 and 8 — the table shrunk, the row's name, the firmware sizes.
fn configs() -> Vec<(&'static str, String, FwConfig)> {
    let mut out = vec![("paper", "paper".to_string(), FwConfig::default())];
    for (name, knob) in KNOBS {
        for value in [2, 4, 8] {
            let mut fw = FwConfig::default();
            *knob(&mut fw) = value;
            out.push((name, format!("{name}={value}"), fw));
        }
    }
    out
}

/// Run every cell of the matrix under `policy`; each cell's end state.
/// Every cell drains with every put counted, byte-exact; one that lost
/// nothing received each put exactly once. Go-back-n state is made on
/// first use: under go-back-n on exactly the nodes that sequenced (sent
/// or were sent a put), under Panic on none.
fn matrix(policy: ExhaustionPolicy) -> Vec<Cell> {
    let dims = Dims::mesh(4, 4, 2);
    let seed = MachineConfig::paper(dims).seed;
    let mut cells = Vec::new();
    for pattern in PATTERNS {
        let want = expected_hdr_sum(pattern, dims, 1, seed);
        let targets = pattern.targets(dims, seed);
        let sent: u64 = targets.iter().map(|t| t.len() as u64).sum();
        let sequenced: Vec<bool> = (0..targets.len() as u32)
            .map(|i| !targets[i as usize].is_empty() || targets.iter().any(|t| t.contains(&i)))
            .collect();
        let peer_state_on = match policy {
            ExhaustionPolicy::GoBackN => sequenced,
            ExhaustionPolicy::Panic => vec![false; targets.len()],
        };
        for (pool, fw_name, fw) in configs() {
            let name = format!("{} {fw_name} {policy:?}", pattern.name());
            let (outcome, digest, stats, isolated, peer_state) = serial(pattern, fw, policy);
            assert_eq!(outcome, RunOutcome::Drained, "{name}: must drain");
            assert!(!stats.corrupt, "{name}: byte-exact");
            let counted = stats.received + stats.outstanding;
            assert_eq!(counted, sent, "{name}: every put counted");
            if stats.outstanding == 0 {
                assert_eq!(stats.hdr_sum, want, "{name}: each put exactly once");
            }
            assert_eq!(
                peer_state, peer_state_on,
                "{name}: go-back-n state where used"
            );
            cells.push(Cell {
                name,
                pool,
                digest,
                stats,
                isolated,
            });
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
    for cell in matrix(ExhaustionPolicy::GoBackN) {
        let name = &cell.name;
        assert_eq!(cell.stats.outstanding, 0, "{name}: every put arrives");
        let (pattern, (_, _, fw)) = par.next().expect("one twin a cell");
        let run = run_parallel(machine(pattern, fw, ExhaustionPolicy::GoBackN), 2);
        assert_eq!(run.outcome, RunOutcome::Drained, "{name}: 2 workers drain");
        assert_eq!(run.digest, cell.digest, "{name}: 2 workers == serial");
    }
}

#[test]
fn a_shrunken_source_pool_under_panic_loses_what_it_panics() {
    // A header panics its target only when all eight of its sources are
    // busy. A panicked target goes down, as paper §4.3's node does: it
    // takes no header after its panic, so every put still aimed at it is
    // lost, and the rest of the machine still drains.
    let pinned = [
        ("alltoall sources=8 Panic", 56, 936),
        ("incast sources=8 Panic", 0, 31),
    ];
    let cells = matrix(ExhaustionPolicy::Panic);
    for (name, received, lost) in pinned {
        let stats = &cells.iter().find(|c| c.name == name).expect("cell").stats;
        assert_eq!(
            (stats.received, stats.outstanding),
            (received, lost),
            "{name}"
        );
    }
    // What was lost was lost to isolated nodes, each for the pool its
    // row shrank; a cell that lost nothing isolated nothing.
    for cell in &cells {
        let name = &cell.name;
        if cell.stats.outstanding == 0 {
            assert_eq!(
                cell.isolated,
                [],
                "{name}: a lossless cell isolates no node"
            );
            continue;
        }
        assert!(
            !cell.isolated.is_empty(),
            "{name}: a lost put isolated a node"
        );
        let cause = match cell.pool {
            "sources" => PanicCause::Firmware(FwError::NoSource),
            "rx_pendings" => PanicCause::Firmware(FwError::NoRxPending),
            pool => panic!("{name}: the {pool} row lost puts"),
        };
        for isolated in &cell.isolated {
            assert_eq!(*isolated, cause, "{name}: isolated for its own pool");
        }
    }
}

#[test]
fn a_panicked_node_takes_no_header_after_its_panic() {
    // Step the all-to-all with eight sources to drain, noting each node's
    // received headers at the step it panicked.
    let fw = FwConfig {
        sources: 8,
        ..FwConfig::default()
    };
    let mut engine = machine(TrafficPattern::AllToAll, fw, ExhaustionPolicy::Panic).into_engine();
    let mut at_panic = vec![None; engine.model().nodes.len()];
    let mut steps = 0u64;
    while engine.step() {
        steps += 1;
        assert!(steps < EVENT_BUDGET, "the cell must drain");
        for (seen, n) in at_panic.iter_mut().zip(&engine.model().nodes) {
            if seen.is_none() && n.panic_cause().is_some() {
                *seen = Some(n.fw.counters().rx_headers);
            }
        }
    }
    let m = engine.model();
    let mut panicked = 0;
    let mut after = 0;
    for (seen, n) in at_panic.iter().zip(&m.nodes) {
        if let Some(at) = seen {
            panicked += 1;
            after += n.fw.counters().rx_headers - at;
        }
    }
    assert!(panicked > 0, "the cell panics a node");
    assert_eq!(
        after, 0,
        "headers taken by panicked nodes after their panic"
    );
    assert_eq!(
        m.dark_nodes().len(),
        panicked,
        "every panicked node is down"
    );
}
