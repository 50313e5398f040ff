//! Serial/parallel differential suite.
//!
//! The parallel engine's contract is *bit-identity*: for any worker
//! count, a partitioned run must produce the same event digest, the same
//! model state fingerprint (trace digest + fault decisions + per-node
//! health counters) and the same telemetry-report JSON as the serial
//! engine. This suite enforces that over every NetPIPE scenario in
//! `scenario_matrix()` plus the Red Storm nearest-neighbor workload, at
//! worker counts {1, 2, 3, 8} (clamped to the node count — the NetPIPE
//! pairs degenerate to 2 shards, which still exercises the full
//! deferred-send window protocol; Red Storm exercises real fan-out).

use xt3_netpipe::runner::{build_machine, scenario_matrix, scenario_name, NetpipeConfig};
use xt3_node::config::MachineConfig;
use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, red_storm_machine, sparse_pairs_machine, traffic_machine_cfg,
    TrafficPattern,
};
use xt3_node::Machine;
use xt3_sim::{FaultPlan, RunOutcome, SimTime, TimeWindow};
use xt3_topology::coord::Dims;

const WORKERS: [usize; 4] = [1, 2, 3, 8];

struct SerialRef {
    digest: u64,
    fingerprint: u64,
    dispatched: u64,
    now: SimTime,
    telemetry: String,
}

fn serial_reference(machine: Machine, label: &str) -> SerialRef {
    let mut engine = machine.into_engine();
    let outcome = engine.run();
    assert_eq!(outcome, RunOutcome::Drained, "{label}: serial must drain");
    let digest = engine.digest();
    let fingerprint = engine.state_fingerprint();
    let dispatched = engine.dispatched();
    let now = engine.now();
    let m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "{label}: serial apps must finish");
    let telemetry = m.telemetry_report(label, now).to_json();
    SerialRef {
        digest,
        fingerprint,
        dispatched,
        now,
        telemetry,
    }
}

/// Run `build` serially and at every worker count in [`WORKERS`], assert
/// each parallel run matches serial, and hand back the merged machines
/// (with their worker counts) for checks of the caller's own.
fn assert_parallel_matches(build: impl Fn() -> Machine, label: &str) -> Vec<(usize, Machine)> {
    let reference = serial_reference(build(), label);
    let mut merged = Vec::new();
    for workers in WORKERS {
        let run = run_parallel(build(), workers);
        assert_eq!(
            run.outcome,
            RunOutcome::Drained,
            "{label}@{workers}: parallel must drain"
        );
        assert_eq!(
            run.digest, reference.digest,
            "{label}@{workers}: event digest diverged"
        );
        assert_eq!(
            run.state_fingerprint, reference.fingerprint,
            "{label}@{workers}: state fingerprint diverged"
        );
        assert_eq!(
            run.dispatched, reference.dispatched,
            "{label}@{workers}: dispatch count diverged"
        );
        assert_eq!(
            run.now, reference.now,
            "{label}@{workers}: final time diverged"
        );
        assert_eq!(
            run.machine.running_apps(),
            0,
            "{label}@{workers}: parallel apps must finish"
        );
        let telemetry = run.machine.telemetry_report(label, run.now).to_json();
        assert_eq!(
            telemetry, reference.telemetry,
            "{label}@{workers}: telemetry report diverged"
        );
        merged.push((workers, run.machine));
    }
    merged
}

/// `NetpipeConfig::quick(max_size)` with the telemetry sink on.
fn observed(max_size: u64) -> NetpipeConfig {
    let mut config = NetpipeConfig::quick(max_size);
    config.machine.telemetry = true;
    config
}

/// Every NetPIPE scenario (4 transports x 3 kinds), serial vs parallel.
#[test]
fn netpipe_scenarios_bit_identical_under_parallelism() {
    let config = observed(4096);
    for (transport, kind) in scenario_matrix() {
        let label = scenario_name(transport, kind);
        assert_parallel_matches(|| build_machine(&config, transport, kind), &label);
    }
}

/// The RMA-native workloads — the 4-rank DHT (accumulate inserts + get
/// lookups over fences) and the 8-rank window-driven halo exchange —
/// serial vs parallel at every tested worker count. These push the
/// one-sided machinery (dissemination-barrier fences, per-target
/// accumulate serialization, atomic header handling) through the
/// partitioned engine.
#[test]
fn rma_workloads_bit_identical_under_parallelism() {
    use xt3_netpipe::rma::{dht_machine, window_halo_machine, RmaWorkloadConfig};
    let cfg = RmaWorkloadConfig::audit();
    let observed = |build: fn(&RmaWorkloadConfig) -> Machine| {
        let mut m = build(&cfg);
        m.set_telemetry_enabled(true);
        m
    };
    assert_parallel_matches(|| observed(dht_machine), "rma-dht");
    assert_parallel_matches(|| observed(window_halo_machine), "rma-window-halo");
}

/// The RMA NetPIPE transport (put ping-pong over windows with fence
/// round boundaries), serial vs parallel.
#[test]
fn rma_netpipe_bit_identical_under_parallelism() {
    let config = observed(2048);
    let transport = xt3_netpipe::runner::Transport::Rma;
    for kind in [
        xt3_netpipe::runner::TestKind::PingPong,
        xt3_netpipe::runner::TestKind::Stream,
    ] {
        let label = scenario_name(transport, kind);
        assert_parallel_matches(|| build_machine(&config, transport, kind), &label);
    }
}

/// The Red Storm nearest-neighbor workload at a multi-shard node count.
#[test]
fn red_storm_bit_identical_under_parallelism() {
    // 4x3x2 = 24 nodes: every tested worker count gets distinct slabs.
    let dims = Dims::red_storm(4, 3, 2);
    assert_parallel_matches(|| red_storm_machine(dims, 2, 4 * 1024), "red-storm-4x3x2");
}

/// Sparse peers across an otherwise idle machine: only three node pairs
/// exchange traffic, so most nodes never materialize their
/// demand-allocated state (GBN peer maps, pending stores, address-space
/// backing) and — at every tested worker count — several shards are
/// idle in most windows. This pins down two things at once: lazily
/// created state cannot leak into digests or fingerprints, and the
/// idle-shard-skipping / solo-shard-sprint paths in the window driver
/// are bit-identical to serial.
#[test]
fn sparse_peers_bit_identical_under_parallelism() {
    // 60 nodes; pairs span distant slabs so every worker count in
    // WORKERS leaves at least one shard with no traffic at all.
    let dims = Dims::red_storm(5, 4, 3);
    let pairs = [(0, 59), (7, 23), (31, 32)];
    assert_parallel_matches(
        || sparse_pairs_machine(dims, &pairs, 2, 4 * 1024),
        "sparse-peers-5x4x3",
    );
}

/// Fault injection (drops, corruption, reorders, go-back-n recovery)
/// stays bit-identical under parallelism: packet fates are hash-derived
/// from message identity, not draw order.
#[test]
fn faulty_wire_bit_identical_under_parallelism() {
    let mut config = observed(2048);
    config.machine = config
        .machine
        .with_faults(xt3_sim::FaultPlan::wire(0xFA17_5EED, 0.08));
    for (transport, kind) in [
        (
            xt3_netpipe::runner::Transport::Put,
            xt3_netpipe::runner::TestKind::Stream,
        ),
        (
            xt3_netpipe::runner::Transport::Mpich2,
            xt3_netpipe::runner::TestKind::PingPong,
        ),
    ] {
        let label = format!("faulty-{}", scenario_name(transport, kind));
        assert_parallel_matches(|| build_machine(&config, transport, kind), &label);
    }
}

/// Every receiver verifies each arrival byte by byte against its
/// sender's pattern, and the arrivals' provenance sum.
fn assert_payloads_verified(
    m: &mut Machine,
    pattern: TrafficPattern,
    dims: Dims,
    rounds: u32,
    label: &str,
) {
    let stats = pattern_stats(m);
    assert!(!stats.corrupt, "{label}: a payload failed verification");
    assert_eq!(stats.outstanding, 0, "{label}: arrivals missing");
    assert_eq!(
        stats.hdr_sum,
        expected_hdr_sum(pattern, dims, rounds, MachineConfig::paper(dims).seed),
        "{label}: provenance sum"
    );
}

/// Real payload bytes through the partitioned engine. In a parallel run
/// the box of every delivered header is emptied by the consuming shard,
/// rides home in one of its intents and carries a later message; digests
/// only see lengths and tags, so this is the check that a recycled box
/// never delivers the message it held before. Two sizes: inside the
/// 12-byte piggyback window and a multi-packet body, over several rounds
/// so boxes are reused many times.
#[test]
fn real_payloads_verify_through_recycled_delivery_boxes() {
    let dims = Dims::red_storm(4, 3, 2);
    let rounds = 3;
    for pattern in [
        TrafficPattern::Uniform,
        TrafficPattern::Halo3d,
        TrafficPattern::AllToAll,
    ] {
        for msg in [8, 3000] {
            let build = || {
                let mut config = MachineConfig::paper(dims);
                config.synthetic_payload = false;
                traffic_machine_cfg(pattern, config, rounds, msg)
            };
            let label = format!("{}-{msg}B", pattern.name());
            for (workers, mut m) in assert_parallel_matches(build, &label) {
                assert_payloads_verified(
                    &mut m,
                    pattern,
                    dims,
                    rounds,
                    &format!("{label}@{workers}"),
                );
            }
        }
    }
}

/// Go-back-n under a plan that drives every way `on_net_header` refuses a
/// header — end-to-end CRC rejects, out-of-order and duplicate arrivals,
/// and an SRAM squeeze on every node — with real payloads. Each refused
/// header hands its delivery box back at once, and a parallel run sends
/// it home to carry a later message: every byte is verified, and every
/// worker count must match serial exactly.
#[test]
fn go_back_n_refusals_bit_identical_under_parallelism() {
    let dims = Dims::red_storm(4, 3, 2);
    let (rounds, msg) = (2, 2048);
    let pattern = TrafficPattern::AllToAll;
    let build = || {
        let mut config = MachineConfig::paper(dims).with_faults(
            FaultPlan::wire(0x6B4E_5EED, 0.06).with_sram_pulse(
                None,
                TimeWindow::new(SimTime::from_us(4), SimTime::from_us(12)),
            ),
        );
        config.synthetic_payload = false;
        traffic_machine_cfg(pattern, config, rounds, msg)
    };
    let mut serial = build().into_engine();
    assert_eq!(serial.run(), RunOutcome::Drained, "serial must drain");
    let mut m = serial.into_model();
    let faults = m.fault_stats();
    assert!(
        faults.corrupted > 0 && faults.reordered > 0 && faults.sram_rejections > 0,
        "the plan must corrupt, reorder and squeeze: {faults:?}"
    );
    assert!(
        m.total_gbn_retransmissions() > 0,
        "go-back-n must retransmit"
    );
    assert_payloads_verified(&mut m, pattern, dims, rounds, "gbn-refusals");
    for (workers, mut m) in assert_parallel_matches(build, "gbn-refusals") {
        assert_payloads_verified(
            &mut m,
            pattern,
            dims,
            rounds,
            &format!("gbn-refusals@{workers}"),
        );
    }
}
