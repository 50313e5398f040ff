//! The machines more than one command builds: the digest-pinned deep
//! machines of `perf core`, the contended 8x8x8 all-to-all and its
//! observed twin (also `mem_footprint`'s observed row), the Red Storm
//! neighbour push, and the two-node put pair behind the small tables.

use xt3_netpipe::ptl::{Layout, PtlInitiator, PtlPattern, PtlResponder};
use xt3_netpipe::{RoundResult, Schedule};
use xt3_node::config::{MachineConfig, NodeSpec, OsKind, ProcSpec};
use xt3_node::workloads::{red_storm_machine, traffic_machine, TrafficPattern};
use xt3_node::Machine;
use xt3_sim::{RunOutcome, SimTime};
use xt3_telemetry::{LinkSeries, SeriesConfig, SeriesSet};
use xt3_topology::coord::Dims;

/// The full 10,368-node Red Storm shape.
pub fn full_machine() -> Dims {
    Dims::red_storm(27, 16, 24)
}

/// Message size of [`red_storm`]'s pushes.
pub const NEIGHBOR_MSG: u64 = 16 * 1024;

/// `rounds` rounds of every node pushing 16 KiB to its +x neighbour —
/// the benchmark's `redstorm_round` workload, from the same constructor.
pub fn red_storm(dims: Dims, rounds: u32) -> Machine {
    red_storm_machine(dims, rounds, NEIGHBOR_MSG)
}

/// The contended 512-node machine: one round of 4 KiB all-to-all on the
/// 8x8x8 torus (108k events pending at the median) — the first phase of
/// the benchmark's `torus512_alltoall`.
pub fn torus512_alltoall() -> Machine {
    traffic_machine(TrafficPattern::AllToAll, Dims::red_storm(8, 8, 8), 1, 4096)
}

/// Turn on the named observation sinks: the span registry, the causal
/// log, and the per-link series with the given geometry. All three are
/// digest-neutral.
pub fn observe(m: &mut Machine, registry: bool, causal: bool, series: Option<SeriesConfig>) {
    if registry {
        m.config.telemetry = true;
        m.set_telemetry_enabled(true);
    }
    m.set_causal_enabled(causal);
    if let Some(config) = series {
        m.enable_link_series(config);
    }
}

/// Every link `series` holds a lane for.
pub fn links(series: &SeriesSet) -> impl Iterator<Item = &LinkSeries> {
    let nodes = 0..series.node_slots() as u32;
    nodes.flat_map(move |node| (0..6u8).filter_map(move |port| series.link(node, port)))
}

/// Deep-queue scenario: name, machine, pinned event digest.
pub type Deep = (&'static str, fn() -> Machine, u64);

/// The plain 512-node row `sink_overhead` divides by.
pub const PLAIN: &str = "deep/torus512-alltoall";
/// The observed 512-node row `sink_overhead` divides.
pub const OBSERVED: &str = "deep/torus512-alltoall+sinks";

/// The machines whose queue depth and sink price `perf core` times. The
/// observed twin is pinned to the plain row's digest: digest-neutrality
/// inside the gate.
pub const DEEP: [Deep; 3] = [
    (PLAIN, torus512_alltoall, 0x511b_a982_3961_2dd5),
    (
        OBSERVED,
        || {
            let mut m = torus512_alltoall();
            observe(&mut m, true, true, Some(SeriesConfig::default()));
            m
        },
        0x511b_a982_3961_2dd5,
    ),
    (
        "deep/redstorm-8round",
        || red_storm(full_machine(), 8),
        0x4d63_ac28_4b90_1695,
    ),
];

/// A finished [`put_pair`] run.
pub struct PutPair {
    /// The machine, drained.
    pub machine: Machine,
    /// Simulated time at the end.
    pub now: SimTime,
    /// The initiator's per-size measurements.
    pub rounds: Vec<RoundResult>,
}

impl PutPair {
    /// The first size's latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.rounds.first().map_or(f64::NAN, |r| r.latency_us())
    }
}

/// Run `reps` puts of `size` bytes in `pattern` from node 0 to the last
/// node of `config`'s machine (Catamount, one process each), to the end.
pub fn put_pair(
    config: MachineConfig,
    pattern: PtlPattern,
    size: u64,
    reps: u32,
    accelerated: bool,
) -> PutPair {
    let schedule = Schedule::fixed(size, reps);
    let far = config.dims.node_count() - 1;
    let proc = ProcSpec {
        accelerated,
        mem_bytes: Layout::for_max(size).mem_bytes as usize,
        ..ProcSpec::catamount_generic()
    };
    let mut m = Machine::new(
        config,
        &[NodeSpec {
            os: OsKind::Catamount,
            procs: vec![proc],
        }],
    );
    let initiator = PtlInitiator::with_peer(pattern, schedule.clone(), far);
    m.spawn(0, 0, Box::new(initiator));
    m.spawn(far, 0, Box::new(PtlResponder::new(pattern, schedule)));
    let mut engine = m.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained, "put pair must drain");
    let now = engine.now();
    let mut machine = engine.into_model();
    assert_eq!(machine.running_apps(), 0, "both apps must finish");
    let mut app = machine.take_app(0, 0).expect("initiator");
    let initiator = app.as_any().downcast_mut::<PtlInitiator>();
    let rounds = std::mem::take(&mut initiator.expect("node 0 runs the initiator").results);
    PutPair {
        machine,
        now,
        rounds,
    }
}
