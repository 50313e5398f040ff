//! Machine assembly and test execution: one call per paper curve.

use crate::mpi::{MpiDriver, MpiPattern};
use crate::ptl::{Layout, PtlInitiator, PtlPattern, PtlResponder};
use crate::report::{bandwidth_series, latency_series, RoundResult, Series};
use crate::rma::{RmaDriver, RmaLayout, RmaPattern};
use crate::schedule::Schedule;
use xt3_mpi::Personality;
use xt3_node::config::{MachineConfig, NodeSpec, ProcSpec};
use xt3_node::Machine;
use xt3_sim::{RunOutcome, SimTime};
use xt3_telemetry::TelemetryReport;

/// Which transport a curve measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Portals put.
    Put,
    /// Portals get.
    Get,
    /// MPICH-1.2.6 over Portals.
    Mpich1,
    /// Cray MPICH2 over Portals.
    Mpich2,
    /// MPI-3 one-sided (RMA) over Portals windows.
    Rma,
}

impl Transport {
    /// The curve label used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Put => "put",
            Transport::Get => "get",
            Transport::Mpich1 => "mpich-1.2.6",
            Transport::Mpich2 => "mpich2",
            Transport::Rma => "mpi-rma",
        }
    }
}

/// Which test pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// Ping-pong (Figs. 4 and 5).
    PingPong,
    /// Uni-directional streaming (Fig. 6).
    Stream,
    /// Bidirectional (Fig. 7).
    Bidir,
}

/// Configuration of one NetPIPE run.
#[derive(Debug, Clone)]
pub struct NetpipeConfig {
    /// The size sweep.
    pub schedule: Schedule,
    /// Run the accelerated-mode ablation instead of generic mode.
    pub accelerated: bool,
    /// The two-node machine the curve runs on: cost model, link, payload
    /// mode, telemetry and fault plan (set with
    /// [`MachineConfig::with_faults`]).
    pub machine: MachineConfig,
}

impl NetpipeConfig {
    /// The paper's full bandwidth sweep.
    pub fn paper() -> Self {
        NetpipeConfig {
            schedule: Schedule::paper(),
            accelerated: false,
            machine: MachineConfig::paper_pair(),
        }
    }

    /// The paper's latency sweep (Fig. 4 domain).
    pub fn paper_latency() -> Self {
        NetpipeConfig {
            schedule: Schedule::paper_latency(),
            ..Self::paper()
        }
    }

    /// A light configuration for tests.
    pub fn quick(max_size: u64) -> Self {
        NetpipeConfig {
            schedule: Schedule::quick(max_size),
            ..Self::paper()
        }
    }
}

/// Every `(transport, kind)` combination NetPIPE measures — the single
/// scenario enumeration shared by the replay-divergence audit and the
/// fault-injection campaign, so neither can silently cover less than the
/// other.
pub fn scenario_matrix() -> Vec<(Transport, TestKind)> {
    // `Transport::Rma` is deliberately absent: the audit covers RMA
    // through the dedicated DHT and window-halo workload scenarios
    // (`crate::rma`), which exercise strictly more of the one-sided
    // machinery (multi-rank fences, accumulate serialization) than a
    // two-node curve would.
    let transports = [
        Transport::Put,
        Transport::Get,
        Transport::Mpich1,
        Transport::Mpich2,
    ];
    let kinds = [TestKind::PingPong, TestKind::Stream, TestKind::Bidir];
    let mut out = Vec::with_capacity(transports.len() * kinds.len());
    for &t in &transports {
        for &k in &kinds {
            out.push((t, k));
        }
    }
    out
}

/// Stable display name for a scenario (used by audit failure output and
/// campaign reports).
pub fn scenario_name(transport: Transport, kind: TestKind) -> String {
    format!("netpipe/{}-{:?}", transport.label(), kind).to_lowercase()
}

fn machine_for(config: &NetpipeConfig, mem_bytes: u64) -> Machine {
    let proc = ProcSpec {
        accelerated: config.accelerated,
        mem_bytes: mem_bytes as usize,
        ..ProcSpec::catamount_generic()
    };
    Machine::new(
        config.machine.clone(),
        &[NodeSpec {
            os: xt3_node::config::OsKind::Catamount,
            procs: vec![proc],
        }],
    )
}

fn ptl_machine(config: &NetpipeConfig, pattern: PtlPattern) -> Machine {
    let layout = Layout::for_max(config.schedule.max_size());
    let mut m = machine_for(config, layout.mem_bytes);
    m.spawn(
        0,
        0,
        Box::new(PtlInitiator::new(pattern, config.schedule.clone())),
    );
    m.spawn(
        1,
        0,
        Box::new(PtlResponder::new(pattern, config.schedule.clone())),
    );
    m
}

fn ptl_symmetric_machine(config: &NetpipeConfig, pattern: PtlPattern) -> Machine {
    let layout = Layout::for_max(config.schedule.max_size());
    let mut m = machine_for(config, layout.mem_bytes);
    m.spawn(
        0,
        0,
        Box::new(PtlInitiator::with_peer(pattern, config.schedule.clone(), 1)),
    );
    m.spawn(
        1,
        0,
        Box::new(PtlInitiator::with_peer(pattern, config.schedule.clone(), 0)),
    );
    m
}

fn mpi_machine(config: &NetpipeConfig, pattern: MpiPattern, personality: Personality) -> Machine {
    let layout = crate::mpi::MpiLayout::for_max(config.schedule.max_size(), &personality);
    let mut m = machine_for(config, layout.mem_bytes);
    m.spawn(
        0,
        0,
        Box::new(MpiDriver::new(
            pattern,
            personality,
            config.schedule.clone(),
            0,
        )),
    );
    m.spawn(
        1,
        0,
        Box::new(MpiDriver::new(
            pattern,
            personality,
            config.schedule.clone(),
            1,
        )),
    );
    m
}

fn rma_machine(config: &NetpipeConfig, pattern: RmaPattern) -> Machine {
    let layout = RmaLayout::for_max(config.schedule.max_size());
    let mut m = machine_for(config, layout.mem_bytes);
    m.spawn(
        0,
        0,
        Box::new(RmaDriver::new(pattern, config.schedule.clone(), 0)),
    );
    m.spawn(
        1,
        0,
        Box::new(RmaDriver::new(pattern, config.schedule.clone(), 1)),
    );
    m
}

/// Build the fully-spawned engine for `(transport, kind)` without running
/// it. The replay-divergence audit (`crates/audit`) uses this to step two
/// identically-configured engines in lockstep and compare their event
/// digests; the `run_*` helpers below build through the same machine
/// constructors, so measurement runs and audit runs exercise exactly the
/// same construction path.
pub fn build_engine(
    config: &NetpipeConfig,
    transport: Transport,
    kind: TestKind,
) -> xt3_sim::Engine<Machine> {
    build_machine(config, transport, kind).into_engine()
}

/// Build the fully-spawned (unrun) machine for `(transport, kind)`. The
/// parallel differential suite uses this to hand the *same* machine
/// construction to `xt3_node::par::run_parallel`, so serial and parallel
/// runs compare nothing but the execution strategy.
pub fn build_machine(config: &NetpipeConfig, transport: Transport, kind: TestKind) -> Machine {
    match (transport, kind) {
        (Transport::Put, TestKind::PingPong) => ptl_machine(config, PtlPattern::PingPongPut),
        (Transport::Put, TestKind::Stream) => ptl_machine(config, PtlPattern::StreamPut),
        (Transport::Put, TestKind::Bidir) => ptl_machine(config, PtlPattern::Bidir),
        (Transport::Get, TestKind::PingPong) => ptl_machine(config, PtlPattern::PingPongGet),
        (Transport::Get, TestKind::Stream) => ptl_machine(config, PtlPattern::StreamGet),
        (Transport::Get, TestKind::Bidir) => ptl_symmetric_machine(config, PtlPattern::BidirGet),
        (Transport::Mpich1, k) => mpi_machine(config, mpi_pattern(k), Personality::mpich1()),
        (Transport::Mpich2, k) => mpi_machine(config, mpi_pattern(k), Personality::mpich2()),
        (Transport::Rma, k) => rma_machine(config, rma_pattern(k)),
    }
}

/// Run one MPI curve; returns `(rank0 results, rank1 results)`.
pub fn run_mpi(
    config: &NetpipeConfig,
    pattern: MpiPattern,
    personality: Personality,
) -> (Vec<RoundResult>, Vec<RoundResult>) {
    let (mut m, _) = run_to_end(mpi_machine(config, pattern, personality), pattern);
    (
        take_results(&mut m, 0, |a: &mut MpiDriver| &mut a.results),
        take_results(&mut m, 1, |b: &mut MpiDriver| &mut b.results),
    )
}

/// Run one RMA curve; returns `(rank0 results, rank1 results)`. Beyond
/// the [`TestKind`] mapping, `perf rma` sweeps the get and accumulate
/// ping-pong patterns through this entry point directly.
pub fn run_rma(
    config: &NetpipeConfig,
    pattern: RmaPattern,
) -> (Vec<RoundResult>, Vec<RoundResult>) {
    let (mut m, _) = run_to_end(rma_machine(config, pattern), pattern);
    (
        take_results(&mut m, 0, |a: &mut RmaDriver| &mut a.results),
        take_results(&mut m, 1, |b: &mut RmaDriver| &mut b.results),
    )
}

/// The measured rounds for `(transport, kind)` — the side holding the
/// measurement depends on the pattern (see [`extract_rounds`]).
pub fn run_curve(config: &NetpipeConfig, transport: Transport, kind: TestKind) -> Vec<RoundResult> {
    let machine = build_machine(config, transport, kind);
    let (mut m, _) = run_to_end(machine, (transport, kind));
    extract_rounds(&mut m, transport, kind)
}

/// Run a fully spawned machine to the end; returns it with the simulated
/// time the run took. A run that does not drain, or leaves an app
/// unfinished (a deadlock: its results would be half filled), panics
/// naming `what`.
fn run_to_end(machine: Machine, what: impl std::fmt::Debug) -> (Machine, SimTime) {
    let mut engine = machine.into_engine();
    let outcome = engine.run();
    assert_eq!(
        outcome,
        RunOutcome::Drained,
        "netpipe run must drain ({what:?})"
    );
    let elapsed = engine.now();
    let m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "netpipe apps must finish ({what:?})");
    (m, elapsed)
}

/// Move the round results out of the `D` driver on `node`.
fn take_results<D: 'static>(
    m: &mut Machine,
    node: u32,
    results: fn(&mut D) -> &mut Vec<RoundResult>,
) -> Vec<RoundResult> {
    let mut app = m.take_app(node, 0).expect("netpipe driver on the node");
    let driver = app
        .as_any()
        .downcast_mut::<D>()
        .expect("netpipe driver type");
    std::mem::take(results(driver))
}

fn mpi_pattern(kind: TestKind) -> MpiPattern {
    match kind {
        TestKind::PingPong => MpiPattern::PingPong,
        TestKind::Stream => MpiPattern::Stream,
        TestKind::Bidir => MpiPattern::Bidir,
    }
}

fn rma_pattern(kind: TestKind) -> RmaPattern {
    match kind {
        TestKind::PingPong => RmaPattern::PingPongPut,
        TestKind::Stream => RmaPattern::Stream,
        TestKind::Bidir => RmaPattern::Bidir,
    }
}

/// A measurement run with the telemetry sink enabled: the usual round
/// results plus the machine-readable [`TelemetryReport`] and a Perfetto
/// trace of the whole run.
#[derive(Debug)]
pub struct InstrumentedRun {
    /// Per-size round results, exactly as [`run_curve`] reports them.
    pub rounds: Vec<RoundResult>,
    /// Cross-layer counters and occupancy totals per node.
    pub report: TelemetryReport,
    /// Chrome trace-event JSON (load in ui.perfetto.dev).
    pub perfetto: String,
}

/// Run `(transport, kind)` with the telemetry sink forced on and harvest
/// the report. Telemetry is digest-neutral, so the rounds are identical
/// to an uninstrumented [`run_curve`] of the same config.
pub fn run_instrumented(
    config: &NetpipeConfig,
    transport: Transport,
    kind: TestKind,
) -> InstrumentedRun {
    let mut cfg = config.clone();
    cfg.machine.telemetry = true;
    let machine = build_machine(&cfg, transport, kind);
    let (mut m, elapsed) = run_to_end(machine, (transport, kind));
    let report = m.telemetry_report(&scenario_name(transport, kind), elapsed);
    let perfetto = m.telemetry().perfetto_json_full(None, None);
    let rounds = extract_rounds(&mut m, transport, kind);
    InstrumentedRun {
        rounds,
        report,
        perfetto,
    }
}

/// A run with causal tracing enabled: the usual round results plus the
/// critical-path chain of every delivered message and a Perfetto trace
/// whose flow arrows link each message's sender and receiver checkpoints.
#[derive(Debug)]
pub struct ExplainedRun {
    /// Per-size round results, exactly as [`run_curve`] reports them
    /// (causal tracing is digest-neutral).
    pub rounds: Vec<RoundResult>,
    /// One extracted critical path per attributable EQ delivery, in
    /// delivery order.
    pub chains: Vec<xt3_telemetry::Chain>,
    /// Chrome trace-event JSON with causal flow arrows.
    pub perfetto: String,
    /// Hop-queueing by physical link, from the causal log's fold over
    /// *all* chains; sums exactly to the chains' aggregate hop-queueing
    /// class.
    pub hops: Vec<xt3_telemetry::HopStall>,
}

/// Run `(transport, kind)` with the causal tracer (and telemetry sink)
/// forced on, then extract every delivery's critical path. Tracing is
/// digest-neutral, so the rounds are identical to an uninstrumented
/// [`run_curve`] of the same config. A run that overflows the causal
/// log's cap is an error ([`xt3_telemetry::CritPathError::Truncated`]),
/// never a chain list that under-covers it.
pub fn run_explained(
    config: &NetpipeConfig,
    transport: Transport,
    kind: TestKind,
) -> Result<ExplainedRun, xt3_telemetry::CritPathError> {
    let mut cfg = config.clone();
    cfg.machine.telemetry = true;
    let mut machine = build_machine(&cfg, transport, kind);
    machine.set_causal_enabled(true);
    let (mut m, _) = run_to_end(machine, (transport, kind));
    let chains = xt3_telemetry::extract_chains(m.causal())?;
    let hops = m.causal().fold().hop_stalls().collect();
    let perfetto = m.telemetry().perfetto_json_full(Some(m.causal()), None);
    let rounds = extract_rounds(&mut m, transport, kind);
    Ok(ExplainedRun {
        rounds,
        chains,
        perfetto,
        hops,
    })
}

/// A delivery-to-delivery tiling of a measured round, with the time the
/// application (or the personality library) spent *between* a delivery
/// and the next injection accounted separately.
#[derive(Debug)]
pub struct TiledChains<'a> {
    /// One chain per timed message, ascending by end time.
    pub chains: Vec<&'a xt3_telemetry::Chain>,
    /// Host/library turnaround inside the measured window that no chain
    /// covers: the gap between each delivery and the next message's API
    /// entry (event-queue draining, tag matching, window bookkeeping),
    /// plus the same gap before the first injection. By construction
    /// `sum(chain spans) + turnaround == round.elapsed` exactly.
    pub turnaround: xt3_sim::SimTime,
}

/// Select one chain per timed message such that the chains tile the
/// measured window delivery-to-delivery.
///
/// "The latest delivery per trace id resumed the application" holds for
/// the raw Portals drivers but not for the personalities: the MPI library
/// consumes several events per message (start/end pairs, its own
/// send-side completions *after* it already issued the reply), and the
/// RMA endpoint completes each put through a separate Ack message whose
/// chain roots at the original API entry. So the selection walks
/// backward: starting from a candidate final delivery, repeatedly take the
/// latest-ending chain that finished before the current chain's API
/// entry and started inside the window. Sync tails (acks, send-side
/// completions, fence barriers) never satisfy the "finished before the
/// next injection" condition, so they fall out naturally. Anchors are
/// tried latest-first; the first one yielding exactly
/// `round.messages` chains is the window's true final delivery.
///
/// `data_only` drops zero-byte chains first (RMA fence/barrier
/// notifications, ack messages — anything that moves no payload).
/// `node_filter` restricts to one side's deliveries — a get is measured
/// by the requester alone (pass `Some(0)`), while ping-pong alternates
/// deliveries across both nodes (pass `None`). The raw drivers reply in
/// the delivery instant, so their tiling has zero turnaround.
///
/// Returns `None` when no anchor admits a full per-message tiling,
/// which means the round structure broke an assumption above.
pub fn tiled_chains<'a>(
    chains: &'a [xt3_telemetry::Chain],
    round: &RoundResult,
    node_filter: Option<u32>,
    data_only: bool,
) -> Option<TiledChains<'a>> {
    let mut cands: Vec<&xt3_telemetry::Chain> = chains
        .iter()
        .filter(|c| node_filter.is_none_or(|n| c.node == n))
        .filter(|c| !data_only || c.len > 0)
        .collect();
    cands.sort_by_key(|c| (c.end, c.start));

    for ai in (0..cands.len()).rev() {
        let anchor = cands[ai];
        let Some(window_start) = anchor.end.checked_sub(round.elapsed) else {
            continue;
        };
        if anchor.start < window_start {
            continue;
        }
        let mut selected: Vec<&xt3_telemetry::Chain> = vec![anchor];
        let mut limit = anchor.start;
        while let Some(&next) = cands[..ai]
            .iter()
            .filter(|c| c.end <= limit && c.start >= window_start)
            .max_by_key(|c| (c.end, c.start))
        {
            selected.push(next);
            limit = next.start;
        }
        if selected.len() as u32 != round.messages {
            continue;
        }
        selected.reverse();
        let mut turnaround = selected[0]
            .start
            .checked_sub(window_start)
            .expect("selection stayed inside the window");
        for pair in selected.windows(2) {
            turnaround += pair[1]
                .start
                .checked_sub(pair[0].end)
                .expect("tiling is overlap-free");
        }
        return Some(TiledChains {
            chains: selected,
            turnaround,
        });
    }
    None
}

/// Pull the measuring side's results out of a finished machine: streams
/// are measured at the receiver (node 1) — except a streamed get, whose
/// initiator times the transfers it pulls — and every other pattern by
/// node 0 (for a bidirectional get, node 0's initiator).
fn extract_rounds(m: &mut Machine, transport: Transport, kind: TestKind) -> Vec<RoundResult> {
    let node = u32::from(kind == TestKind::Stream && transport != Transport::Get);
    match transport {
        Transport::Put if node == 1 => take_results(m, 1, |b: &mut PtlResponder| &mut b.results),
        Transport::Put | Transport::Get => {
            take_results(m, node, |a: &mut PtlInitiator| &mut a.results)
        }
        Transport::Mpich1 | Transport::Mpich2 => {
            take_results(m, node, |a: &mut MpiDriver| &mut a.results)
        }
        Transport::Rma => take_results(m, node, |a: &mut RmaDriver| &mut a.results),
    }
}

/// Build a latency curve (Fig. 4 style).
pub fn latency_curve(config: &NetpipeConfig, transport: Transport, kind: TestKind) -> Series {
    latency_series(transport.label(), &run_curve(config, transport, kind))
}

/// Build a bandwidth curve (Figs. 5–7 style).
pub fn bandwidth_curve(config: &NetpipeConfig, transport: Transport, kind: TestKind) -> Series {
    bandwidth_series(transport.label(), &run_curve(config, transport, kind))
}
