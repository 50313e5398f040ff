//! The six workloads, and one closed-loop pass of each: build, run to
//! `RunOutcome::Drained`, verify; the next pass starts after it.
//!
//! Inputs are generated here from `--seed`; the program under measurement
//! only ever receives machines and configs — never a workload name.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::alloc;
use crate::catalog::ratio;
use crate::layers::LayerCounts;
use crate::spans::Tracer;
use xt3_bench::campaign::{run_all, CampaignConfig, ScenarioReport};
use xt3_netpipe::mpi::MpiDriver;
use xt3_netpipe::ptl::{PtlInitiator, PtlResponder};
use xt3_netpipe::reference;
use xt3_netpipe::rma::RmaDriver;
use xt3_netpipe::runner::{build_machine, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::RoundResult;
use xt3_node::config::MachineConfig;
use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, red_storm_machine, traffic_machine_cfg, TrafficPattern,
};
use xt3_node::Machine;
use xt3_sim::{Engine, EventDigest, RunOutcome};
use xt3_telemetry::{attribute_occupancy, SeriesConfig};
use xt3_topology::coord::{Dims, NodeId};
use xt3_topology::route::RoutingTable;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x5EA5_7A12;

/// A traced run is cut into this many `run` slices per pass.
pub const SLICES: u64 = 64;

/// Cells of one fault campaign (what a campaign that unwinds is charged).
pub const CAMPAIGN_CELLS: u64 = 48;

/// The fault campaign cycles through this many consecutive seeds.
pub const CAMPAIGN_SEEDS: usize = 64;

const TRANSPORTS: [Transport; 5] = [
    Transport::Put,
    Transport::Get,
    Transport::Mpich1,
    Transport::Mpich2,
    Transport::Rma,
];
const KINDS: [TestKind; 3] = [TestKind::PingPong, TestKind::Stream, TestKind::Bidir];

const RED_STORM_ROUNDS: u32 = 8;
const RED_STORM_MSG: u64 = 16 * 1024;
const TORUS_MSG: u64 = 4096;
const UNIFORM_ROUNDS: u32 = 64;

fn red_storm_dims() -> Dims {
    Dims::red_storm(27, 16, 24)
}

fn torus512_dims() -> Dims {
    Dims::red_storm(8, 8, 8)
}

/// Whether a pass counts its heap. Counting slows the allocator, so a
/// pass is either timed or counted, never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heap {
    /// Allocator counters off: the pass's timings are trustworthy.
    Uncounted,
    /// Allocator counters on: `peak_heap` and `built_bytes` are filled in.
    Counted,
}

impl Heap {
    fn start(self) -> Option<i64> {
        (self == Heap::Counted).then(alloc::start_counting)
    }

    /// Peak bytes above the floor `start` returned; stops counting.
    fn stop(floor: Option<i64>) -> u64 {
        alloc::stop_counting();
        floor.map_or(0, alloc::peak_above)
    }
}

/// Which observation sinks a machine runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sinks {
    /// The `telemetry::registry` recorder (counters, gauges, spans).
    pub registry: bool,
    /// The `sim::causal` message DAG.
    pub causal: bool,
    /// The `telemetry::series` per-link lanes.
    pub series: bool,
}

impl Sinks {
    /// Every sink off: the `NullSink` path.
    pub const NONE: Sinks = Sinks {
        registry: false,
        causal: false,
        series: false,
    };
    /// Every sink on.
    pub const ALL: Sinks = Sinks {
        registry: true,
        causal: true,
        series: true,
    };

    pub fn apply(self, m: &mut Machine) {
        if self.registry {
            m.config.telemetry = true;
            m.set_telemetry_enabled(true);
        }
        if self.causal {
            m.set_causal_enabled(true);
        }
        if self.series {
            m.enable_link_series(SeriesConfig::default());
        }
    }

    /// For the manifest.
    pub fn label(self) -> &'static str {
        match (self.registry, self.causal, self.series) {
            (false, false, false) => "none",
            (true, true, true) => "registry+causal+series",
            (true, false, false) => "registry",
            (false, true, false) => "causal",
            (false, false, true) => "series",
            _ => "mixed",
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 15 NetPIPE curves over the paper's 1 B - 8 MB schedule.
    NetpipeSweep,
    /// Eight neighbor-push rounds on the full 10,368-node machine, serial.
    RedstormRound,
    /// The same machine on the 2-worker window driver.
    RedstormRoundPar,
    /// 512-node all-to-all plus a seeded uniform phase, sinks off.
    Torus512Alltoall,
    /// The same two machines with every sink on and post-processing.
    Torus512Observed,
    /// Fault campaigns over consecutive seeds.
    FaultCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::NetpipeSweep,
        Workload::RedstormRound,
        Workload::RedstormRoundPar,
        Workload::Torus512Alltoall,
        Workload::Torus512Observed,
        Workload::FaultCampaign,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetpipeSweep => "netpipe_sweep",
            Workload::RedstormRound => "redstorm_round",
            Workload::RedstormRoundPar => "redstorm_round_par",
            Workload::Torus512Alltoall => "torus512_alltoall",
            Workload::Torus512Observed => "torus512_observed",
            Workload::FaultCampaign => "fault_campaign",
        }
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::NetpipeSweep => "The paper's experiment: 15 NetPIPE curves on two nodes, queue depth of a handful, so per-event cost is engine loop, machine dispatch, firmware, Portals match and MPI; also the accuracy workload.",
            Workload::RedstormRound => "The full 10,368-node machine, serial: ~124k live events, so heap depth, cache footprint and demand-allocated node state dominate; 8 rounds, so that cost which changes with run length shows.",
            Workload::RedstormRoundPar => "The same machine on the 2-worker window driver, digest-equal to serial: the only workload where sim::par windows, intent merge and Machine::split/merge run.",
            Workload::Torus512Alltoall => "Multi-hop contention on 512 nodes with sinks off: fabric hop walk, on-the-fly routing and HOL queueing dominate; the seeded uniform phase is the input --seed varies.",
            Workload::Torus512Observed => "The same two machines with registry, causal and series sinks on plus attribution and series JSON in the pass: sink cost is an end-to-end row, digest-equal to the unobserved twin.",
            Workload::FaultCampaign => "48-cell fault campaigns over consecutive seeds: the only workload where sim::faults, go-back-n retransmission, dark-node gating and the double-run digest check execute.",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sinks the workload's passes run with.
    pub fn sinks(self) -> Sinks {
        match self {
            Workload::Torus512Observed => Sinks::ALL,
            _ => Sinks::NONE,
        }
    }

    /// The workload whose serial, unobserved pass must produce the same
    /// digest (digest-neutrality of the parallel engine and of the sinks).
    pub fn twin(self) -> Option<Workload> {
        match self {
            Workload::RedstormRoundPar => Some(Workload::RedstormRound),
            Workload::Torus512Observed => Some(Workload::Torus512Alltoall),
            _ => None,
        }
    }

    /// Units a pass is charged when it unwinds before it can count them.
    pub fn units_per_pass(self) -> u64 {
        match self {
            Workload::FaultCampaign => CAMPAIGN_CELLS,
            _ => 1,
        }
    }

    /// The torus the workload's largest machine runs on, the `(src, dst)`
    /// pairs of its messages (for shaping the route and fabric probes) and
    /// the fabric hops of one pass. All of it follows from the inputs
    /// generated here, except on `fault_campaign`: `run_all` builds its own
    /// machines (a pair, a 5-node line, a 3x2x2 mesh) and hands back reports
    /// that carry neither pairs nor hop counts, so that workload's fabric
    /// probes run on the pair and its ledger rows are marked unverified.
    pub fn traffic(self, seed: u64) -> Traffic {
        match self {
            // Two nodes: every message crosses one hop.
            Workload::NetpipeSweep | Workload::FaultCampaign => Traffic {
                dims: MachineConfig::paper_pair().dims,
                pairs: vec![(0, 1), (1, 0)],
                hops_per_pass: None,
                hops_known: self == Workload::NetpipeSweep,
            },
            Workload::RedstormRound | Workload::RedstormRoundPar => {
                let dims = red_storm_dims();
                let n = dims.node_count();
                let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                let hops = u64::from(RED_STORM_ROUNDS) * route_hops(dims, &pairs);
                Traffic {
                    dims,
                    pairs,
                    hops_per_pass: Some(hops),
                    hops_known: true,
                }
            }
            Workload::Torus512Alltoall | Workload::Torus512Observed => {
                let dims = torus512_dims();
                let pairs = pattern_pairs(TrafficPattern::AllToAll, dims, seed);
                let uniform = pattern_pairs(TrafficPattern::Uniform, dims, seed);
                let hops = route_hops(dims, &pairs)
                    + u64::from(UNIFORM_ROUNDS) * route_hops(dims, &uniform);
                Traffic {
                    dims,
                    pairs,
                    hops_per_pass: Some(hops),
                    hops_known: true,
                }
            }
        }
    }
}

/// One `(src, dst)` per message of one round of `pattern`.
fn pattern_pairs(pattern: TrafficPattern, dims: Dims, seed: u64) -> Vec<(u32, u32)> {
    let targets = pattern.targets(dims, seed);
    let pairs = targets
        .iter()
        .enumerate()
        .flat_map(|(src, dsts)| dsts.iter().map(move |&d| (src as u32, d)));
    pairs.collect()
}

/// Routing-table hop count summed over `pairs`.
fn route_hops(dims: Dims, pairs: &[(u32, u32)]) -> u64 {
    let routes = RoutingTable::build(dims);
    pairs
        .iter()
        .map(|&(s, d)| u64::from(routes.hop_count(NodeId(s), NodeId(d))))
        .sum()
}

/// Shape of a workload's fabric traffic (see [`Workload::traffic`]).
pub struct Traffic {
    /// Machine shape.
    pub dims: Dims,
    /// One `(src, dst)` per message of the workload's main pattern.
    pub pairs: Vec<(u32, u32)>,
    /// Fabric hops of one pass; `None` where every message crosses one.
    pub hops_per_pass: Option<u64>,
    /// False where pairs and hops stand in for machines the benchmark
    /// cannot see into.
    pub hops_known: bool,
}

/// The NetPIPE numbers the paper plots, read from a pass's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetpipeFigures {
    /// 1-byte ping-pong latency per transport (put, get, mpich1, mpich2, rma).
    pub lat1b_us: [f64; 5],
    /// Peak put ping-pong bandwidth, MB/s.
    pub peak_unidir: f64,
    /// Peak put bidirectional bandwidth, MB/s.
    pub peak_bidir: f64,
    /// Host seconds of each transport's three curves.
    pub curve_wall_s: [f64; 5],
    /// Events of each transport's three curves.
    pub events: [u64; 5],
    /// Messages the measuring side counted over the three curves.
    pub messages: [u64; 5],
}

impl NetpipeFigures {
    fn record(&mut self, t: usize, kind: TestKind, rounds: &[RoundResult], events: u64, wall: f64) {
        self.curve_wall_s[t] += wall;
        self.events[t] += events;
        self.messages[t] += rounds.iter().map(|r| u64::from(r.messages)).sum::<u64>();
        let peak = rounds
            .iter()
            .map(RoundResult::bandwidth_mb)
            .fold(0.0, f64::max);
        match kind {
            TestKind::PingPong => {
                self.lat1b_us[t] = rounds.first().map_or(0.0, RoundResult::latency_us);
                if t == 0 {
                    self.peak_unidir = peak;
                }
            }
            TestKind::Bidir if t == 0 => self.peak_bidir = peak,
            _ => {}
        }
    }

    /// Largest relative error, in percent, over the paper's six anchors:
    /// the four 1-byte latencies and the put peaks (uni- and bidirectional).
    pub fn fig_error_pct(&self) -> f64 {
        let anchors = [
            (self.lat1b_us[0], reference::latency_1b::PUT_US),
            (self.lat1b_us[1], reference::latency_1b::GET_US),
            (self.lat1b_us[2], reference::latency_1b::MPICH1_US),
            (self.lat1b_us[3], reference::latency_1b::MPICH2_US),
            (self.peak_unidir, reference::unidir::PUT_PEAK_MB),
            (self.peak_bidir, reference::bidir::PUT_PEAK_MB),
        ];
        anchors
            .iter()
            .map(|(got, paper)| ((got - paper) / paper).abs() * 100.0)
            .fold(0.0, f64::max)
    }

    /// Events per message of transport `t` over events per raw put message.
    pub fn events_per_msg_vs_put(&self, t: usize) -> f64 {
        let per_msg = |i: usize| ratio(self.events[i] as f64, self.messages[i] as f64);
        ratio(per_msg(t), per_msg(0))
    }
}

/// The measuring side's results of a finished NetPIPE machine (the side
/// selection of `xt3_netpipe::runner::run_curve`).
fn netpipe_rounds(
    m: &mut Machine,
    t: Transport,
    kind: TestKind,
) -> Result<Vec<RoundResult>, String> {
    let stream = kind == TestKind::Stream;
    let node = if t == Transport::Get {
        0
    } else {
        u32::from(stream)
    };
    let mut app = m
        .take_app(node, 0)
        .ok_or_else(|| format!("no app on node {node}"))?;
    let any = app.as_any();
    let results = match t {
        Transport::Put if stream => any.downcast_mut::<PtlResponder>().map(|a| &mut a.results),
        Transport::Put | Transport::Get => {
            any.downcast_mut::<PtlInitiator>().map(|a| &mut a.results)
        }
        Transport::Mpich1 | Transport::Mpich2 => {
            any.downcast_mut::<MpiDriver>().map(|a| &mut a.results)
        }
        Transport::Rma => any.downcast_mut::<RmaDriver>().map(|a| &mut a.results),
    };
    results
        .map(std::mem::take)
        .ok_or_else(|| format!("unexpected app type for {t:?}"))
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Host seconds building the pass's machines (outside the timed region).
    pub setup_s: f64,
    /// Host seconds of the timed region: run + digest + fingerprint (+
    /// post-processing on the observed workload), summed over machines.
    pub wall_s: f64,
    /// Events dispatched.
    pub events: u64,
    /// `engine.now()` at drain, summed over the pass's machines, in ps.
    pub sim_elapsed_ps: u64,
    /// Fold of every machine's event digest and state fingerprint.
    pub digest: u64,
    /// Passes (or campaign cells) attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Peak live heap over the pass, machines included (counted passes).
    pub peak_heap: u64,
    /// Live bytes the builds added (counted passes), and the nodes built.
    pub built_bytes: u64,
    /// See `built_bytes`.
    pub built_nodes: u64,
    /// Why the pass failed, if it did.
    pub error: Option<String>,
    /// Layer counts (traced passes only).
    pub layers: LayerCounts,
    /// The figures of a NetPIPE pass.
    pub netpipe: Option<NetpipeFigures>,
    /// Host seconds in `attribute_occupancy` / `SeriesSet::to_json`.
    pub attribute_s: f64,
    /// See `attribute_s`.
    pub to_json_s: f64,
}

struct StageOut {
    events: u64,
    wall_s: f64,
}

/// One pass in progress.
struct Pass<'a> {
    tr: &'a mut Tracer,
    slice: u64,
    /// The allocator's floor when this pass counts its heap.
    heap_floor: Option<i64>,
    digest: EventDigest,
    out: PassResult,
}

impl Pass<'_> {
    /// Counted live heap bytes of the pass so far (0 on an uncounted pass).
    fn heap_live(&self) -> u64 {
        self.heap_floor.map_or(0, alloc::live_above)
    }

    /// Run `engine` in `slice`-event steps, one span each, sampling the
    /// queue depth at every boundary.
    fn run_sliced(&mut self, engine: &mut Engine<Machine>) -> RunOutcome {
        let first_engine = self.out.events == 0;
        engine.set_event_budget(self.slice.max(1));
        self.out.layers.depths.push(engine.queue().len() as u64);
        // The engine's own runaway guard is replaced by the slice budget;
        // bound the slice count instead (a pass is ~SLICES slices).
        for _ in 0..SLICES * 64 {
            let span = self.tr.open("slice");
            let before = engine.dispatched();
            let t = Instant::now();
            let outcome = engine.run();
            let ns = t.elapsed().as_nanos() as u64;
            let events = engine.dispatched() - before;
            let depth = engine.queue().len() as u64;
            self.tr.counter(span, "events", events);
            self.tr.counter(span, "sim.queue.depth", depth);
            self.tr.close(span);
            self.out.layers.depths.push(depth);
            if first_engine {
                self.out.layers.first_engine_slices.push((events, ns));
            }
            if outcome != RunOutcome::EventBudgetExhausted {
                return outcome;
            }
        }
        RunOutcome::EventBudgetExhausted
    }

    /// Build one machine, run it to drain inside the timed region, verify.
    fn stage<R>(
        &mut self,
        sinks: Sinks,
        build: impl FnOnce() -> Machine,
        verify: impl FnOnce(&mut Machine) -> Result<R, String>,
    ) -> Result<(StageOut, R), String> {
        let span = self.tr.open("build");
        let live = self.heap_live();
        let t = Instant::now();
        let mut m = build();
        sinks.apply(&mut m);
        let nodes = m.nodes.len() as u64;
        let mut engine = m.into_engine();
        self.out.setup_s += t.elapsed().as_secs_f64();
        self.out.built_bytes += self.heap_live().saturating_sub(live);
        self.out.built_nodes += nodes;
        self.tr.close(span);

        let span = self.tr.open("run");
        let t = Instant::now();
        let outcome = if self.tr.enabled() {
            self.run_sliced(&mut engine)
        } else {
            engine.run()
        };
        let digest = engine.digest();
        let fingerprint = engine.state_fingerprint();
        let mut wall_s = t.elapsed().as_secs_f64();
        self.tr.counter(span, "events", engine.dispatched());
        self.tr.close(span);

        if sinks.series {
            // The observed workload's pass includes what a user does with
            // the series: the attribution table and the JSON export.
            let span = self.tr.open("postprocess");
            let series = engine
                .model()
                .link_series()
                .ok_or("series sink was not enabled")?;
            let t = Instant::now();
            let table = attribute_occupancy(series, 8, 4);
            let attribute_s = t.elapsed().as_secs_f64();
            let json = series.to_json();
            let both_s = t.elapsed().as_secs_f64();
            black_box((table.rows.len(), json.len()));
            self.out.attribute_s += attribute_s;
            self.out.to_json_s += both_s - attribute_s;
            wall_s += both_s;
            self.tr.close(span);
        }

        let span = self.tr.open("verify");
        if outcome != RunOutcome::Drained {
            return Err(format!("run did not drain: {outcome:?}"));
        }
        let events = engine.dispatched();
        let now = engine.now();
        let mut m = engine.into_model();
        if m.running_apps() != 0 {
            return Err(format!("{} apps never finished", m.running_apps()));
        }
        if self.tr.enabled() {
            self.out.layers.absorb_machine(&m, now);
        }
        let verified = verify(&mut m)?;
        self.digest.write_u64(digest);
        self.digest.write_u64(fingerprint);
        self.out.events += events;
        self.out.sim_elapsed_ps += now.ps();
        self.out.wall_s += wall_s;
        self.tr.close(span);
        Ok((StageOut { events, wall_s }, verified))
    }

    /// As [`Pass::stage`] through the 2-worker window driver, whose timed
    /// region also pays `Machine::split` and `Machine::merge`.
    fn stage_par(&mut self, build: impl FnOnce() -> Machine) -> Result<(), String> {
        let span = self.tr.open("build");
        let live = self.heap_live();
        let t = Instant::now();
        let m = build();
        self.out.setup_s += t.elapsed().as_secs_f64();
        self.out.built_bytes += self.heap_live().saturating_sub(live);
        self.out.built_nodes += m.nodes.len() as u64;
        self.tr.close(span);

        let span = self.tr.open("run");
        let t = Instant::now();
        let run = run_parallel(m, 2);
        let wall_s = t.elapsed().as_secs_f64();
        self.tr.counter(span, "events", run.dispatched);
        self.tr.counter(span, "sim.par.windows", run.rounds);
        self.tr.close(span);

        let span = self.tr.open("verify");
        if run.outcome != RunOutcome::Drained {
            return Err(format!("parallel run did not drain: {:?}", run.outcome));
        }
        if run.machine.running_apps() != 0 {
            return Err(format!(
                "{} apps never finished",
                run.machine.running_apps()
            ));
        }
        if self.tr.enabled() {
            self.out.layers.absorb_machine(&run.machine, run.now);
            self.out.layers.par_windows += run.rounds;
        }
        self.digest.write_u64(run.digest);
        self.digest.write_u64(run.state_fingerprint);
        self.out.events += run.dispatched;
        self.out.sim_elapsed_ps += run.now.ps();
        self.out.wall_s += wall_s;
        self.tr.close(span);
        Ok(())
    }

    fn netpipe_sweep(&mut self) -> Result<(), String> {
        let config = NetpipeConfig::paper();
        let mut figures = NetpipeFigures::default();
        for (t, &transport) in TRANSPORTS.iter().enumerate() {
            for kind in KINDS {
                let (stage, rounds) = self.stage(
                    Sinks::NONE,
                    || build_machine(&config, transport, kind),
                    |m| netpipe_rounds(m, transport, kind),
                )?;
                figures.record(t, kind, &rounds, stage.events, stage.wall_s);
            }
        }
        self.out.netpipe = Some(figures);
        Ok(())
    }

    fn red_storm(&mut self, parallel: bool) -> Result<(), String> {
        let build = || red_storm_machine(red_storm_dims(), RED_STORM_ROUNDS, RED_STORM_MSG);
        if parallel {
            self.stage_par(build)
        } else {
            self.stage(Sinks::NONE, build, |_| Ok(())).map(|_| ())
        }
    }

    fn torus512(&mut self, seed: u64, sinks: Sinks) -> Result<(), String> {
        let dims = torus512_dims();
        let paper_seed = MachineConfig::paper(dims).seed;
        for (pattern, rounds, seed) in [
            (TrafficPattern::AllToAll, 1, paper_seed),
            (TrafficPattern::Uniform, UNIFORM_ROUNDS, seed),
        ] {
            let config = MachineConfig {
                seed,
                ..MachineConfig::paper(dims)
            };
            self.stage(
                sinks,
                || traffic_machine_cfg(pattern, config, rounds, TORUS_MSG),
                |m| {
                    let stats = pattern_stats(m);
                    let want = expected_hdr_sum(pattern, dims, rounds, seed);
                    if stats.outstanding != 0 || stats.corrupt || stats.hdr_sum != want {
                        return Err(format!(
                            "{}: payload check failed: {stats:?}",
                            pattern.name()
                        ));
                    }
                    Ok(())
                },
            )?;
        }
        Ok(())
    }

    fn fault_campaign(&mut self, seed: u64) -> Result<(), String> {
        let config = CampaignConfig {
            telemetry: self.tr.enabled(),
            ..CampaignConfig::new(seed)
        };
        let span = self.tr.open("run");
        let t = Instant::now();
        // `run_all` panics on the first broken invariant; the caller's
        // `catch_unwind` charges the whole campaign.
        let (sweep, rma, traffic, _integrity, _isolation) = run_all(&config, true);
        let wall_s = t.elapsed().as_secs_f64();
        self.tr.close(span);

        let span = self.tr.open("verify");
        let cells: Vec<&ScenarioReport> = sweep.iter().chain(&rma).chain(&traffic).collect();
        for cell in &cells {
            self.digest.write_u64(cell.digest);
            self.digest.write_u64(cell.state);
            self.out.events += cell.dispatched;
            if self.tr.enabled() {
                let layers = &mut self.out.layers;
                layers.faults_injected += cell.stats.total();
                layers.gbn_retransmissions += cell.retransmissions;
                if let Some(report) = &cell.telemetry {
                    layers.absorb_report(report);
                    // Reports carry no fabric message count; every
                    // message that reached a host is one.
                    layers.fabric_msgs += report.host_path_messages();
                }
            }
        }
        self.out.layers.campaign_cells += cells.len() as u64;
        self.out.attempted = cells.len() as u64;
        self.out.wall_s += wall_s;
        self.tr.close(span);
        Ok(())
    }
}

/// One all-to-all machine of the torus512 workloads with exactly `sinks`
/// on: a cell of the sink-overhead matrix (wall with one sink on over the
/// wall with none; with `heap`, peak heap instead of a trustworthy wall).
pub fn alltoall_with(sinks: Sinks, heap: Heap) -> PassResult {
    let config = MachineConfig::paper(torus512_dims());
    let build = || traffic_machine_cfg(TrafficPattern::AllToAll, config, 1, TORUS_MSG);
    drive_pass(heap, &mut Tracer::new(false), 0, 1, |pass| {
        pass.stage(sinks, build, |_| Ok(())).map(|_| ())
    })
}

/// Host seconds of `Machine::split` and `Machine::merge` on the Red Storm
/// machine, timed directly.
pub fn split_merge_seconds() -> (f64, f64) {
    let m = red_storm_machine(red_storm_dims(), RED_STORM_ROUNDS, RED_STORM_MSG);
    let t = Instant::now();
    let (shards, fabric) = m.split(2);
    let split_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let merged = Machine::merge(shards, fabric);
    let merge_s = t.elapsed().as_secs_f64();
    black_box(merged.nodes.len());
    (split_s, merge_s)
}

/// Host seconds of one campaign on the parallel runner (`serial = false`).
pub fn campaign_parallel_seconds(seed: u64) -> Option<f64> {
    let config = CampaignConfig::new(seed);
    let t = Instant::now();
    catch_unwind(|| run_all(&config, false)).ok()?;
    Some(t.elapsed().as_secs_f64())
}

/// Run one pass's `body`. Never panics: a pass that unwinds, does not
/// drain or fails verification comes back with `failed > 0` and the reason
/// in `error`.
fn drive_pass(
    heap: Heap,
    tr: &mut Tracer,
    slice: u64,
    attempted: u64,
    body: impl FnOnce(&mut Pass) -> Result<(), String>,
) -> PassResult {
    let heap_floor = heap.start();
    tr.open("pass");
    let mut pass = Pass {
        tr,
        slice,
        heap_floor,
        digest: EventDigest::new(),
        out: PassResult {
            attempted,
            ..PassResult::default()
        },
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut pass)));
    let Pass {
        digest, mut out, ..
    } = pass;
    tr.close_all();
    out.digest = digest.value();
    out.peak_heap = Heap::stop(heap_floor);
    out.layers.events = out.events;
    out.error = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(panic) => Some(
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| String::from("panicked")),
        ),
    };
    if out.error.is_some() {
        out.failed = out.attempted;
    }
    out
}

/// Run pass `index` of `workload`; the run continues whatever happens to
/// it (see [`drive_pass`]).
pub fn run_pass(
    workload: Workload,
    seed: u64,
    index: usize,
    heap: Heap,
    tr: &mut Tracer,
    slice: u64,
) -> PassResult {
    tr.set_pass(index as u32);
    let attempted = workload.units_per_pass();
    drive_pass(heap, tr, slice, attempted, |pass| match workload {
        Workload::NetpipeSweep => pass.netpipe_sweep(),
        Workload::RedstormRound => pass.red_storm(false),
        Workload::RedstormRoundPar => pass.red_storm(true),
        Workload::Torus512Alltoall | Workload::Torus512Observed => {
            pass.torus512(seed, workload.sinks())
        }
        Workload::FaultCampaign => {
            pass.fault_campaign(seed.wrapping_add((index % CAMPAIGN_SEEDS) as u64))
        }
    })
}
