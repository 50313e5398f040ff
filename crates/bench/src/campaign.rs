//! Deterministic fault-injection campaign.
//!
//! Sweeps every NetPIPE transport × pattern scenario (the same
//! [`scenario_matrix`] the replay audit covers) across a set of wire
//! fault rates, plus targeted SRAM-pulse, payload-integrity and
//! node-isolation runs, asserting the recovery invariants the paper's
//! §4.3 reliability work promises:
//!
//! 1. **Drain**: every faulted run completes — no livelock, no deadlock.
//! 2. **No lost Portals events**: every application finishes, i.e. every
//!    expected event was eventually delivered exactly once.
//! 3. **Payload integrity**: with real payloads, every delivered byte
//!    matches what was sent, even when the delivering transmission was a
//!    go-back-n retransmission of a dropped/corrupted original.
//! 4. **Bounded recovery**: retransmissions stay within
//!    `(faults + 1) × window` — go-back-n never amplifies a loss into an
//!    unbounded retransmission storm.
//! 5. **Determinism**: the same seed replays to the same engine digest
//!    and the same model state fingerprint, faults included.
//! 6. **Isolation**: an injected firmware fault takes exactly its node
//!    dark; the rest of the machine keeps running.

use audit::replay::{Collector, Pusher};
use xt3_netpipe::runner::{
    build_engine, scenario_matrix, scenario_name, NetpipeConfig, TestKind, Transport,
};
use xt3_node::config::{ExhaustionPolicy, MachineConfig, NodeSpec};
use xt3_node::Machine;
use xt3_portals::types::ProcessId;
use xt3_sim::{Engine, FaultPlan, FaultStats, FwFaultKind, RunOutcome, SimTime, TimeWindow};
use xt3_telemetry::TelemetryReport;
use xt3_topology::coord::Dims;

/// Go-back-n window size the machine uses (mirrors
/// `xt3_node::machine::GBN_WINDOW`; the bound invariant needs it).
const GBN_WINDOW: u64 = 64;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base seed; every scenario derives its plan seed from it.
    pub seed: u64,
    /// Wire fault rates to sweep (drop = rate, corrupt = reorder = rate/2).
    pub rates: Vec<f64>,
    /// NetPIPE quick-schedule size cap in bytes.
    pub max_size: u64,
    /// Attach a cross-layer [`TelemetryReport`] to every scenario report.
    /// Digest-neutral: the sweep's digests and fingerprints are identical
    /// either way.
    pub telemetry: bool,
}

impl CampaignConfig {
    /// The default campaign: three fault rates over a 2 KiB sweep.
    pub fn new(seed: u64) -> Self {
        CampaignConfig {
            seed,
            rates: vec![0.01, 0.04, 0.08],
            max_size: 2048,
            telemetry: false,
        }
    }

    /// A reduced campaign for CI smoke runs (same rate count, smaller
    /// messages).
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            max_size: 512,
            ..Self::new(seed)
        }
    }
}

/// Outcome of one faulted scenario run (both same-seed executions agreed).
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario display name.
    pub name: String,
    /// Wire fault rate injected.
    pub rate: f64,
    /// Events dispatched to drain.
    pub dispatched: u64,
    /// Final engine replay digest (identical across both executions).
    pub digest: u64,
    /// Final model state fingerprint (identical across both executions).
    pub state: u64,
    /// What the injector actually did.
    pub stats: FaultStats,
    /// Go-back-n retransmissions the recovery layer performed.
    pub retransmissions: u64,
    /// Cross-layer telemetry, when [`CampaignConfig::telemetry`] is set.
    pub telemetry: Option<TelemetryReport>,
}

/// Run one faulted machine to the end and hold the recovery invariants
/// every cell shares — drain, no panicked and no dark node, bounded
/// retransmission — then the cell's own, `verify`, on the drained machine
/// (which also takes its telemetry, if any).
fn run_faulted(
    name: &str,
    rate: f64,
    mut engine: Engine<Machine>,
    verify: impl FnOnce(&mut Machine, SimTime) -> Option<TelemetryReport>,
) -> ScenarioReport {
    let outcome = engine.run();
    assert_eq!(
        outcome,
        RunOutcome::Drained,
        "{name} @ rate {rate}: faulted run must drain (livelock/deadlock in recovery)"
    );
    let dispatched = engine.dispatched();
    let digest = engine.digest();
    let state = engine.state_fingerprint();
    let elapsed = engine.now();
    let mut m = engine.into_model();
    assert!(
        !m.any_panicked(),
        "{name} @ rate {rate}: go-back-n must recover injected losses without panicking nodes"
    );
    assert!(
        m.dark_nodes().is_empty(),
        "{name} @ rate {rate}: wire faults must not take nodes dark"
    );
    let stats = m.fault_stats();
    let retransmissions = m.total_gbn_retransmissions();
    assert!(
        retransmissions <= (stats.total() + 1) * GBN_WINDOW,
        "{name} @ rate {rate}: {retransmissions} retransmissions from {} faults exceeds \
         the (faults + 1) x window bound",
        stats.total()
    );
    let telemetry = verify(&mut m, elapsed);
    ScenarioReport {
        name: name.to_string(),
        rate,
        dispatched,
        digest,
        state,
        stats,
        retransmissions,
        telemetry,
    }
}

/// Execute one cell **twice** from the same seed; the two executions must
/// agree on the replay digest and the state fingerprint — the determinism
/// invariant with faults in the loop.
fn replayed(run: impl Fn() -> ScenarioReport) -> ScenarioReport {
    let (first, second) = (run(), run());
    assert_eq!(
        first.digest, second.digest,
        "{}: same-seed runs must produce identical replay digests",
        first.name
    );
    assert_eq!(
        first.state, second.state,
        "{}: same-seed runs must produce identical state fingerprints",
        first.name
    );
    assert_eq!(first.dispatched, second.dispatched);
    first
}

/// The plan seed of cell `(major, minor)` of the sweep salted `salt`:
/// every cell carries its own, so cells are independent and can run in
/// any order — which is what makes the parallel sweep trivially
/// bit-identical to the serial one.
fn cell_seed(config: &CampaignConfig, salt: u64, major: usize, minor: usize) -> u64 {
    let seed = config.seed.wrapping_mul(salt);
    seed.wrapping_add(((major as u64) << 8) | minor as u64)
}

/// One (scenario, rate) cell of the sweep, fully determined by the
/// campaign seed and the cell's position in the matrix.
#[derive(Debug, Clone, Copy)]
struct SweepCell {
    t: Transport,
    k: TestKind,
    rate: f64,
    plan_seed: u64,
}

/// Expand the campaign into its cell list, in the canonical (scenario,
/// rate) order.
fn sweep_cells(config: &CampaignConfig) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for (idx, (t, k)) in scenario_matrix().into_iter().enumerate() {
        for (ridx, &rate) in config.rates.iter().enumerate() {
            let plan_seed = cell_seed(config, 0x9E37_79B9_7F4A_7C15, idx, ridx);
            cells.push(SweepCell {
                t,
                k,
                rate,
                plan_seed,
            });
        }
    }
    cells
}

/// One faulted NetPIPE scenario, replayed.
fn run_cell(config: &CampaignConfig, cell: &SweepCell) -> ScenarioReport {
    let SweepCell {
        t,
        k,
        rate,
        plan_seed,
    } = *cell;
    let mut np =
        NetpipeConfig::quick(config.max_size).with_faults(FaultPlan::wire(plan_seed, rate));
    np.telemetry = config.telemetry;
    replayed(|| {
        let name = scenario_name(t, k);
        run_faulted(&name, rate, build_engine(&np, t, k), |m, elapsed| {
            assert_eq!(
                m.running_apps(),
                0,
                "{name} @ rate {rate}: every app must finish — a Portals event was lost"
            );
            config.telemetry.then(|| m.telemetry_report(&name, elapsed))
        })
    })
}

/// Sweep every NetPIPE scenario at every configured fault rate, serially.
pub fn run_netpipe_sweep(config: &CampaignConfig) -> Vec<ScenarioReport> {
    sweep_cells(config)
        .iter()
        .map(|cell| run_cell(config, cell))
        .collect()
}

/// The same sweep fanned across worker threads. Each cell is an
/// independent deterministic simulation with a seed derived from its
/// matrix position, so the report vector — digests, fingerprints, order —
/// is bit-identical to [`run_netpipe_sweep`] (asserted by the
/// `parallel_sweep_matches_serial` test and the `campaign` subcommand's
/// `--serial` escape hatch).
pub fn run_netpipe_sweep_parallel(config: &CampaignConfig) -> Vec<ScenarioReport> {
    crate::parallel::run_indexed(sweep_cells(config), |cell| run_cell(config, cell))
}

/// `plan` plus a 3 µs interrupt-delay spike on every node for the first
/// 2 ms.
fn with_interrupt_spike(plan: FaultPlan) -> FaultPlan {
    let window = TimeWindow {
        start: SimTime::ZERO,
        end: SimTime::from_ms(2),
    };
    plan.with_interrupt_spike(None, window, SimTime::from_us(3))
}

/// Build the fault plan an RMA workload cell runs under: wire faults at
/// `rate` (drop = rate, corrupt = reorder = rate/2) plus an SRAM
/// exhaustion pulse on node 1 — so every cell exercises both loss
/// recovery and go-back-n under receive-resource pressure.
fn rma_fault_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::wire(seed, rate).with_sram_pulse(
        Some(1),
        TimeWindow {
            start: SimTime::from_us(30),
            end: SimTime::from_us(90),
        },
    )
}

/// Sweep both RMA workloads — the accumulate-driven DHT and the
/// window-driven halo exchange — across every configured wire fault rate
/// with an SRAM exhaustion pulse layered on, real payloads throughout.
/// Each cell runs **twice** from the same seed and must replay
/// digest-identical: for the DHT that means the accumulation order per
/// target is fixed, not merely the final sums.
///
/// Integrity invariants, checked per cell:
/// * **DHT (exactly-once accumulate)**: the wrapping sum of every stored
///   window lane equals the wrapping sum of every inserted value — a
///   dropped accumulate (lost update) or a double-applied retransmission
///   both break the equality;
/// * **halo**: every received face is byte-exact against the neighbor's
///   pattern for all iterations.
pub fn run_rma_faults(config: &CampaignConfig) -> Vec<ScenarioReport> {
    use xt3_netpipe::rma::{
        dht_machine, dht_outcome, halo_outcome, window_halo_machine, RmaWorkloadConfig, HALO_ITERS,
    };
    let verify_dht = |m: &mut Machine, name: &str, rate: f64| {
        let out = dht_outcome(m);
        assert_eq!(
            out.stored, out.inserted,
            "{name} @ rate {rate}: accumulate applied other than exactly once \
             (stored {:#x} vs inserted {:#x})",
            out.stored, out.inserted
        );
    };
    let verify_halo = |m: &mut Machine, name: &str, rate: f64| {
        let out = halo_outcome(m);
        assert!(
            !out.corrupt,
            "{name} @ rate {rate}: a halo face failed byte verification"
        );
        assert_eq!(
            out.iters, HALO_ITERS,
            "{name} @ rate {rate}: iterations lost"
        );
    };
    type RmaCell<'a> = (
        &'a str,
        &'a dyn Fn(&RmaWorkloadConfig) -> Machine,
        &'a dyn Fn(&mut Machine, &str, f64),
    );
    let cells: [RmaCell<'_>; 2] = [
        ("rma/dht", &|c| dht_machine(c), &verify_dht),
        ("rma/window-halo", &|c| window_halo_machine(c), &verify_halo),
    ];
    let mut reports = Vec::new();
    for (sidx, &rate) in config.rates.iter().enumerate() {
        for (cidx, (name, build, verify)) in cells.iter().enumerate() {
            let plan_seed = cell_seed(config, 0xA24B_AED4_963E_E407, sidx, cidx);
            let wcfg = RmaWorkloadConfig::validation().with_faults(rma_fault_plan(plan_seed, rate));
            reports.push(replayed(|| {
                run_faulted(name, rate, build(&wcfg).into_engine(), |m, _| {
                    assert_eq!(
                        m.running_apps(),
                        0,
                        "{name} @ rate {rate}: every rank must finish — a fence or ack was lost"
                    );
                    verify(m, name, rate);
                    None
                })
            }));
        }
    }
    reports
}

/// Sweep the congestion-heavy traffic patterns — the k-to-1 incast and
/// the all-to-all — across every configured wire fault rate with an
/// interrupt-delay spike layered on, real payloads throughout. These are
/// the patterns where go-back-n recovery has to work *through* link
/// contention: a retransmission joins the same congested queues that
/// delayed the original.
///
/// Integrity invariants, checked per cell:
/// * **Drain + completion**: every node finishes with zero outstanding
///   receives — no put lost to the fault injector;
/// * **Payload integrity**: every delivered byte matches the sender's
///   pattern (real payloads, so a mis-repaired retransmission is caught);
/// * **Exact provenance**: the wrapping sum of every delivered
///   `(sender << 32) | seq` header equals the closed-form expectation —
///   a duplicated or mis-attributed delivery breaks the sum even when
///   the bytes look right.
///
/// Each cell runs **twice** from the same seed and must agree on digest
/// and state fingerprint — determinism with faults *and* congestion in
/// the loop.
pub fn run_traffic_faults(config: &CampaignConfig) -> Vec<ScenarioReport> {
    use xt3_node::workloads::{
        expected_hdr_sum, pattern_stats, traffic_machine_cfg, TrafficPattern,
    };
    const ROUNDS: u32 = 2;
    const MSG: u64 = 1024;
    let dims = Dims::mesh(3, 2, 2);
    let patterns = [TrafficPattern::Incast, TrafficPattern::AllToAll];
    let run_one = |pattern: TrafficPattern, rate: f64, plan_seed: u64| -> ScenarioReport {
        let name = format!("traffic/{}", pattern.name());
        let mut mc = MachineConfig::paper(dims);
        mc.seed = plan_seed;
        mc.synthetic_payload = false;
        mc.exhaustion = ExhaustionPolicy::GoBackN;
        mc.faults = with_interrupt_spike(FaultPlan::wire(plan_seed, rate));
        let engine = traffic_machine_cfg(pattern, mc, ROUNDS, MSG).into_engine();
        run_faulted(&name, rate, engine, |m, _| {
            let pstats = pattern_stats(m);
            assert_eq!(
                pstats.outstanding, 0,
                "{name} @ rate {rate}: a put was lost under faults"
            );
            assert!(
                !pstats.corrupt,
                "{name} @ rate {rate}: a delivered payload failed byte verification"
            );
            assert_eq!(
                pstats.hdr_sum,
                expected_hdr_sum(pattern, dims, ROUNDS, plan_seed),
                "{name} @ rate {rate}: provenance header sum mismatch (duplicate or \
                 mis-attributed delivery)"
            );
            None
        })
    };
    let mut reports = Vec::new();
    for (ridx, &rate) in config.rates.iter().enumerate() {
        for (pidx, &pattern) in patterns.iter().enumerate() {
            let plan_seed = cell_seed(config, 0xD6E8_FEB8_6659_FD93, ridx, pidx);
            reports.push(replayed(|| run_one(pattern, rate, plan_seed)));
        }
    }
    reports
}

/// Result of the real-payload integrity run.
#[derive(Debug, Clone)]
pub struct IntegrityReport {
    /// Messages delivered.
    pub delivered: u32,
    /// Go-back-n retransmissions performed.
    pub retransmissions: u64,
    /// Injector statistics.
    pub stats: FaultStats,
}

/// Drive real (non-synthetic) payloads through wire faults plus an SRAM
/// exhaustion pulse and an interrupt-delay spike, and verify every
/// delivered byte. This is the end-to-end integrity invariant: a
/// retransmitted or CRC-rejected-then-repaired message must arrive byte
/// exact.
pub fn run_payload_integrity(seed: u64, rate: f64) -> IntegrityReport {
    const COUNT: u32 = 24;
    let mut config = MachineConfig::paper_pair();
    config.synthetic_payload = false;
    config.exhaustion = ExhaustionPolicy::GoBackN;
    config.faults = with_interrupt_spike(FaultPlan::wire(seed, rate).with_sram_pulse(
        Some(1),
        TimeWindow {
            start: SimTime::from_us(30),
            end: SimTime::from_us(60),
        },
    ));
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::new(ProcessId::new(1, 0), 2048, COUNT)),
    );
    m.spawn(1, 0, Box::new(Collector::new(COUNT)));
    let mut engine = m.into_engine();
    let outcome = engine.run();
    assert_eq!(
        outcome,
        RunOutcome::Drained,
        "integrity run must drain at rate {rate}"
    );
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "all {COUNT} puts must deliver");
    assert!(!m.any_panicked());
    let stats = m.fault_stats();
    let retransmissions = m.total_gbn_retransmissions();
    let mut app = m.take_app(1, 0).expect("collector");
    let c = app
        .as_any()
        .downcast_mut::<Collector>()
        .expect("collector type");
    assert_eq!(c.got, COUNT, "exactly-once delivery under faults");
    assert!(
        !c.corrupt,
        "every delivered payload must be byte exact (rate {rate})"
    );
    IntegrityReport {
        delivered: c.got,
        retransmissions,
        stats,
    }
}

/// Result of the node-isolation run.
#[derive(Debug, Clone)]
pub struct IsolationReport {
    /// Nodes the fault plan took dark.
    pub dark: Vec<u32>,
    /// Puts the collector still received from the surviving senders.
    pub delivered: u32,
}

/// Inject an unrecoverable firmware fault on one node of a five-node
/// fan-in and prove the blast radius stops at that node: the other
/// senders keep delivering, nothing panics, and exactly the faulted node
/// goes dark. The collector can never reach its full count (the dark
/// node's messages are gone), so the run is bounded by a time horizon
/// rather than drained.
pub fn run_isolation(seed: u64) -> IsolationReport {
    const PER_SENDER: u32 = 3;
    let mut config = MachineConfig::paper(Dims::mesh(5, 1, 1));
    config.seed = seed;
    config.exhaustion = ExhaustionPolicy::GoBackN;
    config.faults =
        FaultPlan::wire(seed, 0.0).with_fw_event(2, SimTime::from_us(1), FwFaultKind::Fault);
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    for nid in 1..5 {
        m.spawn(
            nid,
            0,
            Box::new(Pusher::new(ProcessId::new(0, 0), 1024, PER_SENDER)),
        );
    }
    m.spawn(0, 0, Box::new(Collector::new(4 * PER_SENDER)));
    let mut engine = m.into_engine();
    engine.run_until(SimTime::from_ms(50));
    let mut m = engine.into_model();
    let dark = m.dark_nodes();
    assert_eq!(dark, vec![2], "exactly the faulted node goes dark");
    assert!(
        !m.any_panicked(),
        "an injected firmware fault must isolate, not panic, the machine"
    );
    let mut app = m.take_app(0, 0).expect("collector");
    let c = app
        .as_any()
        .downcast_mut::<Collector>()
        .expect("collector type");
    assert_eq!(
        c.got,
        3 * PER_SENDER,
        "the three surviving senders must still deliver everything"
    );
    IsolationReport {
        dark,
        delivered: c.got,
    }
}

/// Full campaign: the NetPIPE sweep, the RMA workload sweep, the
/// congested-traffic sweep, plus the integrity and isolation runs.
/// Panics on any violated invariant; returns the per-scenario reports
/// for display. `serial` forces the single-threaded sweep (the parallel
/// one is the default and produces bit-identical reports).
pub fn run_all(
    config: &CampaignConfig,
    serial: bool,
) -> (
    Vec<ScenarioReport>,
    Vec<ScenarioReport>,
    Vec<ScenarioReport>,
    IntegrityReport,
    IsolationReport,
) {
    let sweep = if serial {
        run_netpipe_sweep(config)
    } else {
        run_netpipe_sweep_parallel(config)
    };
    let rma = run_rma_faults(config);
    let traffic = run_traffic_faults(config);
    let max_rate = config
        .rates
        .iter()
        .copied()
        .fold(0.0_f64, f64::max)
        .max(0.02);
    let integrity = run_payload_integrity(config.seed ^ 0x1A7E6417, max_rate);
    let isolation = run_isolation(config.seed ^ 0x150_1A7E);
    (sweep, rma, traffic, integrity, isolation)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cell of the sweep end-to-end, with the double-run digest
    /// check, at a meaningful fault rate.
    #[test]
    fn single_cell_recovers_and_replays() {
        let config = CampaignConfig {
            seed: 0xCA4A16,
            rates: vec![0.06],
            max_size: 256,
            telemetry: false,
        };
        let reports = run_netpipe_sweep(&config);
        assert_eq!(reports.len(), scenario_matrix().len());
        assert!(
            reports.iter().any(|r| r.stats.wire_total() > 0),
            "a 6% fault rate must actually inject faults somewhere"
        );
    }

    /// Turning telemetry on must not perturb the sweep: digests and
    /// fingerprints stay bit-identical, and every report gains telemetry.
    #[test]
    fn telemetry_attach_is_digest_neutral() {
        let base = CampaignConfig {
            seed: 0xCA4A16,
            rates: vec![0.06],
            max_size: 256,
            telemetry: false,
        };
        let with_tele = CampaignConfig {
            telemetry: true,
            ..base.clone()
        };
        let plain = run_netpipe_sweep(&base);
        let instrumented = run_netpipe_sweep(&with_tele);
        assert_eq!(plain.len(), instrumented.len());
        for (p, i) in plain.iter().zip(&instrumented) {
            assert_eq!(
                p.digest, i.digest,
                "{}: telemetry changed the digest",
                p.name
            );
            assert_eq!(p.state, i.state, "{}: telemetry changed the state", p.name);
            assert!(p.telemetry.is_none());
            let t = i.telemetry.as_ref().expect("report attached");
            assert_eq!(t.label, i.name);
            assert_eq!(t.nodes.len(), 2);
        }
    }

    /// The fanned-out sweep must be indistinguishable from the serial
    /// one: same report order, same digests, same fingerprints, same
    /// fault counts. This is the contract that lets `campaign`
    /// default to the parallel runner.
    #[test]
    fn parallel_sweep_matches_serial() {
        let config = CampaignConfig {
            seed: 0xCA4A16,
            rates: vec![0.0, 0.06],
            max_size: 256,
            telemetry: false,
        };
        let serial = run_netpipe_sweep(&config);
        let parallel = run_netpipe_sweep_parallel(&config);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.rate.to_bits(), p.rate.to_bits());
            assert_eq!(s.dispatched, p.dispatched);
            assert_eq!(
                s.digest, p.digest,
                "{}: digest must be bit-identical",
                s.name
            );
            assert_eq!(s.state, p.state, "{}: state must be bit-identical", s.name);
            assert_eq!(s.retransmissions, p.retransmissions);
            assert_eq!(s.stats, p.stats);
        }
    }

    /// One RMA workload cell per workload at a meaningful fault rate:
    /// drains, replays digest-identical, and — the Accumulate
    /// exactly-once invariant — the stored sums match the inserted sums
    /// even when go-back-n had to retransmit.
    #[test]
    fn rma_workloads_recover_and_stay_exactly_once() {
        let config = CampaignConfig {
            seed: 0xCA4A16,
            rates: vec![0.06],
            max_size: 256,
            telemetry: false,
        };
        let reports = run_rma_faults(&config);
        assert_eq!(reports.len(), 2, "one cell per workload per rate");
        assert!(
            reports.iter().any(|r| r.stats.total() > 0),
            "a 6% fault rate must actually inject faults somewhere"
        );
    }

    /// One congested-traffic fault cell per pattern at a meaningful
    /// rate: drains, replays digest-identical, and keeps payload bytes
    /// and the provenance header sum exact through go-back-n recovery
    /// under contention.
    #[test]
    fn congested_traffic_recovers_with_exact_provenance() {
        let config = CampaignConfig {
            seed: 0xCA4A16,
            rates: vec![0.06],
            max_size: 256,
            telemetry: false,
        };
        let reports = run_traffic_faults(&config);
        assert_eq!(reports.len(), 2, "one cell per pattern per rate");
        assert!(
            reports.iter().any(|r| r.stats.total() > 0),
            "a 6% fault rate must actually inject faults somewhere"
        );
        assert!(
            reports.iter().any(|r| r.retransmissions > 0),
            "contended faulted traffic must exercise go-back-n"
        );
    }

    #[test]
    fn payload_integrity_under_faults() {
        let r = run_payload_integrity(0xFEED_FACE, 0.05);
        assert_eq!(r.delivered, 24);
        assert!(
            r.stats.total() > 0,
            "the integrity run must actually exercise faults"
        );
    }

    #[test]
    fn faulted_node_is_isolated() {
        let r = run_isolation(0xDEAD_10CC);
        assert_eq!(r.dark, vec![2]);
        assert_eq!(r.delivered, 9);
    }
}
