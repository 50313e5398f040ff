//! Replay-divergence checker.
//!
//! The DES contract is: same configuration + same seed ⇒ the same event
//! sequence, bit for bit. The engine maintains a streaming FNV digest of
//! every dispatched event ([`xt3_sim::Engine::digest`]); this module
//! builds two identically-configured engines per scenario and steps them
//! in **lockstep**, comparing the digest and clock after every event.
//! A nondeterminism bug (hash-ordered iteration, wall-clock leakage,
//! address-sensitive ordering) shows up as the *first* divergent event
//! index rather than as a flaky benchmark three layers up.
//!
//! Scenarios cover each NetPIPE transport × test pattern plus the tier-1
//! end-to-end configurations (go-back-N under pool exhaustion, CRC noise
//! on the wire, many-to-one fan-in).

use std::any::Any;
use std::fmt;

use xt3_netpipe::runner::{build_machine, scenario_matrix, scenario_name, NetpipeConfig};
use xt3_node::config::{ExhaustionPolicy, MachineConfig, NodeSpec};
use xt3_node::{App, AppCtx, AppEvent, Machine};
use xt3_portals::event::EventKind;
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{AckReq, EqHandle, ProcessId};
use xt3_sim::{Engine, Model};
use xt3_topology::coord::Dims;

/// Where two supposedly-identical runs first disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Scenario name.
    pub scenario: String,
    /// 1-based index of the first divergent event.
    pub index: u64,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay divergence in `{}` at event {}: {}",
            self.scenario, self.index, self.detail
        )
    }
}

/// A completed, divergence-free replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRun {
    /// Scenario name.
    pub name: String,
    /// Events both runs dispatched.
    pub dispatched: u64,
    /// The (equal) final digest.
    pub digest: u64,
}

/// Step `a` and `b` — two engines built from the same configuration —
/// one event at a time, comparing the streaming digest and clock after
/// every event. Returns the first divergence, or the agreed final state.
pub fn lockstep<M: Model>(
    mut a: Engine<M>,
    mut b: Engine<M>,
    name: &str,
) -> Result<ReplayRun, Divergence> {
    loop {
        let sa = a.step();
        let sb = b.step();
        if sa != sb {
            return Err(Divergence {
                scenario: name.to_string(),
                index: a.dispatched().max(b.dispatched()),
                detail: format!(
                    "one run drained after {} events, the other still had work after {}",
                    a.dispatched().min(b.dispatched()),
                    a.dispatched().max(b.dispatched())
                ),
            });
        }
        if !sa {
            // Both drained together. The per-step compare below already
            // caught any divergence, so the digests must agree here.
            debug_assert_eq!(a.digest(), b.digest());
            return Ok(ReplayRun {
                name: name.to_string(),
                dispatched: a.dispatched(),
                digest: a.digest(),
            });
        }
        if a.digest() != b.digest() || a.now() != b.now() {
            return Err(Divergence {
                scenario: name.to_string(),
                index: a.dispatched(),
                detail: format!(
                    "digest {:#018x} vs {:#018x}, clock {} vs {}",
                    a.digest(),
                    b.digest(),
                    a.now(),
                    b.now()
                ),
            });
        }
        // The event stream can agree while model-internal state (trace
        // digest, fault-injection decisions, recovery counters) drifts;
        // the state fingerprint closes that gap.
        if a.state_fingerprint() != b.state_fingerprint() {
            return Err(Divergence {
                scenario: name.to_string(),
                index: a.dispatched(),
                detail: format!(
                    "state fingerprint {:#018x} vs {:#018x} (event streams agree)",
                    a.state_fingerprint(),
                    b.state_fingerprint()
                ),
            });
        }
    }
}

/// One replayable scenario: a name plus a constructor that builds a
/// fully-spawned (unrun) machine. The checker calls the constructor
/// twice; holding a *machine* builder (rather than an engine builder)
/// lets the same construction drive both the serial lockstep check and
/// the serial-vs-parallel check.
pub struct Scenario {
    /// Display name (stable; used in failure output).
    pub name: String,
    build: Box<dyn Fn() -> Machine>,
}

impl Scenario {
    /// Build one fully-seeded engine instance.
    pub fn build(&self) -> Engine<Machine> {
        (self.build)().into_engine()
    }

    /// Build one fully-spawned machine instance.
    pub fn build_machine(&self) -> Machine {
        (self.build)()
    }

    /// Run the scenario twice from identical state and compare. The
    /// telemetry sink, the causal message tracer *and* the per-link
    /// congestion series are enabled on one side only, so every lockstep
    /// pass also proves all three observers are digest-neutral at event
    /// granularity — the instrumented run must match the bare one step
    /// for step.
    pub fn check(&self) -> Result<ReplayRun, Divergence> {
        let a = self.build();
        let mut b = self.build();
        b.model_mut().set_telemetry_enabled(true);
        b.model_mut().set_causal_enabled(true);
        b.model_mut()
            .enable_link_series(xt3_telemetry::SeriesConfig::default());
        lockstep(a, b, &self.name)
    }

    /// Run the scenario serially and on the parallel window driver with
    /// `workers` shards, comparing final digest, state fingerprint,
    /// clock and dispatch count. The parallel side runs with telemetry
    /// and causal tracing enabled, extending the observer-neutrality
    /// proof to partitioned execution. Windowed execution has no
    /// per-event interleaving to compare, so divergence is reported at
    /// run granularity.
    pub fn check_parallel(&self, workers: usize) -> Result<ReplayRun, Divergence> {
        let mut serial = self.build();
        serial.run();
        let name = format!("{}@par{workers}", self.name);

        let mut m = self.build_machine();
        // Routed through the config flag so the shards created by
        // `Machine::split` inherit enabled sinks. The link series ride
        // on the real fabric, which the coordinator keeps.
        m.config.telemetry = true;
        m.set_causal_enabled(true);
        m.enable_link_series(xt3_telemetry::SeriesConfig::default());
        let par = xt3_node::par::run_parallel(m, workers);

        let mut mismatch: Vec<String> = Vec::new();
        if par.digest != serial.digest() {
            mismatch.push(format!(
                "digest {:#018x} vs serial {:#018x}",
                par.digest,
                serial.digest()
            ));
        }
        if par.state_fingerprint != serial.state_fingerprint() {
            mismatch.push(format!(
                "state fingerprint {:#018x} vs serial {:#018x}",
                par.state_fingerprint,
                serial.state_fingerprint()
            ));
        }
        if par.now != serial.now() {
            mismatch.push(format!("clock {} vs serial {}", par.now, serial.now()));
        }
        if par.dispatched != serial.dispatched() {
            mismatch.push(format!(
                "dispatched {} vs serial {}",
                par.dispatched,
                serial.dispatched()
            ));
        }
        if mismatch.is_empty() {
            Ok(ReplayRun {
                name,
                dispatched: par.dispatched,
                digest: par.digest,
            })
        } else {
            Err(Divergence {
                scenario: name,
                index: par.dispatched,
                detail: mismatch.join("; "),
            })
        }
    }
}

/// The NetPIPE scenarios: every transport × pattern from
/// [`scenario_matrix`] — the same enumeration the fault campaign sweeps,
/// so audit coverage and campaign coverage cannot drift apart — on the
/// quick size schedule capped at `max_size` bytes.
pub fn netpipe_scenarios(max_size: u64) -> Vec<Scenario> {
    scenario_matrix()
        .into_iter()
        .map(|(t, k)| Scenario {
            name: scenario_name(t, k),
            build: Box::new(move || build_machine(&NetpipeConfig::quick(max_size), t, k)),
        })
        .collect()
}

/// The tier-1 end-to-end configurations, replayed: go-back-N recovery
/// under RX pool exhaustion, CRC errors on every link, and many-to-one
/// fan-in through source lists.
pub fn e2e_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "e2e/gbn-exhaustion".to_string(),
            build: Box::new(|| {
                let mut config = MachineConfig::paper_pair();
                config.synthetic_payload = false;
                config.fw.rx_pendings = 3;
                config.fw.tx_pendings = 64;
                config.exhaustion = ExhaustionPolicy::GoBackN;
                let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
                m.spawn(
                    0,
                    0,
                    Box::new(Pusher::burst(ProcessId::new(1, 0), 2048, 16)),
                );
                m.spawn(1, 0, Box::new(Collector::new(16)));
                m
            }),
        },
        Scenario {
            name: "e2e/crc-noise".to_string(),
            build: Box::new(|| {
                let seed = MachineConfig::paper_pair().seed;
                crc_noise_machine(seed)
            }),
        },
        Scenario {
            name: "e2e/fan-in".to_string(),
            build: Box::new(|| {
                let config = MachineConfig::paper(Dims::mesh(5, 1, 1));
                let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
                for nid in 1..5 {
                    m.spawn(nid, 0, Box::new(Pusher::new(ProcessId::new(0, 0), 1024, 3)));
                }
                m.spawn(0, 0, Box::new(Collector::new(12)));
                m
            }),
        },
    ]
}

/// The CRC-noise end-to-end engine with an explicit machine seed.
///
/// Exposed so the digest tests can show both directions of the contract:
/// equal seeds ⇒ equal digests, and different seeds ⇒ different digests
/// (the seed drives CRC error injection, so the event streams genuinely
/// differ).
pub fn crc_noise_engine(seed: u64) -> Engine<Machine> {
    crc_noise_machine(seed).into_engine()
}

/// The CRC-noise machine behind [`crc_noise_engine`], un-wrapped so the
/// parallel checker can run the same construction on the window driver.
pub fn crc_noise_machine(seed: u64) -> Machine {
    let mut config = MachineConfig::paper_pair();
    config.seed = seed;
    // The fabric keeps its own injection RNG; thread the seed there too
    // or two "differently-seeded" runs would corrupt the same packets.
    config.fabric.seed = seed;
    config.synthetic_payload = false;
    config.fabric.link.crc_error_prob = 0.25;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::new(ProcessId::new(1, 0), 16 << 10, 4)),
    );
    m.spawn(1, 0, Box::new(Collector::new(4)));
    m
}

/// A fault-injected NetPIPE replay: wire faults at a rate high enough to
/// force go-back-n recovery on every round. Replaying it in lockstep
/// proves the injector's decisions — drops, corruptions, reorders — are
/// part of the deterministic contract, not just the clean path.
pub fn fault_scenario() -> Scenario {
    Scenario {
        name: "e2e/fault-injection".to_string(),
        build: Box::new(|| {
            let plan = xt3_sim::FaultPlan::wire(0xFA17_5EED, 0.08);
            let config = NetpipeConfig::quick(4096).with_faults(plan);
            let (t, k) = scenario_matrix()[0];
            build_machine(&config, t, k)
        }),
    }
}

/// The RMA-native workload scenarios: the 4-rank distributed hash table
/// (accumulate inserts + get lookups) and the 8-rank window-driven halo
/// exchange. These replay the one-sided machinery the NetPIPE matrix
/// does not reach — multi-rank fence barriers, per-target accumulate
/// serialization, window events — under the audit (synthetic) build.
pub fn rma_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "rma/dht".to_string(),
            build: Box::new(|| {
                xt3_netpipe::rma::dht_machine(&xt3_netpipe::rma::RmaWorkloadConfig::audit())
            }),
        },
        Scenario {
            name: "rma/window-halo".to_string(),
            build: Box::new(|| {
                xt3_netpipe::rma::window_halo_machine(&xt3_netpipe::rma::RmaWorkloadConfig::audit())
            }),
        },
    ]
}

/// The fabric-congestion traffic patterns, replayed: each of the five
/// [`TrafficPattern`]s on a small torus. These exercise the per-link
/// series recorder and hop-level contention — many flows crossing the
/// same links in the same window — which the pairwise scenarios above
/// never create.
pub fn traffic_scenarios() -> Vec<Scenario> {
    use xt3_node::workloads::{traffic_machine, TrafficPattern};
    TrafficPattern::ALL
        .into_iter()
        .map(|pattern| Scenario {
            name: format!("traffic/{}", pattern.name()),
            build: Box::new(move || traffic_machine(pattern, Dims::mesh(4, 3, 2), 2, 2048)),
        })
        .collect()
}

/// The paths only accelerated mode, the Linux bridges and the RAS tick
/// reach — none of which the NetPIPE matrix (generic Catamount pairs)
/// or the benchmark's workloads touch. Sizes straddle the 12-byte
/// piggyback edge wherever a put, reply or ack can take either side.
pub fn machine_path_scenarios() -> Vec<Scenario> {
    use xt3_netpipe::ptl::{PtlInitiator, PtlPattern};
    use xt3_netpipe::{Schedule, TestKind, Transport};
    use xt3_node::config::ProcSpec;

    let accel_netpipe = |name: &str, t: Transport| Scenario {
        name: name.to_string(),
        build: Box::new(move || {
            let config = NetpipeConfig {
                accelerated: true,
                ..NetpipeConfig::quick(4096)
            };
            build_machine(&config, t, TestKind::PingPong)
        }),
    };
    // Acked puts between a two-process accelerated node and a
    // two-process generic node: one bulk (32 KiB) and one piggybacked
    // (8 B) flow, both in the direction `sender -> 1 - sender`.
    let interop = |name: &str, sender: u32| Scenario {
        name: name.to_string(),
        build: Box::new(move || {
            let mut config = MachineConfig::paper_pair();
            config.synthetic_payload = false;
            let two = |p: ProcSpec| NodeSpec {
                procs: vec![p, p],
                ..NodeSpec::catamount_compute()
            };
            let specs = [
                two(ProcSpec::catamount_accelerated()),
                two(ProcSpec::catamount_generic()),
            ];
            let mut m = Machine::new(config, &specs);
            for (pid, len) in [(0, 32 << 10), (1, 8)] {
                let target = ProcessId::new(1 - sender, pid);
                m.spawn(
                    sender,
                    pid,
                    Box::new(Pusher::new(target, len, 3).with_acks()),
                );
                m.spawn(1 - sender, pid, Box::new(Collector::new(3)));
            }
            m
        }),
    };
    vec![
        accel_netpipe("accel/put-pingpong", Transport::Put),
        accel_netpipe("accel/get-pingpong", Transport::Get),
        interop("interop/accel-to-generic", 0),
        interop("interop/generic-to-accel", 1),
        Scenario {
            // Two Linux service nodes: the ukbridge processes pull from
            // each other with gets up to four pages long (paged reply
            // sources and deposit lists); the kbridge processes move
            // acked five-page puts.
            name: "e2e/linux-service".to_string(),
            build: Box::new(|| {
                let mut config = MachineConfig::paper_pair();
                config.synthetic_payload = false;
                let mut m = Machine::new(config, &[NodeSpec::linux_service()]);
                for nid in 0..2 {
                    let gets = PtlInitiator::with_peer(
                        PtlPattern::BidirGet,
                        Schedule::quick(16 << 10),
                        1 - nid,
                    );
                    m.spawn(nid, 0, Box::new(gets));
                }
                let puts = Pusher::new(ProcessId::new(1, 1), 20_000, 3).with_acks();
                m.spawn(0, 1, Box::new(puts));
                m.spawn(1, 1, Box::new(Collector::new(3)));
                m
            }),
        },
        Scenario {
            name: "e2e/ras-heartbeat".to_string(),
            build: Box::new(|| {
                let mut config = MachineConfig::paper_pair();
                config.ras_heartbeat = Some(xt3_sim::SimTime::from_us(5));
                let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
                m.spawn(0, 0, Box::new(Pusher::new(ProcessId::new(1, 0), 1024, 3)));
                m.spawn(1, 0, Box::new(Collector::new(3)));
                m
            }),
        },
    ]
}

/// Every scenario the `audit replay` command and the tier-1 replay test
/// run: NetPIPE sweeps capped at 4 KiB, the e2e configurations, the
/// fault-injected replay, the RMA workloads, the congestion traffic
/// patterns, and the accelerated / Linux-bridge / heartbeat paths.
pub fn all_scenarios() -> Vec<Scenario> {
    let mut out = netpipe_scenarios(4096);
    out.extend(e2e_scenarios());
    out.push(fault_scenario());
    out.extend(rma_scenarios());
    out.extend(traffic_scenarios());
    out.extend(machine_path_scenarios());
    out
}

/// Run every scenario; return the per-scenario results or the first
/// divergence.
pub fn check_all() -> Result<Vec<ReplayRun>, Divergence> {
    all_scenarios().iter().map(|s| s.check()).collect()
}

// ---------------------------------------------------------------------
// Minimal traffic apps (put sender / put collector) for the e2e
// scenarios. Mirrors the shape of the tier-1 `full_stack.rs` apps.
// Public so the fault campaign (`crates/bench`) can drive real-payload
// integrity checks through the same apps the audit replays.
// ---------------------------------------------------------------------

const PT: u32 = 4;
const BITS: u64 = 0xD1CE;

/// Sends `count` puts of `len` bytes to `target`. With real payloads the
/// bytes follow the `i % 251` pattern [`Collector`] verifies on arrival.
pub struct Pusher {
    target: ProcessId,
    len: u64,
    count: u32,
    sent: u32,
    acked: u32,
    burst: bool,
    ack: AckReq,
    eq: Option<EqHandle>,
}

impl Pusher {
    /// One put at a time, each sent when the previous completes.
    pub fn new(target: ProcessId, len: u64, count: u32) -> Self {
        Pusher {
            target,
            len,
            count,
            sent: 0,
            acked: 0,
            burst: false,
            ack: AckReq::NoAck,
            eq: None,
        }
    }

    /// Request a Portals acknowledgement for every put and finish only
    /// once each has come back (the firmware-direct Ack path).
    pub fn with_acks(mut self) -> Self {
        self.ack = AckReq::Ack;
        self
    }

    /// All `count` puts issued at once (stresses RX pool exhaustion).
    pub fn burst(target: ProcessId, len: u64, count: u32) -> Self {
        Pusher {
            burst: true,
            ..Self::new(target, len, count)
        }
    }
}

impl App for Pusher {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                if !ctx.synthetic() {
                    let payload: Vec<u8> = (0..self.len).map(|i| (i % 251) as u8).collect();
                    ctx.write_mem(0, &payload);
                }
                let eq = ctx.eq_alloc(1024).expect("audit pusher eq");
                self.eq = Some(eq);
                let md = ctx
                    .md_bind(
                        0,
                        self.len,
                        MdOptions::default(),
                        Threshold::Infinite,
                        Some(eq),
                        0,
                    )
                    .expect("audit pusher md");
                let first = if self.burst { self.count } else { 1 };
                for _ in 0..first {
                    ctx.put(md, self.ack, self.target, PT, 0, BITS, 0, 0)
                        .expect("audit pusher put");
                }
                self.sent = first;
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(ev) => {
                // When acks are requested they pace the sender instead of
                // the SendEnds, so every put's full round trip is replayed.
                let pace = match self.ack {
                    AckReq::Ack => EventKind::Ack,
                    AckReq::NoAck => EventKind::SendEnd,
                };
                if ev.kind == pace {
                    self.acked += 1;
                    if self.sent < self.count {
                        ctx.put(ev.md, self.ack, self.target, PT, 0, BITS, 0, 0)
                            .expect("audit pusher put");
                        self.sent += 1;
                    } else if self.acked >= self.count {
                        ctx.finish();
                        return;
                    }
                }
                ctx.wait_eq(self.eq.expect("eq set at start"));
            }
            _ => ctx.wait_eq(self.eq.expect("eq set at start")),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Collects `count` puts, then finishes. With real payloads every
/// arriving byte is checked against [`Pusher`]'s `i % 251` pattern; a
/// mismatch sets [`Collector::corrupt`] — the fault campaign's
/// end-to-end integrity invariant.
pub struct Collector {
    count: u32,
    /// Puts received so far.
    pub got: u32,
    /// A real-payload arrival failed byte verification.
    pub corrupt: bool,
    eq: Option<EqHandle>,
}

impl Collector {
    /// Expect `count` puts.
    pub fn new(count: u32) -> Self {
        Collector {
            count,
            got: 0,
            corrupt: false,
            eq: None,
        }
    }
}

impl App for Collector {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let eq = ctx.eq_alloc(1024).expect("audit collector eq");
                self.eq = Some(eq);
                let me = ctx
                    .me_attach(
                        PT,
                        ProcessId::any(),
                        BITS,
                        0,
                        UnlinkOp::Retain,
                        InsertPos::After,
                    )
                    .expect("audit collector me");
                ctx.md_attach(
                    me,
                    0,
                    64 << 10,
                    MdOptions {
                        manage_remote: true,
                        event_start_disable: true,
                        ..MdOptions::put_target()
                    },
                    Threshold::Infinite,
                    Some(eq),
                    0,
                )
                .expect("audit collector md");
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(ev) => {
                if ev.kind == EventKind::PutEnd {
                    self.got += 1;
                    if !ctx.synthetic() {
                        let data = ctx.read_mem(ev.offset, ev.mlength as u32);
                        let ok = data
                            .iter()
                            .enumerate()
                            .all(|(i, &b)| b == (i as u64 % 251) as u8);
                        if !ok {
                            self.corrupt = true;
                        }
                    }
                    if self.got >= self.count {
                        ctx.finish();
                        return;
                    }
                }
                ctx.wait_eq(self.eq.expect("eq set at start"));
            }
            _ => ctx.wait_eq(self.eq.expect("eq set at start")),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_sim::{EventDigest, EventQueue, SimTime};

    // A model that iterates keys in a run-dependent order — emulating,
    // deterministically, exactly what `HashMap` iteration injects: run A
    // visits keys ascending, run B descending. The checker must catch it.
    struct OrderSensitive {
        keys: Vec<u32>,
        cursor: usize,
    }

    impl Model for OrderSensitive {
        type Event = u32;
        fn dispatch(&mut self, now: SimTime, _ev: u32, q: &mut EventQueue<u32>) {
            if self.cursor < self.keys.len() {
                let k = self.keys[self.cursor];
                self.cursor += 1;
                q.schedule_at(now + SimTime::from_ns(10), k);
            }
        }
        fn fingerprint(event: &u32, digest: &mut EventDigest) {
            digest.write_u32(*event);
        }
    }

    fn engine_with_order(keys: Vec<u32>) -> Engine<OrderSensitive> {
        let mut e = Engine::new(OrderSensitive { keys, cursor: 0 });
        e.queue_mut().schedule_at(SimTime::ZERO, 0);
        e
    }

    #[test]
    fn lockstep_passes_identical_models() {
        let a = engine_with_order(vec![1, 2, 3]);
        let b = engine_with_order(vec![1, 2, 3]);
        let run = lockstep(a, b, "identical").expect("no divergence");
        assert_eq!(run.dispatched, 4);
    }

    #[test]
    fn lockstep_catches_hash_ordered_iteration() {
        // Same multiset of keys, different iteration order — precisely
        // the failure mode `HashMap` iteration injects.
        let a = engine_with_order(vec![1, 2, 3]);
        let b = engine_with_order(vec![3, 2, 1]);
        let d = lockstep(a, b, "hash-order").expect_err("must diverge");
        assert_eq!(d.index, 2, "first divergent event is the second one");
    }

    #[test]
    fn lockstep_catches_event_count_mismatch() {
        let a = engine_with_order(vec![1]);
        let b = engine_with_order(vec![1, 2]);
        let d = lockstep(a, b, "count").expect_err("must diverge");
        assert!(d.detail.contains("drained"), "{d}");
    }
}
