//! Cross-crate integration tests: whole-machine scenarios exercising the
//! Portals stack across OS models, bridges, topologies and failure
//! policies.

use portals_xt3::portals::event::EventKind;
use portals_xt3::portals::md::{MdOptions, Threshold};
use portals_xt3::portals::me::{InsertPos, UnlinkOp};
use portals_xt3::portals::types::{AckReq, EqHandle, ProcessId};
use portals_xt3::sim::faults::LinkFaults;
use portals_xt3::sim::FaultPlan;
use portals_xt3::topology::coord::Dims;
use portals_xt3::xt3::config::{ExhaustionPolicy, MachineConfig, NodeSpec, OsKind, ProcSpec};
use portals_xt3::xt3::{App, AppCtx, AppEvent, Machine};
use std::any::Any;

const PT: u32 = 4;
const BITS: u64 = 0xF00D;

/// Sends `count` puts of `len` bytes to `target`, then finishes.
/// In burst mode all puts are issued immediately (stressing receiver
/// resources); otherwise each put waits for the previous SEND_END.
struct Pusher {
    target: ProcessId,
    len: u64,
    count: u32,
    sent: u32,
    burst: bool,
    eq: Option<EqHandle>,
}

impl Pusher {
    fn new(target: ProcessId, len: u64, count: u32) -> Self {
        Pusher {
            target,
            len,
            count,
            sent: 0,
            burst: false,
            eq: None,
        }
    }

    fn burst(target: ProcessId, len: u64, count: u32) -> Self {
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
                    let payload: Vec<u8> = (0..self.len).map(|i| (i % 239) as u8).collect();
                    ctx.write_mem(0, &payload);
                }
                let eq = ctx.eq_alloc(1024).unwrap();
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
                    .unwrap();
                let first_burst = if self.burst { self.count } else { 1 };
                for _ in 0..first_burst {
                    ctx.put(md, AckReq::NoAck, self.target, PT, 0, BITS, 0, 0)
                        .unwrap();
                }
                self.sent = first_burst;
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(ev) => {
                if ev.kind == EventKind::SendEnd {
                    if self.sent < self.count {
                        ctx.put(ev.md, AckReq::NoAck, self.target, PT, 0, BITS, 0, 0)
                            .unwrap();
                        self.sent += 1;
                        ctx.wait_eq(self.eq.unwrap());
                    } else if self.burst {
                        // Burst mode: count all SEND_ENDs before leaving.
                        self.count = self.count.saturating_sub(1);
                        if self.count == 0 {
                            ctx.finish();
                        } else {
                            ctx.wait_eq(self.eq.unwrap());
                        }
                    } else {
                        ctx.finish();
                    }
                } else {
                    ctx.wait_eq(self.eq.unwrap());
                }
            }
            _ => ctx.wait_eq(self.eq.unwrap()),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Collects `count` puts; records payload checks and completion time.
struct Collector {
    count: u32,
    got: u32,
    len: u64,
    eq: Option<EqHandle>,
    corrupt: bool,
    done_at: xt3_sim_time::SimTime,
}

mod xt3_sim_time {
    pub use portals_xt3::sim::SimTime;
}

impl Collector {
    fn new(len: u64, count: u32) -> Self {
        Collector {
            count,
            got: 0,
            len,
            eq: None,
            corrupt: false,
            done_at: xt3_sim_time::SimTime::ZERO,
        }
    }
}

impl App for Collector {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let eq = ctx.eq_alloc(256).unwrap();
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
                    .unwrap();
                ctx.md_attach(
                    me,
                    0,
                    self.len.max(64),
                    MdOptions {
                        manage_remote: true,
                        event_start_disable: true,
                        ..MdOptions::put_target()
                    },
                    Threshold::Infinite,
                    Some(eq),
                    0,
                )
                .unwrap();
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
                            .all(|(i, &b)| b == (i as u64 % 239) as u8);
                        if !ok {
                            self.corrupt = true;
                        }
                    }
                    if self.got >= self.count {
                        self.done_at = ctx.now();
                        ctx.finish();
                        return;
                    }
                }
                ctx.wait_eq(self.eq.unwrap());
            }
            _ => ctx.wait_eq(self.eq.unwrap()),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn harvest_collector(m: &mut Machine, node: u32) -> Collector {
    let mut a = m.take_app(node, 0).unwrap();
    let c = a.as_any().downcast_mut::<Collector>().unwrap();
    std::mem::replace(c, Collector::new(0, 0))
}

#[test]
fn linux_client_to_catamount_target_is_byte_exact() {
    // ukbridge (paged, scatter/gather) sender -> qkbridge (contiguous)
    // receiver: the cross-OS path of §3.2.
    let mut config = MachineConfig::paper_pair();
    config.synthetic_payload = false;
    let linux = NodeSpec {
        os: OsKind::Linux,
        procs: vec![ProcSpec {
            mem_bytes: 4 << 20,
            ..ProcSpec::linux_user()
        }],
    };
    let cat = NodeSpec {
        os: OsKind::Catamount,
        procs: vec![ProcSpec {
            mem_bytes: 4 << 20,
            ..ProcSpec::catamount_generic()
        }],
    };
    let mut m = Machine::new(config, &[linux, cat]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::new(ProcessId::new(1, 0), 100_000, 3)),
    );
    m.spawn(1, 0, Box::new(Collector::new(100_000, 3)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let c = harvest_collector(&mut m, 1);
    assert_eq!(c.got, 3);
    assert!(
        !c.corrupt,
        "paged scatter/gather delivery must be byte exact"
    );
    // The Linux sender's buffers needed one DMA command per 4 KB page.
    assert!(
        m.nodes[0].chip.tx_dma.commands() > 3 * 20,
        "scatter/gather command lists expected, saw {}",
        m.nodes[0].chip.tx_dma.commands()
    );
}

#[test]
fn far_corner_traffic_crosses_the_torus() {
    let dims = Dims::red_storm(4, 4, 4);
    let config = MachineConfig::paper(dims);
    let far = dims.node_count() - 1;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(0, 0, Box::new(Pusher::new(ProcessId::new(far, 0), 4096, 5)));
    m.spawn(far, 0, Box::new(Collector::new(4096, 5)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let c = harvest_collector(&mut m, far);
    assert_eq!(c.got, 5);
    // The fixed path runs through intermediate routers: some mid-path
    // link carried the traffic.
    let hops = m.fabric.routes().hop_count(
        portals_xt3::topology::coord::NodeId(0),
        portals_xt3::topology::coord::NodeId(far),
    );
    assert!(hops >= 5, "far corner should be several hops, got {hops}");
}

#[test]
fn go_back_n_recovers_byte_exact_under_exhaustion() {
    let mut config = MachineConfig::paper_pair();
    config.synthetic_payload = false;
    config.fw.rx_pendings = 3;
    config.fw.tx_pendings = 64;
    config.exhaustion = ExhaustionPolicy::GoBackN;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::burst(ProcessId::new(1, 0), 2048, 24)),
    );
    m.spawn(1, 0, Box::new(Collector::new(2048, 24)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "go-back-n must deliver everything");
    assert!(!m.any_panicked());
    let c = harvest_collector(&mut m, 1);
    assert_eq!(c.got, 24, "exactly-once delivery");
    assert!(!c.corrupt, "retransmitted payloads must be byte exact");
    assert!(
        m.nodes[1].fw.counters().exhaustion_drops > 0,
        "the tiny pool must actually have been exhausted"
    );
    assert!(m.nodes[0].gbn_retransmissions() > 0);
}

#[test]
fn wire_crc_errors_delay_but_do_not_corrupt() {
    let mut config = MachineConfig::paper_pair();
    config.synthetic_payload = false;
    config.fabric.link.crc_error_prob = 0.25;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::new(ProcessId::new(1, 0), 64 << 10, 4)),
    );
    m.spawn(1, 0, Box::new(Collector::new(64 << 10, 4)));
    let mut engine = m.into_engine();
    engine.run();
    let clean_time = {
        let mut config = MachineConfig::paper_pair();
        config.synthetic_payload = false;
        let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
        m.spawn(
            0,
            0,
            Box::new(Pusher::new(ProcessId::new(1, 0), 64 << 10, 4)),
        );
        m.spawn(1, 0, Box::new(Collector::new(64 << 10, 4)));
        let mut e2 = m.into_engine();
        e2.run();
        let mut m = e2.into_model();
        harvest_collector(&mut m, 1).done_at
    };
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    assert!(
        m.fabric.total_retries() > 0,
        "a 25% CRC error rate must trigger retries"
    );
    let c = harvest_collector(&mut m, 1);
    assert!(!c.corrupt);
    assert!(c.done_at > clean_time, "link retries must cost time");
}

#[test]
fn determinism_across_identical_runs() {
    let run = || {
        let config = MachineConfig::paper_pair();
        let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
        m.spawn(0, 0, Box::new(Pusher::new(ProcessId::new(1, 0), 8192, 10)));
        m.spawn(1, 0, Box::new(Collector::new(8192, 10)));
        let mut engine = m.into_engine();
        engine.run();
        let at = engine.now();
        let m = engine.into_model();
        (
            at,
            m.fabric.bytes_sent(),
            m.nodes[1].fw.counters().interrupts,
        )
    };
    assert_eq!(run(), run(), "same configuration, bit-identical outcome");
}

#[test]
fn many_senders_one_target_serializes_through_source_lists() {
    // Fan-in: several nodes put to node 0 simultaneously; per-source RX
    // pending lists keep every stream in order and nothing is lost.
    let dims = Dims::mesh(5, 1, 1);
    let config = MachineConfig::paper(dims);
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    for nid in 1..5 {
        m.spawn(
            nid,
            0,
            Box::new(Pusher::new(ProcessId::new(0, 0), 16 << 10, 6)),
        );
    }
    m.spawn(0, 0, Box::new(Collector::new(16 << 10, 24)));
    let mut engine = m.into_engine();
    engine.run();
    let finished = engine.now();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let c = harvest_collector(&mut m, 0);
    assert_eq!(c.got, 24);
    // The target firmware must have tracked several concurrent sources.
    assert!(m.nodes[0].fw.sources().high_water() >= 4);
    assert!(finished > portals_xt3::sim::SimTime::ZERO);
}

#[test]
fn accelerated_and_generic_nodes_interoperate() {
    let mut config = MachineConfig::paper_pair();
    config.synthetic_payload = false;
    let accel = NodeSpec::catamount_accelerated();
    let generic = NodeSpec::catamount_compute();
    // Accelerated sender, generic receiver.
    let mut m = Machine::new(config, &[accel, generic]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::new(ProcessId::new(1, 0), 32 << 10, 3)),
    );
    m.spawn(1, 0, Box::new(Collector::new(32 << 10, 3)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let c = harvest_collector(&mut m, 1);
    assert_eq!(c.got, 3);
    assert!(!c.corrupt);
    assert_eq!(
        m.nodes[0].fw.counters().interrupts,
        0,
        "accelerated sender takes none"
    );
    assert!(
        m.nodes[1].fw.counters().interrupts > 0,
        "generic receiver still interrupt-driven"
    );
}

#[test]
fn two_processes_fed_by_one_peer_drain_byte_exact() {
    // RX pools are per firmware-level process, so node 0's generic and
    // accelerated processes both hold pending 0 from node 1, queued on
    // node 1's one source. Completing one deposit must start the other
    // process's, not its own id again.
    use audit::replay::{two_procs_one_peer, Collector};
    for workers in [1, 2] {
        let mut m = if workers == 1 {
            let mut engine = two_procs_one_peer().into_engine();
            engine.run();
            engine.into_model()
        } else {
            portals_xt3::xt3::par::run_parallel(two_procs_one_peer(), workers).machine
        };
        assert_eq!(
            m.running_apps(),
            0,
            "{workers} worker(s): every app finishes"
        );
        assert!(!m.any_panicked());
        for pid in 0..2 {
            let mut app = m.take_app(0, pid).expect("collector");
            let c = app.as_any().downcast_mut::<Collector>().expect("collector");
            assert_eq!((c.got, c.corrupt), (2, false), "pid {pid}");
        }
    }
}

#[test]
fn e2e_crc_rejection_is_repaired_by_go_back_n() {
    // §2: the 32-bit end-to-end CRC catches payload corruption that
    // escapes the per-link 16-bit CRC. Under go-back-n the rejected
    // message is retransmitted; delivery stays exactly-once, in-order and
    // byte-exact.
    // A corrupted ACK or NACK fails its CRC at the link and is dropped;
    // every corrupted data payload reaches its receiver's end-to-end
    // check. The injector counts the two apart.
    let paper = MachineConfig::paper_pair();
    let mut config = paper.clone().with_faults(FaultPlan {
        seed: paper.seed,
        link: LinkFaults {
            corrupt_prob: 0.2,
            ..LinkFaults::NONE
        },
        ..FaultPlan::none()
    });
    config.synthetic_payload = false;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(0, 0, Box::new(Pusher::new(ProcessId::new(1, 0), 4096, 20)));
    m.spawn(1, 0, Box::new(Collector::new(4096, 20)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "all messages must eventually deliver");
    let faults = m.fault_stats();
    assert!(
        faults.corrupted_control > 0,
        "a corrupted control message must have been dropped"
    );
    let payload_rejections: u64 = m.nodes.iter().map(|n| n.chip.rx_dma.crc_failures()).sum();
    assert_eq!(
        faults.corrupted_data, payload_rejections,
        "every corrupted payload is one end-to-end CRC rejection"
    );
    assert!(
        m.nodes[1].chip.rx_dma.crc_failures() > 0,
        "the end-to-end check must have rejected payloads"
    );
    assert!(m.nodes[0].gbn_retransmissions() > 0, "repairs happened");
    let c = harvest_collector(&mut m, 1);
    assert_eq!(c.got, 20, "exactly once");
    assert!(!c.corrupt, "byte exact after retransmission");
}

#[test]
fn e2e_crc_rejection_under_panic_policy_loses_messages() {
    // Without the recovery protocol, a rejected payload is simply gone —
    // the §4.3 state of the world.
    let mut config = MachineConfig::paper_pair();
    config.faults = FaultPlan {
        seed: config.seed,
        link: LinkFaults {
            corrupt_prob: 0.3,
            ..LinkFaults::NONE
        },
        ..FaultPlan::none()
    };
    config.exhaustion = ExhaustionPolicy::Panic;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::burst(ProcessId::new(1, 0), 1024, 20)),
    );
    m.spawn(1, 0, Box::new(Collector::new(1024, 20)));
    let mut engine = m.into_engine();
    // The collector waits forever for the lost messages; bound the run.
    engine.run_until(portals_xt3::sim::SimTime::from_ms(50));
    let m = engine.into_model();
    let lost = m.nodes[1].chip.rx_dma.crc_failures();
    assert!(lost > 0, "corruption must have occurred");
    // The receiving app is stuck short of its count: messages were lost.
    assert!(m.running_apps() > 0, "lost messages leave the app waiting");
}

#[test]
fn mailbox_backpressure_never_drops_commands() {
    // A burst far beyond the 64-entry command FIFO: the host busy-waits
    // (§4.1) instead of losing transmits; everything still delivers.
    let config = MachineConfig::paper_pair();
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    m.spawn(
        0,
        0,
        Box::new(Pusher::burst(ProcessId::new(1, 0), 512, 200)),
    );
    m.spawn(1, 0, Box::new(Collector::new(512, 200)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "burst must fully deliver");
    let c = harvest_collector(&mut m, 1);
    assert_eq!(c.got, 200, "no command was dropped");
    assert!(
        m.nodes[0].fw.mailbox_mut(0).unwrap().cmd_overflows > 0,
        "the burst must actually have overflowed the FIFO"
    );
}

/// Sends one message to a process id that may not exist, then one good
/// put to `(1, 0)`; finishes once every put's SEND_END is in.
struct StrayThenGood {
    stray: ProcessId,
    /// The stray operation is a get (which posts no SEND_END).
    get: bool,
    send_ends_left: u32,
    eq: Option<EqHandle>,
}

impl StrayThenGood {
    fn new(stray: ProcessId, get: bool) -> Self {
        StrayThenGood {
            stray,
            get,
            send_ends_left: if get { 1 } else { 2 },
            eq: None,
        }
    }
}

impl App for StrayThenGood {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Started => {
                let payload: Vec<u8> = (0..64u64).map(|i| (i % 239) as u8).collect();
                ctx.write_mem(0, &payload);
                let eq = ctx.eq_alloc(64).unwrap();
                self.eq = Some(eq);
                let md = ctx
                    .md_bind(
                        0,
                        64,
                        MdOptions::default(),
                        Threshold::Infinite,
                        Some(eq),
                        0,
                    )
                    .unwrap();
                if self.get {
                    let into = ctx
                        .md_bind(
                            4096,
                            64,
                            MdOptions::default(),
                            Threshold::Infinite,
                            Some(eq),
                            0,
                        )
                        .unwrap();
                    ctx.get(into, self.stray, PT, 0, BITS, 0).unwrap();
                } else {
                    ctx.put(md, AckReq::NoAck, self.stray, PT, 0, BITS, 0, 0)
                        .unwrap();
                }
                ctx.put(md, AckReq::NoAck, ProcessId::new(1, 0), PT, 0, BITS, 0, 0)
                    .unwrap();
                ctx.wait_eq(eq);
            }
            AppEvent::Ptl(ev) => {
                if ev.kind == EventKind::SendEnd {
                    self.send_ends_left -= 1;
                }
                if self.send_ends_left == 0 {
                    ctx.finish();
                } else {
                    ctx.wait_eq(self.eq.unwrap());
                }
            }
            _ => ctx.wait_eq(self.eq.unwrap()),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn stray_machine(target: NodeSpec, policy: ExhaustionPolicy, get: bool) -> Machine {
    let mut config = MachineConfig::paper_pair();
    config.synthetic_payload = false;
    config.exhaustion = policy;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute(), target]);
    // Node 1 has exactly one process: pid 5 names nobody.
    let app = StrayThenGood::new(ProcessId::new(1, 5), get);
    m.spawn(0, 0, Box::new(app));
    m.spawn(1, 0, Box::new(Collector::new(64, 1)));
    m
}

/// What every stray-header run must end as: drained, nobody panicked,
/// the good put delivered byte-exact exactly once, the stray header
/// dropped and counted once by node 1's firmware, nothing retransmitted.
fn assert_stray_dropped(m: &mut Machine, elapsed: portals_xt3::sim::SimTime) {
    assert_eq!(m.running_apps(), 0, "both apps must finish");
    assert!(!m.any_panicked(), "a stray header isolates nothing");
    assert_eq!(m.nodes[1].bad_process_drops, 1);
    let report = m.telemetry_report("stray", elapsed);
    assert_eq!(report.nodes[1].rx_bad_process_drops, 1);
    assert_eq!(report.nodes[0].rx_bad_process_drops, 0);
    assert_eq!(m.total_gbn_retransmissions(), 0);
    let c = harvest_collector(m, 1);
    assert_eq!(c.got, 1, "the put behind the stray one still delivers");
    assert!(!c.corrupt);
}

#[test]
fn header_for_a_missing_process_is_dropped_and_counted() {
    use portals_xt3::sim::RunOutcome;
    // Before this was handled the header indexed `procs[5]` on a
    // one-process node and took the whole simulator down.
    let generic = NodeSpec::catamount_compute;
    let accel = NodeSpec::catamount_accelerated;
    for (target, policy, get) in [
        (generic(), ExhaustionPolicy::Panic, false),
        (generic(), ExhaustionPolicy::Panic, true),
        (accel(), ExhaustionPolicy::Panic, false),
        // Under go-back-n the stray message's sequence number must be
        // consumed and acknowledged, or the good put behind it would be
        // NACKed back to it forever.
        (generic(), ExhaustionPolicy::GoBackN, false),
        (accel(), ExhaustionPolicy::GoBackN, true),
    ] {
        let mut engine = stray_machine(target, policy, get).into_engine();
        assert_eq!(engine.run(), RunOutcome::Drained);
        let now = engine.now();
        let mut m = engine.into_model();
        assert_stray_dropped(&mut m, now);
    }
}

#[test]
fn stray_header_is_dropped_identically_under_the_parallel_driver() {
    use portals_xt3::sim::Model;
    let build = || {
        stray_machine(
            NodeSpec::catamount_compute(),
            ExhaustionPolicy::GoBackN,
            false,
        )
    };
    let mut serial = build().into_engine();
    serial.run();
    let mut par = portals_xt3::xt3::par::run_parallel(build(), 2);
    assert_eq!(par.digest, serial.digest());
    assert_eq!(par.state_fingerprint, serial.model().state_fingerprint());
    assert_stray_dropped(&mut par.machine, par.now);
}

#[test]
fn a_target_outside_the_machine_is_process_invalid() {
    use portals_xt3::portals::header::AtomicOp;
    use portals_xt3::portals::types::PtlError;

    /// Tries every data-movement call against nid 9 of a two-node
    /// machine, then proves the single-use MD was not consumed by
    /// spending it on a real put.
    struct Prober {
        checked: bool,
        eq: Option<EqHandle>,
    }
    impl App for Prober {
        fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
            match event {
                AppEvent::Started => {
                    let eq = ctx.eq_alloc(16).unwrap();
                    self.eq = Some(eq);
                    let md = ctx
                        .md_bind(
                            0,
                            64,
                            MdOptions::default(),
                            Threshold::Count(1),
                            Some(eq),
                            0,
                        )
                        .unwrap();
                    let nowhere = ProcessId::new(9, 0);
                    let invalid = Err(PtlError::ProcessInvalid);
                    assert_eq!(
                        ctx.put(md, AckReq::NoAck, nowhere, PT, 0, BITS, 0, 0),
                        invalid
                    );
                    assert_eq!(
                        ctx.put_region(md, 0, 8, AckReq::NoAck, nowhere, PT, 0, BITS, 0, 0),
                        invalid
                    );
                    assert_eq!(
                        ctx.atomic_put(
                            md,
                            0,
                            8,
                            AtomicOp::Sum,
                            AckReq::NoAck,
                            nowhere,
                            PT,
                            0,
                            BITS,
                            0,
                            0
                        ),
                        invalid
                    );
                    assert_eq!(ctx.get(md, nowhere, PT, 0, BITS, 0), invalid);
                    let real = ProcessId::new(1, 0);
                    ctx.put(md, AckReq::NoAck, real, PT, 0, BITS, 0, 0)
                        .expect("the threshold of 1 is still unspent");
                    self.checked = true;
                    ctx.wait_eq(eq);
                }
                AppEvent::Ptl(ev) if ev.kind == EventKind::SendEnd => ctx.finish(),
                _ => ctx.wait_eq(self.eq.unwrap()),
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut m = Machine::new(
        MachineConfig::paper_pair(),
        &[NodeSpec::catamount_compute()],
    );
    m.spawn(
        0,
        0,
        Box::new(Prober {
            checked: false,
            eq: None,
        }),
    );
    m.spawn(1, 0, Box::new(Collector::new(64, 1)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let mut prober = m.take_app(0, 0).unwrap();
    assert!(prober.as_any().downcast_mut::<Prober>().unwrap().checked);
}
