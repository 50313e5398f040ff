//! Host-time probes: a loop in the benchmark's own files around one
//! layer's public function, with inputs shaped like the workload: queue
//! depth and transfer size read from that workload's traced pass,
//! source/destination pairs from the inputs generated for it.
//!
//! Every probe runs a pilot to size its batches, then five batches of
//! [`BATCH_TARGET`] (or a million operations) each, and reports the median
//! ns/op. One span is recorded per batch.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::catalog::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{Sinks, Traffic};
use xt3_firmware::control::{Firmware, FwConfig, FwMode};
use xt3_firmware::gbn::{GbnEvent, GbnReceiver, GbnSender};
use xt3_firmware::mailbox::FwCommand;
use xt3_netpipe::runner::{build_engine, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_node::config::MachineConfig;
use xt3_node::workloads::{traffic_machine_cfg, TrafficPattern};
use xt3_node::Machine;
use xt3_portals::event::{Event, EventKind, EventQueue as PtlEventQueue};
use xt3_portals::header::PortalsHeader;
use xt3_portals::library::{DeliverOutcome, PortalsLib, WireData};
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::memory::FlatMemory;
use xt3_portals::types::{AckReq, MdHandle, NiLimits, ProcessId};
use xt3_seastar::cost::CostModel;
use xt3_seastar::dma::{DmaEngine, DmaKind, DmaList};
use xt3_seastar::ppc::{FwHandler, Ppc440};
use xt3_seastar::sram::Sram;
use xt3_sim::{
    merge_ordered_runs, CausalLog, CausalStage, Engine, EventQueue, Model, RunOutcome, SimRng,
    SimTime, TraceId,
};
use xt3_telemetry::{
    extract_chains, parse_json, Component, Occupancy, SeriesConfig, SeriesSet, Telemetry,
    TelemetrySink,
};
use xt3_topology::coord::{Dims, NodeId};
use xt3_topology::fabric::{Fabric, FabricConfig, NetMessage};
use xt3_topology::route::RoutingTable;

const BATCHES: usize = 5;
const BATCH_TARGET: Duration = Duration::from_millis(40);
const PILOT_OPS: u64 = 2_000;
const MAX_BATCH_OPS: u64 = 1_000_000;

/// What shapes the probes' inputs.
pub struct Shape {
    /// Event-queue depth to hold (the traced pass's `sim.queue.depth_p50`).
    pub depth: u64,
    /// Message size: the traced pass's mean bytes per DMA transfer.
    pub transfer_bytes: u64,
    /// Machine shape and `(src, dst)` pairs.
    pub traffic: Traffic,
}

/// Time `run(state, n)` — which performs `n` operations on the state
/// `setup(n)` built outside the timed region, and returns how many units
/// the time is divided by — and return the median ns/unit of five batches
/// sized from a `pilot`-operation pilot.
fn probe<S>(
    tr: &mut Tracer,
    name: &'static str,
    pilot: u64,
    mut setup: impl FnMut(u64) -> S,
    mut run: impl FnMut(&mut S, u64) -> u64,
) -> f64 {
    let mut state = setup(pilot);
    let t = Instant::now();
    run(&mut state, pilot);
    let scale = BATCH_TARGET.as_secs_f64() / t.elapsed().as_secs_f64().max(1e-9);
    let ops = ((pilot as f64 * scale) as u64).clamp(pilot, MAX_BATCH_OPS);
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut state = setup(ops);
        let span = tr.open(name);
        let t = Instant::now();
        let units = run(&mut state, ops).max(1);
        let ns = t.elapsed().as_nanos() as f64;
        tr.counter(span, "ops", units);
        tr.close(span);
        samples.push(ns / units as f64);
    }
    median(&samples)
}

/// Hold model on the keyed queue at a fixed depth: pop the earliest
/// event, push it back a random interval later.
fn queue_hold(tr: &mut Tracer, name: &'static str, depth: u64) -> f64 {
    let mut rng = SimRng::new(depth ^ 0x51ED);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule_keyed(SimTime::from_ns(rng.below(100_000)), i << 32, i);
    }
    probe(
        tr,
        name,
        PILOT_OPS,
        |_| (),
        |(), n| {
            for _ in 0..n {
                let (at, key, ev) = q.pop_keyed().expect("hold model never drains");
                q.schedule_keyed(at + SimTime::from_ns(1 + rng.below(100_000)), key + 1, ev);
            }
            black_box(q.len());
            n
        },
    )
}

struct Ring(u64);

impl Model for Ring {
    type Event = u64;
    fn dispatch(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
        if ev > 0 {
            q.schedule_at(now + SimTime::NS, ev - 1);
        }
        self.0 += 1;
    }
}

/// `Engine` over a trivial model: pop + digest fold + dispatch call.
fn engine_loop(tr: &mut Tracer) -> f64 {
    probe(
        tr,
        "sim.engine.loop_ns",
        PILOT_OPS,
        |n| {
            let mut e = Engine::new(Ring(0));
            e.queue_mut().schedule_at(SimTime::ZERO, n - 1);
            e
        },
        |e, n| {
            assert_eq!(e.run(), RunOutcome::Drained);
            black_box(e.model().0);
            n
        },
    )
}

/// `merge_ordered_runs` per item over two sorted runs (k = 2).
fn merge_runs(tr: &mut Tracer) -> f64 {
    probe(
        tr,
        "sim.par.merge_runs_ns",
        PILOT_OPS,
        |n| -> Vec<Vec<(u64, u64)>> {
            (0..2u64)
                .map(|r| (0..n / 2).map(|i| (i * 3 + r, i)).collect())
                .collect()
        },
        |runs, n| {
            let merged = merge_ordered_runs(runs, |&(at, key)| (at, key))
                .fold(0u64, |acc, (at, _)| acc.wrapping_add(at));
            black_box(merged);
            n
        },
    )
}

fn causal_record(tr: &mut Tracer) -> f64 {
    probe(
        tr,
        "sim.causal.record_ns",
        PILOT_OPS,
        |n| CausalLog::with_cap(n as usize),
        |log, n| {
            for i in 0..n {
                // Four stages per message id, as a message's handlers would.
                let stage = match i % 4 {
                    0 => CausalStage::ApiEntry,
                    1 => CausalStage::TxInject,
                    2 => CausalStage::LinkHop,
                    _ => CausalStage::NetArrive,
                };
                let node = (i % 512) as u32;
                log.record_chain(TraceId(1 + i / 4), stage, SimTime::from_ns(i), node, i);
            }
            black_box(log.records().len());
            n
        },
    )
}

fn next_port(tr: &mut Tracer, traffic: &Traffic) -> f64 {
    let routes = RoutingTable::build(traffic.dims);
    let mut at = 0usize;
    probe(
        tr,
        "topology.route.next_port_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            let mut acc = 0usize;
            for _ in 0..n {
                let (s, d) = traffic.pairs[at];
                at = (at + 1) % traffic.pairs.len();
                acc += routes.next_port(NodeId(s), NodeId(d)).index();
            }
            black_box(acc);
            n
        },
    )
}

/// `Fabric::send` per hop over the workload's pairs, with or without the
/// series sink. As in the workloads, every pair of a round injects at the
/// same instant and rounds follow one serialization time apart: links
/// shared by several pairs stay contended, none backs up without bound,
/// and simulated time stays in the range the series buckets are sized for.
fn fabric_send(
    tr: &mut Tracer,
    name: &'static str,
    traffic: &Traffic,
    msg_bytes: u64,
    series: bool,
) -> f64 {
    let link = FabricConfig::default().link;
    let gap = link.serialization_time(link.packets_for(msg_bytes));
    let mut at = 0usize;
    probe(
        tr,
        name,
        PILOT_OPS,
        |_| {
            let mut fabric = Fabric::new(traffic.dims, FabricConfig::default());
            if series {
                fabric.enable_series(SeriesConfig::default());
            }
            fabric
        },
        |fabric, n| {
            let mut hops = 0u64;
            for i in 0..n {
                let (s, d) = traffic.pairs[at];
                at = (at + 1) % traffic.pairs.len();
                let delivered = fabric.send(
                    gap * (i / traffic.pairs.len() as u64),
                    NetMessage {
                        src: NodeId(s),
                        dst: NodeId(d),
                        payload_bytes: msg_bytes,
                        tag: i,
                        body: (),
                    },
                );
                hops += u64::from(delivered.hops);
            }
            hops
        },
    )
}

fn ppc_run(tr: &mut Tracer) -> f64 {
    let cm = CostModel::paper();
    let handlers = [
        FwHandler::TxCommand,
        FwHandler::TxDmaSetup,
        FwHandler::RxHeader,
        FwHandler::RxCommand,
        FwHandler::Completion,
    ];
    let mut ppc = Ppc440::new();
    let mut now = SimTime::ZERO;
    probe(
        tr,
        "seastar.ppc.run_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for i in 0..n {
                now = ppc.run(&cm, black_box(handlers[(i % 5) as usize]), black_box(now));
            }
            black_box(now);
            n
        },
    )
}

fn dma_occupy(tr: &mut Tracer, msg_bytes: u64) -> f64 {
    let mut dma = DmaEngine::new(DmaKind::Tx);
    let mut now = SimTime::ZERO;
    probe(
        tr,
        "seastar.dma.occupy_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for _ in 0..n {
                now = dma
                    .occupy(
                        black_box(now),
                        black_box(SimTime::from_ns(400)),
                        msg_bytes,
                        1,
                    )
                    .1;
            }
            black_box(now);
            n
        },
    )
}

fn firmware() -> Firmware {
    let mut sram = Sram::default();
    Firmware::new(FwConfig::default(), &[FwMode::Generic], &mut sram)
        .expect("default firmware fits in SRAM")
}

/// One transmit through the firmware: Transmit command, TX DMA
/// completion, pending release.
fn firmware_tx(tr: &mut Tracer, msg_bytes: u64) -> f64 {
    let mut fw = firmware();
    let pending = fw.tx_base();
    probe(
        tr,
        "firmware.tx_cmd_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for i in 0..n {
                let cmd = FwCommand::Transmit {
                    pending,
                    target_node: (i % 7) as u32 + 1,
                    length: msg_bytes,
                    dma: DmaList::new(),
                    tag: i,
                };
                black_box(fw.handle_command(0, cmd).expect("transmit"));
                black_box(fw.tx_dma_complete().expect("tx completion"));
                let release = FwCommand::ReleasePending { pending };
                black_box(fw.handle_command(0, release).expect("release"));
            }
            n
        },
    )
}

/// One header through the firmware and out again without a deposit:
/// `rx_header`, then the host's discard.
fn firmware_rx_header(tr: &mut Tracer) -> f64 {
    let mut fw = firmware();
    probe(
        tr,
        "firmware.rx_header_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for i in 0..n {
                let (pending, effects) = fw
                    .rx_header(0, (i % 7) as u32 + 1, false, false)
                    .expect("rx header");
                black_box(effects);
                let discard = FwCommand::RecvDiscard { pending };
                black_box(fw.handle_command(0, discard).expect("discard"));
            }
            n
        },
    )
}

/// One full receive through the firmware: header, deposit command, RX DMA
/// completion, pending release.
fn firmware_rx_complete(tr: &mut Tracer, msg_bytes: u64) -> f64 {
    let mut fw = firmware();
    probe(
        tr,
        "firmware.rx_complete_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for i in 0..n {
                let (pending, _) = fw
                    .rx_header(0, (i % 7) as u32 + 1, false, false)
                    .expect("rx header");
                let deposit = FwCommand::RecvDeposit {
                    pending,
                    length: msg_bytes,
                    drop_length: 0,
                    dma: DmaList::new(),
                };
                black_box(fw.handle_command(0, deposit).expect("deposit"));
                black_box(fw.rx_dma_complete(0, pending).expect("rx completion"));
                let release = FwCommand::ReleasePending { pending };
                black_box(fw.handle_command(0, release).expect("release"));
            }
            n
        },
    )
}

/// Go-back-n clean path: sender registers, receiver accepts, sender acks.
fn gbn_send_ack(tr: &mut Tracer) -> f64 {
    let mut tx: GbnSender<u64> = GbnSender::new(64);
    let mut rx = GbnReceiver::new();
    probe(
        tr,
        "firmware.gbn.send_ack_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for i in 0..n {
                let seq = tx.send(i).expect("window never fills");
                match rx.on_arrival(seq, true) {
                    GbnEvent::Accept { seq } => tx.ack(seq + 1),
                    other => panic!("clean path must accept, got {other:?}"),
                }
            }
            black_box(tx.in_flight());
            n
        },
    )
}

/// `match_incoming` + `complete_put` on a list of one matching entry: the
/// best case. `PortalsLib` has no public accessor for how many entries a
/// workload posts, so the depth a pass really walks cannot be read from
/// outside, and the ledger marks this probe's row unverified.
fn portals_match(tr: &mut Tracer, msg_bytes: u64) -> f64 {
    let mut lib = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
    let me = lib
        .me_attach(
            0,
            ProcessId::any(),
            42,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .expect("me attach");
    let options = MdOptions {
        manage_remote: true,
        ..MdOptions::put_target()
    };
    lib.md_attach(
        me,
        1 << 24,
        0,
        1 << 23,
        options,
        Threshold::Infinite,
        None,
        0,
    )
    .expect("md attach");
    let len = msg_bytes.min(1 << 23);
    let no_md = MdHandle {
        index: 0,
        generation: 0,
    };
    let (src, dst) = (ProcessId::new(0, 0), ProcessId::new(1, 0));
    let header = PortalsHeader::put(src, dst, 0, 0, 42, len, 0, AckReq::NoAck, 0, no_md);
    let data = WireData::Synthetic(len);
    let mut mem = FlatMemory::new(64);
    probe(
        tr,
        "portals.match_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for _ in 0..n {
                let DeliverOutcome::Matched(ticket) = lib.match_incoming(black_box(&header)) else {
                    panic!("probe header must match");
                };
                black_box(lib.complete_put(&header, &ticket, &data, &mut mem));
            }
            n
        },
    )
}

fn eq_post_get(tr: &mut Tracer) -> f64 {
    let mut eq = PtlEventQueue::new(1024);
    let event = Event {
        kind: EventKind::PutEnd,
        initiator: ProcessId::new(0, 0),
        match_bits: 42,
        rlength: 4096,
        mlength: 4096,
        offset: 0,
        md: MdHandle {
            index: 0,
            generation: 0,
        },
        user_ptr: 0,
        hdr_data: 0,
    };
    probe(
        tr,
        "portals.eq.post_get_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            for _ in 0..n {
                black_box(eq.post(event.clone()));
                black_box(eq.get().expect("just posted"));
            }
            n
        },
    )
}

/// The registry sink's kept path: one counter add and one span.
fn registry_record(tr: &mut Tracer) -> f64 {
    probe(
        tr,
        "telemetry.registry.record_ns",
        PILOT_OPS,
        |n| Telemetry::with_span_cap(n as usize),
        |sink, n| {
            for i in 0..n {
                let node = (i % 512) as u32;
                sink.add(node, "dma.transfers", 1);
                let start = SimTime::from_ns(i);
                sink.span(
                    node,
                    Component::Ppc,
                    "fw-rx-hdr",
                    start,
                    start + SimTime::NS,
                );
            }
            black_box(sink.spans().len());
            n
        },
    )
}

/// One link per node, every node's hop of a round at the same instant.
fn series_record_hop(tr: &mut Tracer, dims: Dims) -> f64 {
    let nodes = u64::from(dims.node_count());
    probe(
        tr,
        "telemetry.series.record_hop_ns",
        PILOT_OPS,
        |_| SeriesSet::new(nodes as usize, SeriesConfig::default()),
        |series, n| {
            for i in 0..n {
                let arrival = SimTime::from_ns(i / nodes * 1600);
                let occ = Occupancy {
                    tag: i,
                    arrival,
                    start: arrival + SimTime::from_ns(5),
                    done: arrival + SimTime::from_ns(1600),
                };
                series.record_hop((i % nodes) as u32, 0, occ, 65);
            }
            black_box(series.touched_nodes());
            n
        },
    )
}

/// A 4x4x2 incast with every sink on: the fixed input of the export and
/// parse probes.
fn tool_machine() -> Machine {
    let config = MachineConfig::paper(Dims::mesh(4, 4, 2));
    let mut m = traffic_machine_cfg(TrafficPattern::Incast, config, 2, 4096);
    Sinks::ALL.apply(&mut m);
    let mut engine = m.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained);
    engine.into_model()
}

/// Tool latency on fixed inputs: Perfetto export and JSON parse in MB/s,
/// critical-path extraction in ms. Not on any workload's path.
fn tools(tr: &mut Tracer, out: &mut Metrics) {
    let m = tool_machine();
    let series_json = m.link_series().expect("series on").to_json();
    let mb_per_s = |bytes: usize, ns_per_op: f64| bytes as f64 / 1e6 / (ns_per_op / 1e9);

    let mut exported = 0usize;
    let ns = probe(
        tr,
        "telemetry.perfetto.export_mb_s",
        1,
        |_| (),
        |(), n| {
            for _ in 0..n {
                let json = m
                    .telemetry()
                    .perfetto_json_full(Some(m.causal()), m.link_series());
                exported = json.len();
            }
            n
        },
    );
    out.set("telemetry.perfetto.export_mb_s", mb_per_s(exported, ns));

    let ns = probe(
        tr,
        "telemetry.json.parse_mb_s",
        1,
        |_| (),
        |(), n| {
            for _ in 0..n {
                black_box(parse_json(&series_json).expect("series JSON parses"));
            }
            n
        },
    );
    out.set("telemetry.json.parse_mb_s", mb_per_s(series_json.len(), ns));

    // 1-byte put ping-pong, 256 round trips, causal log on.
    let mut config = NetpipeConfig::paper_latency();
    config.schedule = Schedule::fixed(1, 256);
    let mut engine = build_engine(&config, Transport::Put, TestKind::PingPong);
    engine.model_mut().set_causal_enabled(true);
    assert_eq!(engine.run(), RunOutcome::Drained);
    let pingpong = engine.into_model();
    let ns = probe(
        tr,
        "telemetry.critpath.extract_ms",
        1,
        |_| (),
        |(), n| {
            for _ in 0..n {
                let chains = extract_chains(pingpong.causal()).expect("well-formed DAG");
                black_box(chains.len());
            }
            n
        },
    );
    out.set("telemetry.critpath.extract_ms", ns / 1e6);
}

/// Cost of one `Instant::now()` + `elapsed()` pair, the benchmark's ruler.
fn timer(tr: &mut Tracer) -> f64 {
    probe(
        tr,
        "benchmark.timer_ns",
        PILOT_OPS,
        |_| (),
        |(), n| {
            let mut acc = 0u128;
            for _ in 0..n {
                acc += Instant::now().elapsed().as_nanos();
            }
            black_box(acc);
            n
        },
    )
}

/// Run every probe and write its metric; returns the depth-1 queue hold
/// cost, which the ledger subtracts from the engine loop's share.
pub fn run_all(tr: &mut Tracer, shape: &Shape, out: &mut Metrics) -> f64 {
    let t = &shape.traffic;
    let bytes = shape.transfer_bytes;
    out.set(
        "sim.queue.push_pop_ns",
        queue_hold(tr, "sim.queue.push_pop_ns", shape.depth),
    );
    let hold_depth1 = queue_hold(tr, "sim.queue.push_pop_ns.depth1", 1);
    out.set("sim.engine.loop_ns", engine_loop(tr));
    out.set("sim.par.merge_runs_ns", merge_runs(tr));
    out.set("sim.causal.record_ns", causal_record(tr));
    out.set("topology.route.next_port_ns", next_port(tr, t));
    out.set(
        "topology.fabric.send_ns_per_hop",
        fabric_send(tr, "topology.fabric.send_ns_per_hop", t, bytes, false),
    );
    out.set(
        "topology.fabric.send_observed_ns_per_hop",
        fabric_send(
            tr,
            "topology.fabric.send_observed_ns_per_hop",
            t,
            bytes,
            true,
        ),
    );
    out.set("seastar.ppc.run_ns", ppc_run(tr));
    out.set("seastar.dma.occupy_ns", dma_occupy(tr, bytes));
    out.set("firmware.tx_cmd_ns", firmware_tx(tr, bytes));
    out.set("firmware.rx_header_ns", firmware_rx_header(tr));
    out.set("firmware.rx_complete_ns", firmware_rx_complete(tr, bytes));
    out.set("firmware.gbn.send_ack_ns", gbn_send_ack(tr));
    out.set("portals.match_ns", portals_match(tr, bytes));
    out.set("portals.eq.post_get_ns", eq_post_get(tr));
    out.set("telemetry.registry.record_ns", registry_record(tr));
    out.set(
        "telemetry.series.record_hop_ns",
        series_record_hop(tr, t.dims),
    );
    tools(tr, out);
    out.set("benchmark.timer_ns", timer(tr));
    hold_depth1
}
