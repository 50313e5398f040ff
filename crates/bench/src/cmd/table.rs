//! The text-level results of the paper, one `table` subcommand each.

use audit::replay::{Collector, Pusher};
use xt3_firmware::control::{Firmware, FwConfig, FwMode};
use xt3_firmware::pending::LOWER_PENDING_BYTES;
use xt3_firmware::source::SOURCE_BYTES;
use xt3_netpipe::ptl::PtlPattern;
use xt3_netpipe::reference::platform as req;
use xt3_netpipe::runner::{bandwidth_curve, latency_curve, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_node::config::{ExhaustionPolicy, MachineConfig, NodeSpec};
use xt3_node::Machine;
use xt3_portals::types::ProcessId;
use xt3_seastar::sram::Sram;
use xt3_topology::route::RoutingTable;

use crate::cli::{Args, CmdResult};
use crate::machines::{full_machine, put_pair};

/// Puts in the exhaustion burst — [`Pusher::burst`] issues them all at
/// once, 2 KiB each, into a [`Collector`] whose RX pool is the variable.
const BURST: u32 = 64;

/// One burst into a receiver with `rx_pendings` RX pendings:
/// `(panicked, delivered, firmware drops, retransmissions)`.
fn burst(policy: ExhaustionPolicy, rx_pendings: u32) -> (bool, u32, u64, u64) {
    let mut config = MachineConfig::paper_pair();
    config.fw.rx_pendings = rx_pendings;
    config.fw.tx_pendings = 128;
    config.exhaustion = policy;
    let mut m = Machine::new(config, &[NodeSpec::catamount_compute()]);
    let target = ProcessId::new(1, 0);
    m.spawn(0, 0, Box::new(Pusher::burst(target, 2048, BURST)));
    m.spawn(1, 0, Box::new(Collector::new(BURST)));
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    let panicked = m.nodes[1].hot.panicked;
    let drops = m.nodes[1].fw.counters().exhaustion_drops;
    let retrans: u64 = m.nodes[0].gbn_retransmissions();
    let received = m
        .take_app(1, 0)
        .unwrap()
        .as_any()
        .downcast_mut::<Collector>()
        .unwrap()
        .got;
    (panicked, received, drops, retrans)
}

/// The §4.3 resource-exhaustion comparison: the shipped firmware panics
/// the node; the in-progress go-back-n protocol recovers. Workload: a
/// burst of puts into a receiver whose RX pending pool is deliberately
/// tiny.
pub fn exhaustion(args: Args) -> CmdResult {
    args.finish()?;
    println!("Resource exhaustion handling (paper §4.3): {BURST}-message burst\n");
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10} {:>14}",
        "policy", "rx pendings", "panicked", "delivered", "fw drops", "retransmits"
    );
    for (policy, name) in [
        (ExhaustionPolicy::Panic, "panic"),
        (ExhaustionPolicy::GoBackN, "go-back-n"),
    ] {
        for rx in [4u32, 16, 768] {
            let (panicked, received, drops, retrans) = burst(policy, rx);
            println!("{name:<10} {rx:>12} {panicked:>10} {received:>10} {drops:>10} {retrans:>14}");
        }
    }
    println!(
        "\nPanic (the shipped behaviour) loses the application on overload;\n\
         go-back-n delivers the full burst at the cost of retransmissions.\n\
         With the paper's production pool sizes (768 RX pendings) neither\n\
         policy triggers — matching the authors' observation that exhaustion\n\
         was never seen on 7,700 nodes."
    );
    Ok(())
}

/// The §6 interrupt-count analysis: messages up to 12 bytes ride in the
/// header packet and complete with one interrupt; longer messages need
/// two (header processing + completion). Accelerated mode needs none.
pub fn interrupts(args: Args) -> CmdResult {
    args.finish()?;
    println!("Interrupts on the receive path vs message size (paper §6)\n");
    println!(
        "{:>8} {:>6} {:>14} {:>14} {:>12}",
        "bytes", "mode", "node1 ints", "node1 rx msgs", "latency us"
    );
    let generic = [1u64, 8, 12, 13, 64, 1024, 4096].map(|size| (size, false));
    for (size, accelerated) in generic.into_iter().chain([(12, true), (4096, true)]) {
        let pattern = PtlPattern::PingPongPut;
        let run = put_pair(MachineConfig::paper_pair(), pattern, size, 50, accelerated);
        // Receive side: node 1's interrupts include one per local
        // transmit completion (it sends the pongs plus control).
        let fw = run.machine.nodes[1].fw.counters();
        println!(
            "{size:>8} {:>6} {:>14} {:>14} {:>12.3}",
            if accelerated { "accel" } else { "gen" },
            fw.interrupts,
            fw.rx_headers,
            run.latency_us()
        );
    }
    println!(
        "\nGeneric mode: <=12 B messages save the completion interrupt (one per\n\
         receive, plus one per local transmit completion); >12 B pay both.\n\
         Accelerated mode eliminates interrupts entirely (matching on the NIC)."
    );
    Ok(())
}

/// Host-CPU overhead of communication: the motivation for offload the
/// paper closes on (§7, "using the host CPU" vs "using the network
/// interface CPU"). A fixed streaming workload in generic and
/// accelerated modes, and how much of the receiving host's time
/// communication consumed — CPU an application would rather compute with.
pub fn overhead(args: Args) -> CmdResult {
    args.finish()?;
    println!("Receive-side CPU overhead, 200-message put stream (paper §7 motivation)\n");
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>12}",
        "bytes", "mode", "host busy %", "PPC busy %", "interrupts"
    );
    for size in [64u64, 1024, 16 << 10, 256 << 10] {
        for accelerated in [false, true] {
            let pattern = PtlPattern::StreamPut;
            let run = put_pair(MachineConfig::paper_pair(), pattern, size, 200, accelerated);
            let rx = &run.machine.nodes[1];
            println!(
                "{size:>10} {:>8} {:>12.1} {:>12.1} {:>12}",
                if accelerated { "accel" } else { "generic" },
                rx.host.utilization(run.now) * 100.0,
                rx.chip.ppc.utilization(run.now) * 100.0,
                rx.fw.counters().interrupts
            );
        }
    }
    println!(
        "\nGeneric mode burns the receiving Opteron on interrupts and matching;\n\
         accelerated mode moves that work to the 500 MHz PowerPC — the tradeoff\n\
         the paper's summary lays out (host CPU freed, slower matching engine)."
    );
    Ok(())
}

/// Report card against the XT3/Red Storm requirements quoted in §1:
/// 1.5 GB/s sustained network bandwidth per direction into each node,
/// 2 µs nearest-neighbor MPI latency, 5 µs between the two furthest
/// nodes — versus what the (paper-era, host-driven) implementation
/// actually delivers, plus the accelerated-mode projection.
pub fn requirements(args: Args) -> CmdResult {
    args.finish()?;
    println!("XT3 requirement report card (paper §1)\n");

    // Measured MPI nearest-neighbor latency (Cray MPICH2, generic mode).
    let mut lat_cfg = NetpipeConfig::paper_latency();
    lat_cfg.schedule = Schedule::standard(16, 0);
    let mpi_near = latency_curve(&lat_cfg, Transport::Mpich2, TestKind::PingPong).points[0].y;

    // Accelerated-mode projection.
    let mut accel_cfg = lat_cfg.clone();
    accel_cfg.accelerated = true;
    let mpi_near_accel =
        latency_curve(&accel_cfg, Transport::Mpich2, TestKind::PingPong).points[0].y;

    // Far-node latency: add the extra router hops of the Red Storm
    // diameter (the benchmark pair is adjacent; hops are additive).
    let dims = full_machine();
    let extra_hops = RoutingTable::build(dims).diameter().saturating_sub(1);
    let hop_us = lat_cfg.cost.wire_hop_latency.as_us_f64();
    let mpi_far = mpi_near + extra_hops as f64 * hop_us;

    // Sustained per-direction node bandwidth (uni-directional put peak).
    let bw_cfg = NetpipeConfig::paper();
    let uni = bandwidth_curve(&bw_cfg, Transport::Put, TestKind::PingPong).y_max() / 1000.0;

    println!(
        "{:<44} {:>10} {:>12} {:>6}",
        "requirement", "required", "measured", "met?"
    );
    let row = |name: &str, required: f64, measured: f64, unit: &str, lower_better: bool| {
        let met = if lower_better {
            measured <= required
        } else {
            measured >= required
        };
        println!(
            "{name:<44} {required:>7.2} {unit:<2} {measured:>9.2} {unit:<2} {:>6}",
            if met { "yes" } else { "NO" }
        );
    };
    let (near, far) = (req::REQ_MPI_NEAR_US, req::REQ_MPI_FAR_US);
    row(
        "node bandwidth per direction",
        req::REQ_NODE_BW_GB_S,
        uni,
        "GB",
        false,
    );
    row(
        "MPI nearest-neighbor latency (generic)",
        near,
        mpi_near,
        "us",
        true,
    );
    row(
        "MPI nearest-neighbor latency (accelerated)",
        near,
        mpi_near_accel,
        "us",
        true,
    );
    row(
        "MPI furthest-node latency (generic)",
        far,
        mpi_far,
        "us",
        true,
    );
    println!(
        "\nDiameter of the 10,368-node Red Storm shape ({}x{}x{}, torus in z): {} hops.",
        dims.nx,
        dims.ny,
        dims.nz,
        extra_hops + 1
    );
    println!(
        "The paper-era implementation misses the latency and bandwidth targets\n\
         (interrupt-driven host processing; 1.1 GB/s practical HT read rate),\n\
         which is exactly the paper's own conclusion — hence accelerated mode\n\
         and the expectation that 'latency and bandwidth performance ...\n\
         increase for each mode over the next several months' (§7)."
    );
    Ok(())
}

/// The §4.2 SRAM occupancy accounting: the firmware's structures laid
/// into the SeaStar's 384 KB, checked against the occupancy formula
/// `M = S*S_size + sum_i(P_i * P_size)`.
pub fn sram(args: Args) -> CmdResult {
    args.finish()?;
    println!("SeaStar SRAM occupancy (paper §4.2)\n");

    for (label, modes) in [
        (
            "generic process only (shipped firmware)",
            vec![FwMode::Generic],
        ),
        (
            "generic + 2 accelerated processes",
            vec![FwMode::Generic, FwMode::Accelerated, FwMode::Accelerated],
        ),
    ] {
        let mut sram = Sram::default();
        let config = FwConfig::default();
        let fw = Firmware::new(config, &modes, &mut sram).expect("fits");
        println!("--- {label} ---");
        println!("{}", sram.render_layout());

        // The occupancy formula.
        let s = config.sources;
        let n = fw.process_count();
        let formula: u64 = s as u64 * SOURCE_BYTES as u64
            + (0..n)
                .map(|_| config.pendings_total() as u64 * LOWER_PENDING_BYTES as u64)
                .sum::<u64>();
        println!(
            "formula M = S*Ssize + sum(Pi*Psize) = {s}*{SOURCE_BYTES} + {n}*{}*{LOWER_PENDING_BYTES} = {formula} bytes ({:.1} KB)\n",
            config.pendings_total(),
            formula as f64 / 1024.0
        );
    }

    // How many more pending pools fit? (§4.2: "several more similarly
    // sized pending pools can be supported")
    let mut modes = vec![FwMode::Generic];
    loop {
        let mut sram = Sram::default();
        let mut trial = modes.clone();
        trial.push(FwMode::Accelerated);
        if Firmware::new(FwConfig::default(), &trial, &mut sram).is_err() {
            break;
        }
        modes = trial;
    }
    println!(
        "maximum firmware-level processes in 384 KB: {} (generic + {} accelerated)",
        modes.len(),
        modes.len() - 1
    );
    Ok(())
}
