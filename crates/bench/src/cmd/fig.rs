//! `fig 4|5|6|7` regenerate the paper's figures by running the NetPIPE
//! sweeps; `fig distance` and `fig accel` are the two figures the paper
//! argues for in prose.

use xt3_netpipe::reference as r;
use xt3_netpipe::report::FigureData;
use xt3_netpipe::runner::{
    build_machine, finish, latency_curve, NetpipeConfig, TestKind, Transport,
};
use xt3_netpipe::{Schedule, SizePoint};
use xt3_node::config::MachineConfig;
use xt3_seastar::cost::CostModel;
use xt3_sim::SimTime;
use xt3_topology::coord::Dims;

use super::ablation::put_latency;
use crate::cli::{Args, CmdResult};
use crate::{figure, save_json};

/// Figure `n`: ASCII plot, table, and the JSON under `results/`. `fig 4
/// --table` is the §6 headline 1-byte latency table instead.
pub fn netpipe(n: u8, mut args: Args) -> CmdResult {
    let table = n == 4 && args.flag("--table");
    let quick = args.flag("--quick");
    args.finish()?;
    if table {
        latency_table();
        return Ok(());
    }
    let config = match (quick, n) {
        (true, 4) => NetpipeConfig::quick(1 << 10),
        (true, _) => NetpipeConfig::quick(1 << 20),
        (false, 4) => NetpipeConfig::paper_latency(),
        (false, _) => NetpipeConfig::paper(),
    };
    let name = ["fig4_latency", "fig5_unidir", "fig6_stream", "fig7_bidir"][usize::from(n) - 4];
    let fig = figure(n, &config);
    println!("{}", fig.render_ascii(72, 20));
    println!("{}", fig.render_table());
    if let Ok(p) = save_json(name, &fig) {
        println!("JSON written to {}", p.display());
    }
    Ok(())
}

fn latency_table() {
    let mut config = NetpipeConfig::paper_latency();
    config.schedule = Schedule::standard(16, 0);
    println!("Table: 1-byte latency (paper §6)");
    println!(
        "{:<14} {:>12} {:>12} {:>8}",
        "curve", "model (us)", "paper (us)", "err %"
    );
    for (t, paper) in [
        (Transport::Put, r::latency_1b::PUT_US),
        (Transport::Get, r::latency_1b::GET_US),
        (Transport::Mpich1, r::latency_1b::MPICH1_US),
        (Transport::Mpich2, r::latency_1b::MPICH2_US),
    ] {
        let s = latency_curve(&config, t, TestKind::PingPong);
        let got = s.points[0].y;
        println!(
            "{:<14} {got:>12.3} {paper:>12.3} {:>8.2}",
            t.label(),
            (got - paper) / paper * 100.0
        );
    }
}

/// Latency vs. network distance: the §1 requirement is 2 µs MPI latency
/// between nearest neighbors and 5 µs "between the two furthest nodes" —
/// i.e. the per-hop router cost must stay small. Measures 1-byte put
/// latency against hop count on a Red Storm chain.
pub fn distance(args: Args) -> CmdResult {
    args.finish()?;
    // Node 0 to the far end of a 1-D chain `hops` links long.
    let latency_at_hops = |hops: u16| {
        let config = NetpipeConfig {
            schedule: Schedule::fixed(1, 40),
            accelerated: false,
            machine: MachineConfig::paper(Dims::mesh(hops + 1, 1, 1)),
        };
        let (t, k) = (Transport::Put, TestKind::PingPong);
        finish(build_machine(&config, t, k), t, k).2[0].latency_us()
    };
    println!(
        "1-byte put latency vs network distance (paper §1: 2 us near / 5 us far MPI targets)\n"
    );
    println!(
        "{:>8} {:>14} {:>18}",
        "hops", "latency (us)", "delta vs 1 hop"
    );
    let base = latency_at_hops(1);
    for hops in [1u16, 2, 4, 8, 16, 32, 53] {
        let lat = latency_at_hops(hops);
        println!("{hops:>8} {lat:>14.3} {:>18.3}", lat - base);
    }
    println!(
        "\n53 hops is the diameter of the 27x16x24 Red Storm shape: the full\n\
         cross-machine penalty is ~2.6 us (50 ns/hop), the same order as the\n\
         3 us near-to-far budget the 2 us / 5 us requirement pair implies —\n\
         the router held its end of the bargain even though the paper-era\n\
         software missed the absolute latency targets."
    );
    Ok(())
}

/// Generic mode vs accelerated mode (the paper's §3.3 future work,
/// implemented here) and the interrupt-cost sweep the paper motivates
/// ("it will be necessary to eliminate all interrupts from the data
/// path").
pub fn accel(args: Args) -> CmdResult {
    args.finish()?;
    // Curve 1: generic vs accelerated latency over the Fig. 4 domain.
    let mut generic = NetpipeConfig::paper_latency();
    generic.schedule = Schedule::standard(1 << 10, 3);
    let mut accel = generic.clone();
    accel.accelerated = true;

    let mut g = latency_curve(&generic, Transport::Put, TestKind::PingPong);
    g.label = "put (generic)".into();
    let mut a = latency_curve(&accel, Transport::Put, TestKind::PingPong);
    a.label = "put (accelerated)".into();
    let (g1, a1) = (g.points[0].y, a.points[0].y);
    let fig = FigureData {
        title: "Ablation: generic vs accelerated mode (projected)".into(),
        y_label: "us".into(),
        series: vec![g, a],
    };
    println!("{}", fig.render_ascii(72, 18));
    println!(
        "1-byte latency: generic {g1:.2} us -> accelerated {a1:.2} us ({:.1}% reduction)\n",
        (1.0 - a1 / g1) * 100.0
    );

    // Curve 2: interrupt-cost sweep (how much of generic-mode latency is
    // interrupt processing, §6).
    println!("Interrupt-cost sweep (generic mode, 1-byte put):");
    println!("{:>16} {:>14}", "interrupt (us)", "latency (us)");
    for int_ns in [0u64, 500, 1000, 2000, 3000, 4000] {
        let machine = MachineConfig {
            cost: CostModel::paper().with_interrupt_cost(SimTime::from_ns(int_ns)),
            ..MachineConfig::paper_pair()
        };
        let lat = put_latency(Schedule::standard(4, 0), false, machine);
        println!("{:>16.1} {lat:>14.3}", int_ns as f64 / 1000.0);
    }

    // Curve 3: piggyback threshold sweep (the §6 12-byte optimization).
    println!("\nPiggyback threshold sweep (latency at 8 B / 32 B):");
    println!("{:>12} {:>12} {:>12}", "limit (B)", "8 B (us)", "32 B (us)");
    for limit in [0u32, 12, 32] {
        let mut c = NetpipeConfig::paper_latency();
        c.schedule = Schedule {
            points: [8, 32].map(|size| SizePoint { size, reps: 30 }).to_vec(),
        };
        c.machine.fabric.link = c.machine.fabric.link.with_piggyback_max(limit);
        let s = latency_curve(&c, Transport::Put, TestKind::PingPong);
        println!(
            "{limit:>12} {:>12.3} {:>12.3}",
            s.points[0].y, s.points[1].y
        );
    }
    Ok(())
}
