//! Red Storm at scale: a configurable slice of the machine the paper
//! measured on, running simultaneous nearest-neighbor put traffic on
//! every node — serially or on the partitioned parallel engine.
//!
//! Demonstrates that the simulation holds up beyond benchmark pairs: all
//! firmware instances, routers and hosts progress together, and the
//! printed statistics show the §1 requirements story at machine scale
//! (per-node injection vs. the 1.5 GB/s target, interior link
//! utilization, machine diameter in hops). With `--workers N > 1` the
//! run goes through the conservative time-window parallel driver, whose
//! results are bit-identical to the serial engine (enforced by
//! `tests/parallel_differential.rs`).
//!
//! Run: `cargo run --release --example red_storm_scale -- [--dims X Y Z] [--workers N] [--rounds R]`
//!
//! Defaults: 6x6x6 (216 nodes, torus in z), serial, 8 rounds of 64 KiB.

use portals_xt3::topology::coord::Dims;
use portals_xt3::xt3::par::run_parallel;
use portals_xt3::xt3::workloads::red_storm_machine;

const MSG: u64 = 64 * 1024;

struct Args {
    dims: Dims,
    workers: usize,
    rounds: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        dims: Dims::red_storm(6, 6, 6),
        workers: 1,
        rounds: 8,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = "usage: red_storm_scale [--dims X Y Z] [--workers N] [--rounds R]";
    while i < argv.len() {
        match argv[i].as_str() {
            "--dims" => {
                let (x, y, z) = (
                    argv.get(i + 1).and_then(|s| s.parse().ok()),
                    argv.get(i + 2).and_then(|s| s.parse().ok()),
                    argv.get(i + 3).and_then(|s| s.parse().ok()),
                );
                match (x, y, z) {
                    (Some(x), Some(y), Some(z)) => args.dims = Dims::red_storm(x, y, z),
                    _ => panic!("--dims needs three integers; {usage}"),
                }
                i += 4;
            }
            "--workers" => {
                args.workers = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--workers needs an integer; {usage}"));
                i += 2;
            }
            "--rounds" => {
                args.rounds = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--rounds needs an integer; {usage}"));
                i += 2;
            }
            other => panic!("unknown argument {other}; {usage}"),
        }
    }
    args
}

fn main() {
    let Args {
        dims,
        workers,
        rounds,
    } = parse_args();
    let n = dims.node_count();
    println!(
        "building {n}-node Red Storm slice ({}x{}x{}, torus in z), {rounds} rounds of {} KiB, {workers} worker(s)...",
        dims.nx,
        dims.ny,
        dims.nz,
        MSG / 1024
    );
    let m = red_storm_machine(dims, rounds, MSG);

    let start = std::time::Instant::now();
    let (m, sim_time, events, windows) = if workers > 1 {
        let run = run_parallel(m, workers);
        let windows = Some((run.rounds, run.threads));
        (run.machine, run.now, run.dispatched, windows)
    } else {
        let mut engine = m.into_engine();
        engine.run();
        let (now, events) = (engine.now(), engine.dispatched());
        (engine.into_model(), now, events, None)
    };
    let wall = start.elapsed();
    if let Some((windows, threads)) = windows {
        // What a window costs end to end. Shard work is inside it (its
        // share is not observable from out here), so compare with the
        // serial run's wall time over the same count: the difference is
        // what the window protocol and the second core add or save.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        println!(
            "parallel run: {windows} synchronization windows across {workers} shards on {threads} \
             thread(s) ({cores} host core(s)), {:.1} us wall per window",
            wall.as_secs_f64() * 1e6 / windows.max(1) as f64
        );
    }

    assert_eq!(m.running_apps(), 0, "all {n} nodes complete");
    assert!(!m.any_panicked());

    let total_bytes = m.fabric.bytes_sent();
    println!(
        "{} puts of {} KB delivered on {} nodes in {sim_time} simulated",
        n * rounds,
        MSG / 1024,
        n
    );
    println!(
        "wire payload {:.1} MB | {} wire messages | peak link utilization {:.1}%",
        total_bytes as f64 / 1e6,
        m.fabric.messages_sent(),
        m.fabric.peak_link_utilization(sim_time) * 100.0
    );
    let agg_bw = total_bytes as f64 / sim_time.as_secs_f64() / 1e9;
    println!(
        "aggregate injection {agg_bw:.2} GB/s across the machine ({:.3} GB/s per node vs the 1.5 GB/s requirement)",
        agg_bw / n as f64
    );
    let diameter = m.fabric.routes().diameter();
    println!("network diameter: {diameter} hops");
    println!(
        "simulator: {events} events in {:.2?} wall-clock ({:.1}k events/s)",
        wall,
        events as f64 / wall.as_secs_f64() / 1e3
    );

    // Mean host and PPC utilization across nodes.
    let host_util: f64 = m
        .nodes
        .iter()
        .map(|nd| nd.host.utilization(sim_time))
        .sum::<f64>()
        / n as f64;
    let ppc_util: f64 = m
        .nodes
        .iter()
        .map(|nd| nd.chip.ppc.utilization(sim_time))
        .sum::<f64>()
        / n as f64;
    println!(
        "mean host utilization {:.1}% | mean PPC utilization {:.1}%",
        host_util * 100.0,
        ppc_util * 100.0
    );
}
