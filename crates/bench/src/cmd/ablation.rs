//! Design-space sweeps around the paper's operating point.

use xt3_mpi::Personality;
use xt3_netpipe::mpi::MpiPattern;
use xt3_netpipe::runner::{latency_curve, run_mpi, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_seastar::cost::CostModel;
use xt3_sim::SimTime;

use crate::cli::{positive, Args, CmdResult};
use crate::parallel::run_indexed;
use crate::stopwatch;

/// Latency at the first size of a put ping-pong over `schedule` under `cost`.
pub fn put_latency(schedule: Schedule, accelerated: bool, cost: CostModel) -> f64 {
    let mut c = NetpipeConfig::paper_latency();
    c.schedule = schedule;
    c.accelerated = accelerated;
    c.cost = cost;
    latency_curve(&c, Transport::Put, TestKind::PingPong).points[0].y
}

/// The MPI eager/rendezvous threshold.
///
/// The personalities ship with a 128 KB eager limit. This sweep shows the
/// protocol tradeoff the threshold navigates: eager pays a bounce-buffer
/// copy on the unexpected path but completes in one traversal; rendezvous
/// adds an RTS round trip and a get, but moves payload exactly once.
pub fn eager(args: Args) -> CmdResult {
    args.finish()?;
    let sizes = [16u64 << 10, 64 << 10, 128 << 10, 256 << 10, 1 << 20];
    let thresholds = [0u64, 16 << 10, 128 << 10, 8 << 20];

    println!("MPI ping-pong latency (us) by eager threshold (rows: message size)\n");
    print!("{:>10}", "bytes");
    for t in thresholds {
        if t == 0 {
            print!("{:>16}", "all-rdzv");
        } else if t >= 8 << 20 {
            print!("{:>16}", "all-eager");
        } else {
            print!("{:>13}KB-e", t >> 10);
        }
    }
    println!();

    for size in sizes {
        print!("{size:>10}");
        for threshold in thresholds {
            let personality = Personality {
                eager_max: threshold,
                ..Personality::mpich1()
            };
            let mut config = NetpipeConfig::paper();
            config.schedule = Schedule::fixed(size, 10);
            let (rounds, _) = run_mpi(&config, MpiPattern::PingPong, personality);
            let lat = rounds.first().map(|r| r.latency_us()).unwrap_or(f64::NAN);
            print!("{lat:>16.2}");
        }
        println!();
    }
    println!(
        "\nRendezvous adds the RTS round trip (visible at small sizes); eager \n\
         saves it but the crossover narrows as transfer time dominates — the\n\
         reason both 2005 MPI stacks picked a threshold in the 100 KB range."
    );
    Ok(())
}

/// Embedded-processor speed.
///
/// Accelerated mode moves Portals matching onto the 500 MHz PPC 440
/// (§3.3); its win over generic mode therefore depends on how slow that
/// core is. Sweeping the firmware handler costs shows where the crossover
/// would sit for a slower (or faster) embedded processor — the design
/// question behind "there is an opportunity to offload the majority of
/// network protocol processing" (§2).
pub fn ppc(args: Args) -> CmdResult {
    args.finish()?;
    println!("1-byte put latency vs embedded-processor speed (fw cost scale)\n");
    println!(
        "{:>10} {:>14} {:>16} {:>12}",
        "fw scale", "generic (us)", "accelerated (us)", "accel wins?"
    );
    for scale in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let cost = CostModel::paper().with_fw_scale(scale);
        let g = put_latency(Schedule::standard(4, 0), false, cost);
        let a = put_latency(Schedule::standard(4, 0), true, cost);
        println!(
            "{scale:>10.1} {g:>14.3} {a:>16.3} {:>12}",
            if a < g { "yes" } else { "NO" }
        );
    }
    println!(
        "\nGeneric mode barely notices the PPC (it only shuttles commands);\n\
         accelerated mode's advantage erodes as the embedded core slows,\n\
         which is why the real design kept matching small and tight (the\n\
         22 KB firmware image) and why Linux stayed generic."
    );
    Ok(())
}

/// Parallel design-space sweep: put latency over the (interrupt cost ×
/// piggyback limit) grid — the two knobs §6 says dominate small-message
/// performance. Every grid cell is an independent deterministic
/// simulation; the index-merging runner fans them out. The default
/// 64 bytes is above any piggyback limit in the grid, so both knobs
/// matter.
pub fn sweep(mut args: Args) -> CmdResult {
    let size = args.positional("message_bytes", positive::<u64>)?;
    let size = size.unwrap_or(64);
    args.finish()?;

    let interrupts_ns = [0u64, 500, 1000, 2000, 4000];
    let piggybacks = [0u32, 12, 64, 128];
    let cells: Vec<(u64, u32)> = interrupts_ns
        .iter()
        .flat_map(|&int_ns| piggybacks.map(|piggy| (int_ns, piggy)))
        .collect();
    let count = cells.len();
    // HOST time, not simulated time: how fast the simulator itself chews
    // through the grid on this machine.
    let (grid, seconds) = stopwatch::time(|| {
        run_indexed(cells, |&(int_ns, piggy)| {
            let cost = CostModel::paper()
                .with_interrupt_cost(SimTime::from_ns(int_ns))
                .with_piggyback_max(piggy);
            put_latency(Schedule::fixed(size, 30), false, cost)
        })
    });

    println!("{size}-byte put latency (us): interrupt cost (rows) x piggyback limit (cols)\n");
    print!("{:>14}", "int \\ piggy");
    for p in &piggybacks {
        print!("{p:>10} B");
    }
    println!();
    for (row, &int_ns) in grid.chunks(piggybacks.len()).zip(&interrupts_ns) {
        print!("{:>11.1} us", int_ns as f64 / 1000.0);
        for cell in row {
            print!("{cell:>12.3}");
        }
        println!();
    }
    println!(
        "\n{count} simulations in {:.2?} (deterministic DES, fanned across the host's cores)",
        std::time::Duration::from_secs_f64(seconds),
    );
    println!(
        "Reading the grid: when the message fits the piggyback window the\n\
         second interrupt disappears and latency drops by roughly the\n\
         interrupt cost — the paper's §6 observation generalized."
    );
    Ok(())
}
