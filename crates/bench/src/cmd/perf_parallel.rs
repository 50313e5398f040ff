//! `perf parallel`: the Red Storm nearest-neighbor workload (every node
//! pushing to its +x ring neighbor) run serially and across a worker
//! sweep on the conservative time-window driver, reported as events/sec
//! and written to `BENCH_parallel.json`.
//!
//! Every parallel run is checked bit-identical to the serial digest and
//! state fingerprint before its timing is reported — a number from a
//! divergent run would be meaningless.
//!
//! The JSON carries the host's `cores`: wall-clock speedup is bounded by
//! it. The window driver deals the `workers` shards out to
//! `min(workers, cores)` threads, the coordinator's own included (see
//! `xt3_sim::par`): 1 worker never leaves the calling thread, 2 workers
//! on 2 cores is one shard on each, and 8 workers on 2 cores is four
//! shards per thread. On a 1-core host every row runs on one thread and
//! what is left is smaller per-shard event heaps and batched fabric
//! replay — real, and much smaller than what a second core adds. The
//! headline numbers are `aggregate_events_per_sec` (best throughput
//! across the sweep, serial included) and `best_parallel_speedup` (best
//! ≥2-worker wall-clock ratio vs serial). Each row also carries the rate
//! the previous `--out` file had for it as `before_events_per_sec`, so
//! the committed JSON is a before/after table for whatever change
//! regenerated it.
//!
//! Timing is symmetric: the serial region covers run + digest + state
//! fingerprint, matching the parallel region (which additionally pays
//! its own split/merge — a parallel-only cost it must absorb).
//!
//! The default run is 8 rounds, as the benchmark's `redstorm_round_par`
//! is: one round is 124k events in 22 windows, too short for per-window
//! cost to show. `--check` applies [`gate::check_parallel`].

use xt3_node::par::run_parallel;
use xt3_sim::RunOutcome;
use xt3_telemetry::JsonWriter;
use xt3_topology::coord::Dims;

use crate::cli::{positive, write_file, Args, CmdResult};
use crate::gate::{self, Baseline};
use crate::machines::{full_machine, red_storm, NEIGHBOR_MSG};
use crate::stopwatch::{best_of, time};

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--quick] [--reps N] [--dims X Y Z] [--rounds R] [--out PATH] [--check PATH]

--quick           8x8x8 slice, 1 round, 2 reps (CI smoke configuration)
--reps N          timing repetitions per sweep point, best-of (default 5)
--dims X Y Z      Red Storm slice dimensions (default 27 16 24, the full machine)
--rounds R        neighbor-push rounds per node (default 8)
--out PATH        JSON output path (default BENCH_parallel.json)
--check PATH      apply gate::check_parallel against a committed
                  BENCH_parallel.json: throughput floor, 2 workers
                  against serial, best parallel run not below serial";

/// Worker counts swept after the serial reference.
const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// The name of the `workers`-worker row in the table and the JSON; 0 is
/// the serial engine.
fn config_name(workers: usize) -> String {
    match workers {
        0 => String::from("serial"),
        n => format!("par-{n}"),
    }
}

/// One sweep point's measurement.
struct Row {
    workers: usize,
    /// Best-of-reps wall time in seconds.
    wall_s: f64,
    /// Synchronization windows the driver needed (0 for the serial run).
    windows: u64,
    /// Threads the shards ran on (1 for the serial run).
    threads: usize,
}

/// Measure, write `--out`, apply `--check`.
pub fn run(mut args: Args) -> CmdResult {
    let quick = args.flag("--quick");
    let mut reps = args.parsed("--reps", positive::<u32>)?.unwrap_or(5);
    let mut dims = args.dims("--dims")?.unwrap_or_else(full_machine);
    let mut rounds = args.parsed("--rounds", positive::<u32>)?.unwrap_or(8);
    let out = args.value("--out")?;
    let out = out.unwrap_or_else(|| "BENCH_parallel.json".into());
    let check = args.value("--check")?;
    args.finish()?;
    if quick {
        reps = 2;
        dims = Dims::red_storm(8, 8, 8);
        rounds = 1;
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let nodes = dims.node_count();
    println!(
        "perf parallel: {nodes}-node Red Storm slice ({}x{}x{}), {rounds} round(s) of {} KiB, \
         best of {reps} rep(s), {cores} host core(s)",
        dims.nx,
        dims.ny,
        dims.nz,
        NEIGHBOR_MSG / 1024
    );
    println!();

    // Serial reference: timing + the digest every parallel run must hit.
    let ((events, digest, fingerprint), serial_s) = best_of(reps, || {
        let mut engine = red_storm(dims, rounds).into_engine();
        // Symmetric with the parallel region: time until the run's
        // digest and fingerprint are in hand, not just until it drains
        // (run_parallel computes both before returning).
        let ((outcome, digest, fingerprint), wall) = time(|| {
            let outcome = engine.run();
            (outcome, engine.digest(), engine.state_fingerprint())
        });
        assert_eq!(outcome, RunOutcome::Drained, "serial run must drain");
        ((engine.dispatched(), digest, fingerprint), wall)
    });
    let rate = |r: &Row| events as f64 / r.wall_s;
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>9} {:>9} {:>8}",
        "config", "events", "wall ms", "events/sec", "speedup", "windows", "threads"
    );
    let print = |r: &Row| {
        println!(
            "{:<10} {:>10} {:>10.2} {:>14.0} {:>9.2} {:>9} {:>8}",
            config_name(r.workers),
            events,
            r.wall_s * 1e3,
            rate(r),
            serial_s / r.wall_s,
            r.windows,
            r.threads
        );
    };
    let mut rows = vec![Row {
        workers: 0,
        wall_s: serial_s,
        windows: 0,
        threads: 1,
    }];
    print(&rows[0]);
    for workers in WORKERS {
        let ((windows, threads), wall_s) = best_of(reps, || {
            let machine = red_storm(dims, rounds);
            let (run, wall) = time(|| run_parallel(machine, workers));
            assert_eq!(run.outcome, RunOutcome::Drained);
            assert_eq!(
                run.digest, digest,
                "parallel digest diverged at {workers} workers — timing void"
            );
            assert_eq!(run.state_fingerprint, fingerprint);
            assert_eq!(run.dispatched, events);
            ((run.rounds, run.threads), wall)
        });
        let row = Row {
            workers,
            wall_s,
            windows,
            threads,
        };
        print(&row);
        rows.push(row);
    }

    let aggregate = rows.iter().map(rate).fold(0.0f64, f64::max);
    // Best wall-clock ratio vs serial among genuinely multi-shard runs —
    // the number the scale work is accountable to.
    let best_speedup = rows
        .iter()
        .filter(|r| r.workers >= 2)
        .map(|r| serial_s / r.wall_s)
        .fold(0.0f64, f64::max);
    let two_worker_ratio = rows
        .iter()
        .find(|r| r.workers == 2)
        .map_or(f64::NAN, |r| r.wall_s / serial_s);
    println!();
    println!(
        "aggregate (best across sweep): {aggregate:.0} events/sec; best >=2-worker speedup {best_speedup:.2}x; \
         2 workers take {two_worker_ratio:.2}x serial wall time; all parallel runs bit-identical to serial"
    );

    let before = Baseline::load(&out).ok();
    let mut w = JsonWriter::new();
    w.object(true)
        .field_str("bench", "parallel-events-per-sec")
        .field("quick", quick);
    w.key("dims").array(false);
    w.value(dims.nx).value(dims.ny).value(dims.nz).end();
    w.field("nodes", nodes)
        .field("rounds", rounds)
        .field("msg_bytes", NEIGHBOR_MSG)
        .field("reps", reps)
        .field("cores", cores)
        .field("aggregate_events_per_sec", format_args!("{aggregate:.0}"))
        .field("best_parallel_speedup", format_args!("{best_speedup:.3}"))
        .field(
            "two_worker_wall_over_serial",
            format_args!("{two_worker_ratio:.3}"),
        );
    w.key("sweep").array(true);
    for r in &rows {
        let config = config_name(r.workers);
        w.object(false)
            .field_str("config", &config)
            .field("workers", r.workers)
            .field("events", events)
            .field("wall_ms", format_args!("{:.3}", r.wall_s * 1e3))
            .field("events_per_sec", format_args!("{:.0}", rate(r)));
        let was = |b: &Baseline| b.row_number("sweep", "config", &config, "events_per_sec");
        if let Some(rate) = before.as_ref().and_then(|b| was(b).ok()) {
            w.field("before_events_per_sec", format_args!("{rate:.0}"));
        }
        w.field("speedup", format_args!("{:.3}", serial_s / r.wall_s))
            .field("windows", r.windows)
            .field("threads", r.threads)
            .end();
    }
    w.end().end();
    write_file(&out, w.finish())?;
    println!("wrote {out}");

    if let Some(path) = check {
        let baseline = Baseline::load(&path)?;
        gate::check_parallel(&baseline, nodes, aggregate, two_worker_ratio, best_speedup)?;
        println!("regression check passed");
    }
    Ok(())
}
