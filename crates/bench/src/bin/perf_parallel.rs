//! Parallel-engine throughput: the Red Storm nearest-neighbor workload
//! (every node pushing to its +x ring neighbor) run serially and across
//! a worker sweep on the conservative time-window driver, reported as
//! events/sec and appended to `BENCH_parallel.json`.
//!
//! Every parallel run is checked bit-identical to the serial digest and
//! state fingerprint before its timing is reported — a number from a
//! divergent run would be meaningless.
//!
//! The JSON carries a `cores` field: wall-clock speedup is bounded by
//! the host's physical parallelism. On single-core hosts (CI containers
//! pinned to one CPU) the driver runs shards inline on the coordinator
//! thread, where the win comes from smaller per-shard event heaps and
//! batched fabric replay rather than concurrency — real, and much
//! smaller than what multiple cores would add. The headline numbers are
//! `aggregate_events_per_sec` (best throughput across the sweep, serial
//! included) and `best_parallel_speedup` (best ≥2-worker wall-clock
//! ratio vs serial).
//!
//! Timing is symmetric: the serial region covers run + digest + state
//! fingerprint, matching the parallel region (which additionally pays
//! its own split/merge — a parallel-only cost it must absorb).
//!
//! `--check` holds the aggregate to 25 % of the committed baseline and,
//! on the full-size run only, the best ≥2-worker run to no slower than
//! serial. `--quick` reports that ratio but does not gate on it: at
//! 6,144 events a pass lasts a few milliseconds, and on a 2-vCPU box the
//! ratio lands either side of 1.0 from run to run (it failed two runs in
//! three with no code change), so the smoke run cannot decide it.
//!
//! ```text
//! cargo run --release -p xt3-bench --bin perf_parallel -- [--quick] [--out PATH] [--check PATH]
//! ```

use std::time::Instant;
use xt3_node::machine::Machine;
use xt3_node::par::run_parallel;
use xt3_node::workloads::red_storm_machine;
use xt3_sim::RunOutcome;
use xt3_topology::coord::Dims;

/// One sweep point's measurement.
struct Row {
    workers: usize,
    events: u64,
    /// Best-of-reps wall time in seconds.
    wall_s: f64,
    events_per_sec: f64,
    /// Synchronization windows the driver needed (0 for the serial run).
    windows: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_parallel [--quick] [--reps N] [--dims X Y Z] [--rounds R] [--out PATH]\n\
         \n\
         --quick           8x8x8 slice, 1 round, 2 reps (CI smoke configuration)\n\
         --reps N          timing repetitions per sweep point, best-of (default 5)\n\
         --dims X Y Z      Red Storm slice dimensions (default 27 16 24, the full machine)\n\
         --rounds R        neighbor-push rounds per node (default 1)\n\
         --out PATH        JSON output path (default BENCH_parallel.json)\n\
         --check PATH      compare against a committed baseline JSON: fail if\n\
         \x20                 aggregate events/sec fall below 25% of it, or (not\n\
         \x20                 with --quick) if the best >=2-worker run regresses\n\
         \x20                 below serial"
    );
    std::process::exit(2)
}

fn main() {
    let mut quick = false;
    let mut reps: u32 = 5;
    let mut dims = Dims::red_storm(27, 16, 24);
    let mut rounds: u32 = 1;
    let mut out = String::from("BENCH_parallel.json");
    let mut check: Option<String> = None;
    let msg: u64 = 16 * 1024;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--dims" => {
                let mut next = || args.next().and_then(|v| v.parse::<u16>().ok());
                match (next(), next(), next()) {
                    (Some(x), Some(y), Some(z)) => dims = Dims::red_storm(x, y, z),
                    _ => usage(),
                }
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if quick {
        reps = 2;
        dims = Dims::red_storm(8, 8, 8);
        rounds = 1;
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let nodes = dims.node_count();
    let build = || -> Machine { red_storm_machine(dims, rounds, msg) };
    println!(
        "perf parallel: {nodes}-node Red Storm slice ({}x{}x{}), {rounds} round(s) of {} KiB, \
         best of {reps} rep(s), {cores} host core(s)",
        dims.nx,
        dims.ny,
        dims.nz,
        msg / 1024
    );
    println!();

    // Serial reference: timing + the digest every parallel run must hit.
    let mut serial_digest = 0u64;
    let mut serial_fp = 0u64;
    let mut serial_events = 0u64;
    let mut serial_best = f64::INFINITY;
    for _ in 0..reps {
        let mut engine = build().into_engine();
        // Symmetric with the parallel region: time until the run's
        // digest and fingerprint are in hand, not just until it drains
        // (run_parallel computes both before returning).
        let start = Instant::now();
        let outcome = engine.run();
        serial_digest = engine.digest();
        serial_fp = engine.state_fingerprint();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(outcome, RunOutcome::Drained, "serial run must drain");
        serial_events = engine.dispatched();
        serial_best = serial_best.min(wall);
    }
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>9} {:>9}",
        "config", "events", "wall ms", "events/sec", "speedup", "windows"
    );
    let serial_eps = serial_events as f64 / serial_best;
    println!(
        "{:<10} {:>10} {:>10.2} {:>14.0} {:>9.2} {:>9}",
        "serial",
        serial_events,
        serial_best * 1e3,
        serial_eps,
        1.0,
        0
    );
    let mut rows = vec![Row {
        workers: 0,
        events: serial_events,
        wall_s: serial_best,
        events_per_sec: serial_eps,
        windows: 0,
    }];

    for workers in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut windows = 0u64;
        for _ in 0..reps {
            let machine = build();
            let start = Instant::now();
            let run = run_parallel(machine, workers);
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(run.outcome, RunOutcome::Drained);
            assert_eq!(
                run.digest, serial_digest,
                "parallel digest diverged at {workers} workers — timing void"
            );
            assert_eq!(run.state_fingerprint, serial_fp);
            assert_eq!(run.dispatched, serial_events);
            windows = run.rounds;
            best = best.min(wall);
        }
        let eps = serial_events as f64 / best;
        println!(
            "{:<10} {:>10} {:>10.2} {:>14.0} {:>9.2} {:>9}",
            format!("{workers} worker"),
            serial_events,
            best * 1e3,
            eps,
            serial_best / best,
            windows
        );
        rows.push(Row {
            workers,
            events: serial_events,
            wall_s: best,
            events_per_sec: eps,
            windows,
        });
    }

    let aggregate = rows.iter().map(|r| r.events_per_sec).fold(0.0f64, f64::max);
    // Best wall-clock ratio vs serial among genuinely multi-shard runs —
    // the number the scale work is accountable to.
    let best_speedup = rows
        .iter()
        .filter(|r| r.workers >= 2)
        .map(|r| serial_best / r.wall_s)
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "aggregate (best across sweep): {aggregate:.0} events/sec; best >=2-worker speedup {best_speedup:.2}x; \
         all parallel runs bit-identical to serial"
    );

    let json = render_json(
        &rows,
        dims,
        rounds,
        msg,
        reps,
        quick,
        cores,
        aggregate,
        best_speedup,
        serial_best,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if let Some(path) = check {
        check_against(&path, aggregate, best_speedup, quick);
    }
}

/// Two gates: an absolute-throughput floor as generous as
/// `perf_baseline`'s (trips on catastrophic slowdowns, not on CI jitter
/// or core-count differences), and a serial-vs-parallel gate — the
/// best ≥2-worker run must not regress below serial. The latter allows
/// 2% measurement jitter; anything past that means the window protocol's
/// overhead is no longer paying for itself and is a real regression. It
/// is skipped for the `quick` slice, whose passes are too short to
/// resolve 2 %.
fn check_against(path: &str, aggregate: f64, best_speedup: f64, quick: bool) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let reference = xt3_telemetry::parse_json(&text)
        .and_then(|doc| {
            doc.get("aggregate_events_per_sec")
                .and_then(xt3_telemetry::JsonValue::as_f64)
        })
        .unwrap_or_else(|e| {
            eprintln!("baseline {path} has no aggregate_events_per_sec: {e}");
            std::process::exit(1);
        });
    let floor = reference * 0.25;
    println!(
        "regression check: {aggregate:.0} events/sec vs baseline {reference:.0} (floor {floor:.0})"
    );
    if aggregate < floor {
        eprintln!("perf_parallel: aggregate throughput fell below 25% of the committed baseline");
        std::process::exit(1);
    }
    if quick {
        println!(
            "speedup: best >=2-worker run at {best_speedup:.2}x serial (not gated with --quick)"
        );
    } else {
        println!("speedup check: best >=2-worker run at {best_speedup:.2}x serial (floor 0.98x)");
        if best_speedup < 0.98 {
            eprintln!("perf_parallel: parallel execution at >=2 workers regressed below serial");
            std::process::exit(1);
        }
    }
    println!("regression check passed");
}

/// Hand-rolled JSON (the workspace's serde is an offline no-op stub).
#[allow(clippy::too_many_arguments)]
fn render_json(
    rows: &[Row],
    dims: Dims,
    rounds: u32,
    msg: u64,
    reps: u32,
    quick: bool,
    cores: usize,
    aggregate: f64,
    best_speedup: f64,
    serial_wall_s: f64,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"parallel-events-per-sec\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"dims\": [{}, {}, {}],", dims.nx, dims.ny, dims.nz);
    let _ = writeln!(s, "  \"nodes\": {},", dims.node_count());
    let _ = writeln!(s, "  \"rounds\": {rounds},");
    let _ = writeln!(s, "  \"msg_bytes\": {msg},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"cores\": {cores},");
    let _ = writeln!(s, "  \"aggregate_events_per_sec\": {aggregate:.0},");
    let _ = writeln!(s, "  \"best_parallel_speedup\": {best_speedup:.3},");
    s.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let config = if r.workers == 0 {
            String::from("serial")
        } else {
            format!("par-{}", r.workers)
        };
        let _ = writeln!(
            s,
            "    {{\"config\": \"{config}\", \"workers\": {}, \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \"speedup\": {:.3}, \"windows\": {}}}{comma}",
            r.workers,
            r.events,
            r.wall_s * 1e3,
            r.events_per_sec,
            serial_wall_s / r.wall_s,
            r.windows
        );
    }
    s.push_str("  ]\n}\n");
    s
}
