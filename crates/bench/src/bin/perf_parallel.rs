//! Parallel-engine throughput: the Red Storm nearest-neighbor workload
//! (every node pushing to its +x ring neighbor) run serially and across
//! a worker sweep on the conservative time-window driver, reported as
//! events/sec and written to `BENCH_parallel.json`.
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
//! cost to show.
//!
//! `--check` applies three gates. At any size: aggregate throughput at
//! least 25 % of the committed baseline, and 2 workers no more than 2×
//! serial wall time — the per-window hand-off gate (with a futex sleep
//! and wake per worker per window a 216-node slice ran 2–8× slower on 2
//! workers than serially; with the polling hand-off it runs 0.8–1.4×
//! across the same box states). On a run at
//! least as large as the baseline's: the best ≥2-worker run no slower
//! than serial (2 % jitter allowed). Smaller runs (`--quick`, a custom
//! `--dims` slice) report that ratio without being gated on it. PR 14
//! took `--quick` off because at 6,144 events (two reps of ~2 ms) the
//! ratio fell either side of 1.0, and it still does: ten consecutive
//! `--quick` runs gave 1.34, 1.37, 1.25, 1.55, 1.44, 1.51, 1.32, 1.69,
//! 1.41, 1.55 one hour and 0.89, 0.87, 0.94, 0.93, 1.04, 0.93, 0.92,
//! 1.09, 0.92, 0.89 a few hours later on the same 2-vCPU box with the
//! same binary (the parent's driver: 0.64–0.74).
//!
//! ```text
//! cargo run --release -p xt3-bench --bin perf_parallel -- [--quick] [--out PATH] [--check PATH]
//! ```

use std::time::Instant;
use xt3_node::machine::Machine;
use xt3_node::par::run_parallel;
use xt3_node::workloads::red_storm_machine;
use xt3_sim::RunOutcome;
use xt3_telemetry::{parse_json, JsonValue};
use xt3_topology::coord::Dims;

/// Worker counts swept after the serial reference.
const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// One sweep point's measurement.
struct Row {
    workers: usize,
    events: u64,
    /// Best-of-reps wall time in seconds.
    wall_s: f64,
    events_per_sec: f64,
    /// Synchronization windows the driver needed (0 for the serial run).
    windows: u64,
    /// Threads the shards ran on (1 for the serial run).
    threads: usize,
}

impl Row {
    /// The row's name in the table and the JSON.
    fn config(&self) -> String {
        match self.workers {
            0 => String::from("serial"),
            n => format!("par-{n}"),
        }
    }

    fn print(&self, serial_wall_s: f64) {
        println!(
            "{:<10} {:>10} {:>10.2} {:>14.0} {:>9.2} {:>9} {:>8}",
            self.config(),
            self.events,
            self.wall_s * 1e3,
            self.events_per_sec,
            serial_wall_s / self.wall_s,
            self.windows,
            self.threads
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_parallel [--quick] [--reps N] [--dims X Y Z] [--rounds R] [--out PATH]\n\
         \n\
         --quick           8x8x8 slice, 1 round, 2 reps (CI smoke configuration)\n\
         --reps N          timing repetitions per sweep point, best-of (default 5)\n\
         --dims X Y Z      Red Storm slice dimensions (default 27 16 24, the full machine)\n\
         --rounds R        neighbor-push rounds per node (default 8)\n\
         --out PATH        JSON output path (default BENCH_parallel.json)\n\
         --check PATH      compare against a committed baseline JSON: fail if\n\
         \x20                 aggregate events/sec fall below 25% of it, if 2\n\
         \x20                 workers take over 2x serial wall time, or (on a\n\
         \x20                 run at least the baseline's size) if the best\n\
         \x20                 >=2-worker run regresses below serial"
    );
    std::process::exit(2)
}

fn main() {
    let mut quick = false;
    let mut reps: u32 = 5;
    let mut dims = Dims::red_storm(27, 16, 24);
    let mut rounds: u32 = 8;
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
        "{:<10} {:>10} {:>10} {:>14} {:>9} {:>9} {:>8}",
        "config", "events", "wall ms", "events/sec", "speedup", "windows", "threads"
    );
    let mut rows = vec![Row {
        workers: 0,
        events: serial_events,
        wall_s: serial_best,
        events_per_sec: serial_events as f64 / serial_best,
        windows: 0,
        threads: 1,
    }];
    rows[0].print(serial_best);

    for workers in WORKERS {
        let mut best = f64::INFINITY;
        let mut windows = 0u64;
        let mut threads = 0usize;
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
            threads = run.threads;
            best = best.min(wall);
        }
        let row = Row {
            workers,
            events: serial_events,
            wall_s: best,
            events_per_sec: serial_events as f64 / best,
            windows,
            threads,
        };
        row.print(serial_best);
        rows.push(row);
    }

    let aggregate = rows.iter().map(|r| r.events_per_sec).fold(0.0f64, f64::max);
    // Best wall-clock ratio vs serial among genuinely multi-shard runs —
    // the number the scale work is accountable to.
    let best_speedup = rows
        .iter()
        .filter(|r| r.workers >= 2)
        .map(|r| serial_best / r.wall_s)
        .fold(0.0f64, f64::max);
    let two_worker_ratio = rows
        .iter()
        .find(|r| r.workers == 2)
        .map_or(f64::NAN, |r| r.wall_s / serial_best);
    println!();
    println!(
        "aggregate (best across sweep): {aggregate:.0} events/sec; best >=2-worker speedup {best_speedup:.2}x; \
         2 workers take {two_worker_ratio:.2}x serial wall time; all parallel runs bit-identical to serial"
    );

    let run = Run {
        dims,
        rounds,
        msg,
        reps,
        quick,
        cores,
        aggregate,
        best_speedup,
        two_worker_ratio,
    };
    let before = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| parse_json(&text).ok());
    if let Err(e) = std::fs::write(&out, render_json(&rows, &run, before.as_ref())) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if let Some(path) = check {
        check_against(&path, &run);
    }
}

/// What one invocation measured, beyond the sweep rows.
struct Run {
    dims: Dims,
    rounds: u32,
    msg: u64,
    reps: u32,
    quick: bool,
    cores: usize,
    aggregate: f64,
    best_speedup: f64,
    /// 2-worker wall time over serial wall time.
    two_worker_ratio: f64,
}

/// Three gates (see the module doc): an absolute-throughput floor as
/// generous as `perf_baseline`'s (trips on catastrophic slowdowns, not
/// on CI jitter or core-count differences); the per-window hand-off
/// gate, 2 workers within 2x of serial at any size; and, on a run at
/// least the baseline's size, the best >=2-worker run not below serial
/// (2% measurement jitter allowed) — past that the window protocol's
/// overhead is no longer paying for itself.
fn check_against(path: &str, run: &Run) {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_json(&text).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(1);
        });
    let field = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|e| {
                eprintln!("baseline {path} has no {name}: {e}");
                std::process::exit(1);
            })
    };
    let reference = field("aggregate_events_per_sec");
    let floor = reference * 0.25;
    let aggregate = run.aggregate;
    println!(
        "regression check: {aggregate:.0} events/sec vs baseline {reference:.0} (floor {floor:.0})"
    );
    if aggregate < floor {
        eprintln!("perf_parallel: aggregate throughput fell below 25% of the committed baseline");
        std::process::exit(1);
    }
    let ratio = run.two_worker_ratio;
    println!("hand-off check: 2 workers at {ratio:.2}x serial wall time (ceiling 2.00x)");
    // A NaN ratio (no 2-worker row) fails too.
    if ratio.is_nan() || ratio > 2.0 {
        eprintln!("perf_parallel: 2 workers take more than twice the serial wall time");
        std::process::exit(1);
    }
    let best_speedup = run.best_speedup;
    if f64::from(run.dims.node_count()) < field("nodes") {
        println!(
            "speedup: best >=2-worker run at {best_speedup:.2}x serial (gated from the baseline's size up)"
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

/// The rate the previous output file recorded for sweep row `config`.
fn row_rate(doc: &JsonValue, config: &str) -> Option<f64> {
    doc.get("sweep")
        .and_then(JsonValue::as_array)
        .ok()?
        .iter()
        .find(|row| row.get("config").and_then(JsonValue::as_str) == Ok(config))?
        .get("events_per_sec")
        .and_then(JsonValue::as_f64)
        .ok()
}

/// Hand-rolled JSON (the workspace's serde is an offline no-op stub).
fn render_json(rows: &[Row], run: &Run, before: Option<&JsonValue>) -> String {
    use std::fmt::Write as _;
    let Run {
        dims,
        rounds,
        msg,
        reps,
        quick,
        cores,
        aggregate,
        best_speedup,
        two_worker_ratio,
    } = run;
    let serial_wall_s = rows.first().map_or(f64::NAN, |r| r.wall_s);
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
    let _ = writeln!(
        s,
        "  \"two_worker_wall_over_serial\": {two_worker_ratio:.3},"
    );
    s.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let config = r.config();
        let mut extra = String::new();
        if let Some(rate) = before.and_then(|doc| row_rate(doc, &config)) {
            let _ = write!(extra, ", \"before_events_per_sec\": {rate:.0}");
        }
        let _ = writeln!(
            s,
            "    {{\"config\": \"{config}\", \"workers\": {}, \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}{extra}, \"speedup\": {:.3}, \"windows\": {}, \"threads\": {}}}{comma}",
            r.workers,
            r.events,
            r.wall_s * 1e3,
            r.events_per_sec,
            serial_wall_s / r.wall_s,
            r.windows,
            r.threads
        );
    }
    s.push_str("  ]\n}\n");
    s
}
