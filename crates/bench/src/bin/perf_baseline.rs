//! Simulator-core throughput baseline: events/sec per NetPIPE scenario,
//! plus two deep-queue machines.
//!
//! Every figure the repo reproduces is replayed through `sim::Engine`;
//! this binary measures how fast that core chews through each scenario
//! of `scenario_matrix()` (host wall time, simulated work held fixed)
//! and writes the result to `BENCH_core.json`. Event counts are
//! deterministic, so two builds of the same source always measure
//! identical simulated work — any events/sec delta is the simulator
//! itself.
//!
//! The NetPIPE scenarios keep a handful of events pending. The `deep/`
//! scenarios — the 512-node all-to-all (108k pending at the median),
//! the same machine with the registry, causal and series sinks on, and
//! eight rounds of the full 10,368-node machine — are where the event
//! queue's depth and the sinks' price show; their event digests are
//! pinned (the observed twin to the same value as the plain one:
//! digest-neutrality inside the gate), so a queue that reorders anything
//! or a sink that perturbs the run fails here before it is timed. The
//! twin's wall time over the plain row's is `sink_overhead`.
//!
//! A scenario the `--out` file already lists keeps that file's
//! events/sec as `before_events_per_sec` (and the file's `sink_overhead`
//! is kept as `before_sink_overhead`), so the committed JSON holds a
//! before/after row for whatever change regenerated it.
//!
//! ```text
//! cargo run --release -p xt3-bench --bin perf_baseline -- [--quick] [--reps N] [--out PATH]
//! ```

use std::time::Instant;
use xt3_netpipe::runner::{build_engine, scenario_matrix, scenario_name, NetpipeConfig};
use xt3_node::config::MachineConfig;
use xt3_node::machine::Machine;
use xt3_node::workloads::{red_storm_machine, traffic_machine_cfg, TrafficPattern};
use xt3_sim::{Engine, RunOutcome};
use xt3_telemetry::{JsonValue, SeriesConfig};
use xt3_topology::coord::Dims;

/// One scenario's measurement.
struct Row {
    name: String,
    events: u64,
    /// Best-of-reps wall time in seconds.
    wall_s: f64,
    events_per_sec: f64,
    /// The pinned event digest every rep reproduced (deep scenarios only).
    digest: Option<u64>,
}

/// Deep-queue scenario: name, machine, pinned event digest. The machines
/// are the `torus512_alltoall` (first phase) and `redstorm_round`
/// workloads of `benchmark/`, built from the same public constructors.
type Deep = (&'static str, fn() -> Machine, u64);

fn torus512_alltoall() -> Machine {
    let config = MachineConfig::paper(Dims::red_storm(8, 8, 8));
    traffic_machine_cfg(TrafficPattern::AllToAll, config, 1, 4096)
}

/// The plain and the observed 512-node rows `sink_overhead` divides.
const PLAIN: &str = "deep/torus512-alltoall";
const OBSERVED: &str = "deep/torus512-alltoall+sinks";

/// `--check` fails above this `sink_overhead`. Measured on the 2-core
/// reference box with this binary: 2.4-2.6 with the ordered-map stores
/// this gate was introduced against, 1.4-1.5 without them.
const SINK_OVERHEAD_CEILING: f64 = 2.0;

const DEEP: [Deep; 3] = [
    (PLAIN, torus512_alltoall, 0x511b_a982_3961_2dd5),
    (
        OBSERVED,
        || {
            let mut m = torus512_alltoall();
            m.set_telemetry_enabled(true);
            m.set_causal_enabled(true);
            m.enable_link_series(SeriesConfig::default());
            m
        },
        0x511b_a982_3961_2dd5,
    ),
    (
        "deep/redstorm-8round",
        || red_storm_machine(Dims::red_storm(27, 16, 24), 8, 16384),
        0x4d63_ac28_4b90_1695,
    ),
];

/// Best-of-`reps` timing of `engine.run()` over freshly built engines;
/// every rep's event digest must equal `pinned` where one is given.
fn measure(
    name: String,
    reps: u32,
    pinned: Option<u64>,
    build: impl Fn() -> Engine<Machine>,
) -> Row {
    let mut events = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut engine = build();
        let start = Instant::now();
        let outcome = engine.run();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(outcome, RunOutcome::Drained, "{name}: run must drain");
        if let Some(pinned) = pinned {
            let digest = engine.digest();
            assert_eq!(
                digest, pinned,
                "{name}: event digest {digest:#018x} differs from the pinned {pinned:#018x}"
            );
        }
        events = engine.dispatched();
        best = best.min(wall);
    }
    let eps = events as f64 / best;
    println!(
        "{:<28} {:>10} {:>10.2} {:>14.0}",
        name,
        events,
        best * 1e3,
        eps
    );
    Row {
        name,
        events,
        wall_s: best,
        events_per_sec: eps,
        digest: pinned,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_baseline [--quick] [--reps N] [--max-size BYTES] [--out PATH]\n\
         \n\
         --quick           small messages + 1 rep (CI smoke configuration; the\n\
         \x20                 deep-queue machines are fixed-size and still run)\n\
         --reps N          timing repetitions per scenario, best-of (default 3)\n\
         --max-size BYTES  NetPIPE schedule size cap (default 65536)\n\
         --out PATH        JSON output path (default BENCH_core.json)\n\
         --check PATH      compare against a committed baseline JSON and fail if\n\
         \x20                 the aggregate or a deep scenario's events/sec fall\n\
         \x20                 below 25% of it, or if this run's sink_overhead\n\
         \x20                 (observed / plain 512-node wall time) exceeds 2.0"
    );
    std::process::exit(2)
}

fn main() {
    let mut quick = false;
    let mut reps: u32 = 3;
    let mut max_size: u64 = 64 * 1024;
    let mut out = String::from("BENCH_core.json");
    let mut check: Option<String> = None;

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
            "--max-size" => {
                max_size = args
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
        reps = 1;
        max_size = max_size.min(4096);
    }

    let config = NetpipeConfig::quick(max_size);
    println!(
        "perf baseline: {} scenarios, max message {} B, best of {} rep(s)",
        scenario_matrix().len(),
        max_size,
        reps
    );
    println!();
    println!(
        "{:<28} {:>10} {:>10} {:>14}",
        "scenario", "events", "wall ms", "events/sec"
    );

    let mut rows = Vec::new();
    for (t, k) in scenario_matrix() {
        rows.push(measure(scenario_name(t, k), reps, None, || {
            build_engine(&config, t, k)
        }));
    }

    // The headline stays the NetPIPE aggregate, comparable with every
    // earlier BENCH_core.json; the deep rows are gated one by one.
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    let total_wall: f64 = rows.iter().map(|r| r.wall_s).sum();
    let aggregate = total_events as f64 / total_wall;

    for (name, build, pinned) in DEEP {
        rows.push(measure(name.to_string(), reps, Some(pinned), || {
            build().into_engine()
        }));
    }

    let wall_of = |name: &str| {
        let row = rows.iter().find(|r| r.name == name);
        row.expect("both 512-node rows are in DEEP").wall_s
    };
    let sink_overhead = wall_of(OBSERVED) / wall_of(PLAIN);

    println!();
    println!(
        "aggregate (netpipe): {total_events} events in {:.1} ms -> {:.0} events/sec",
        total_wall * 1e3,
        aggregate
    );
    println!("sink_overhead = wall({OBSERVED}) / wall({PLAIN}) = {sink_overhead:.3}");

    let before = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| xt3_telemetry::parse_json(&text).ok());
    let json = render_json(
        &rows,
        before.as_ref(),
        max_size,
        reps,
        quick,
        aggregate,
        sink_overhead,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if let Some(path) = check {
        check_against(&path, aggregate, &rows, sink_overhead);
    }
}

/// `events_per_sec` of scenario `name` in a BENCH_core.json document.
fn scenario_rate(doc: &JsonValue, name: &str) -> Option<f64> {
    doc.get("scenarios")
        .and_then(JsonValue::as_array)
        .ok()?
        .iter()
        .find(|s| s.get("name").and_then(JsonValue::as_str) == Ok(name))?
        .get("events_per_sec")
        .and_then(JsonValue::as_f64)
        .ok()
}

/// Bench-regression guard: CI machines are noisy and heterogeneous, so
/// the tolerance is generous — the guard only trips on a catastrophic
/// slowdown (an accidental O(n^2), tracing left on in the hot path),
/// not on run-to-run jitter.
fn check_against(path: &str, aggregate: f64, rows: &[Row], sink_overhead: f64) {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| xt3_telemetry::parse_json(&text))
        .unwrap_or_else(|e| {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(1);
        });
    let reference = doc
        .get("aggregate_events_per_sec")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|e| {
            eprintln!("baseline {path} has no aggregate_events_per_sec: {e}");
            std::process::exit(1);
        });
    // The aggregate, then each deep scenario against its own row (their
    // rates differ from NetPIPE's by an order of magnitude, so folding
    // them into one number would hide either side's regression).
    let mut gates = vec![("aggregate".to_string(), aggregate, reference)];
    for row in rows.iter().filter(|r| r.digest.is_some()) {
        let Some(reference) = scenario_rate(&doc, &row.name) else {
            eprintln!("baseline {path} has no scenario {}", row.name);
            std::process::exit(1);
        };
        gates.push((row.name.clone(), row.events_per_sec, reference));
    }
    for (name, measured, reference) in gates {
        let floor = reference * 0.25;
        println!(
            "regression check: {name} {measured:.0} events/sec vs baseline {reference:.0} (floor {floor:.0})"
        );
        if measured < floor {
            eprintln!("perf_baseline: {name} throughput fell below 25% of the committed baseline");
            std::process::exit(1);
        }
    }
    // The sinks' price is gated on this run's own ratio, not the file's.
    println!("sink overhead check: {sink_overhead:.3} (ceiling {SINK_OVERHEAD_CEILING:.1})");
    if sink_overhead > SINK_OVERHEAD_CEILING {
        eprintln!(
            "perf_baseline: the sinks cost more than {SINK_OVERHEAD_CEILING:.1}x the unobserved run"
        );
        std::process::exit(1);
    }
    println!("regression check passed");
}

/// Hand-rolled JSON (the workspace's serde is an offline no-op stub).
fn render_json(
    rows: &[Row],
    before: Option<&JsonValue>,
    max_size: u64,
    reps: u32,
    quick: bool,
    aggregate: f64,
    sink_overhead: f64,
) -> String {
    use std::fmt::Write as _;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"core-events-per-sec\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"max_size\": {max_size},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"cores\": {cores},");
    let _ = writeln!(s, "  \"aggregate_events_per_sec\": {aggregate:.0},");
    let _ = writeln!(s, "  \"sink_overhead\": {sink_overhead:.3},");
    let was = before.map(|doc| doc.get("sink_overhead").and_then(JsonValue::as_f64));
    if let Some(Ok(was)) = was {
        let _ = writeln!(s, "  \"before_sink_overhead\": {was:.3},");
    }
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let mut extra = String::new();
        if let Some(rate) = before.and_then(|doc| scenario_rate(doc, &r.name)) {
            let _ = write!(extra, ", \"before_events_per_sec\": {rate:.0}");
        }
        if let Some(digest) = r.digest {
            let _ = write!(extra, ", \"digest\": \"{digest:#018x}\"");
        }
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}{extra}}}{comma}",
            r.name,
            r.events,
            r.wall_s * 1e3,
            r.events_per_sec
        );
    }
    s.push_str("  ]\n}\n");
    s
}
